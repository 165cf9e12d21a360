"""The package runs on its runtime dependencies alone (numpy).

networkx and scipy are development extras: the first is the oracle for the
graph tables (``tests/test_graph_ir.py``), the second checks the functional
convolutions.  A child process refuses both at import time, then imports
every entry point and runs a tiny simulation and verification.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import sys


class RefuseDevOnly:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("networkx", "scipy"):
            raise ImportError(f"{name} is not a runtime dependency")
        return None


sys.meta_path.insert(0, RefuseDevOnly())

import numpy as np

import repro.cli
import repro.dataflow
import repro.fleet
import repro.models
import repro.planner
import repro.telemetry.loadgen
from repro.dataflow import simulate, verify
from repro.models import direct_resnet18_graph

graph = direct_resnet18_graph(16, width=0.0625, classes=4, stages=[(64, 1, 1)])
spec = graph.input_spec
levels = np.random.default_rng(0).integers(
    0, 1 << spec.bits, size=(2, spec.height, spec.width, spec.channels)
)
assert simulate(graph, levels).cycles > 0
assert verify(graph).ok
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("networkx", "scipy"))
assert not loaded, loaded
print("ok")
"""


def test_runs_without_networkx_or_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
