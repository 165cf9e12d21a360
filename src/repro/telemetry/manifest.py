"""Run manifests: who/what/where a measurement came from.

Every exported telemetry snapshot (and every ``bench/run.py`` results
file) carries enough host and topology metadata to be comparable across
machines and commits: interpreter and numpy versions, CPU count, platform,
and the git revision the tree was at.  The helpers here are the single
source of that metadata — the exporters, the benchmark and the CLI all
call :func:`host_manifest` / :func:`run_manifest` rather than rolling
their own.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..dataflow.links import MAX4_FABRIC_MHZ

if TYPE_CHECKING:
    from ..nn.graph import LayerGraph

__all__ = ["host_manifest", "run_manifest"]

_REPO_DIR = Path(__file__).resolve().parent


def _git(args: list[str]) -> str:
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            cwd=_REPO_DIR,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def host_manifest() -> dict[str, Any]:
    """Host + toolchain metadata: everything that affects simulator speed."""
    return {
        "revision": _git(["rev-parse", "--short", "HEAD"]),
        "git_describe": _git(["describe", "--always", "--dirty", "--tags"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def run_manifest(
    graph: "LayerGraph | None" = None,
    *,
    seed: int | None = None,
    images: int | None = None,
) -> dict[str, Any]:
    """A full run manifest: host metadata plus the run's topology, inputs and fabric clock."""
    manifest: dict[str, Any] = {
        "schema": "repro-run-manifest/1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **host_manifest(),
    }
    if graph is not None:
        spec = graph.input_spec
        manifest["topology"] = {
            "name": graph.name,
            "nodes": len(graph.nodes),
            "input": [spec.height, spec.width, spec.channels],
            "input_bits": spec.bits,
        }
    if seed is not None:
        manifest["seed"] = int(seed)
    if images is not None:
        manifest["images"] = int(images)
    manifest["fclk_mhz"] = MAX4_FABRIC_MHZ
    return manifest
