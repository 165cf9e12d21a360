"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures, asserts its
shape claims, renders the rows the paper reports (printed under ``-s`` and
stored in ``benchmark.extra_info``), and times the regeneration.  Expensive
graph builds are cached across benches via :func:`repro.eval.cached_graph`.
"""

from __future__ import annotations

import pytest


def report(benchmark, result) -> None:
    """Attach a rendered table to the benchmark and print it."""
    text = result.render()
    benchmark.extra_info["table"] = text
    print("\n" + text)


@pytest.fixture()
def reporter():
    return report
