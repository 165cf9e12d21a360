"""Mode equivalence for the cycle simulator: solved == reference loop.

A solved run (``mode="leap"``, the default) takes its timing from the
kernels' op recurrences (see test_schedule_run.py) and extends a solved
prefix by its period; it must be *observably identical* to the exhaustive
per-cycle tick loop (``mode="exhaustive"``): same total cycles, same
per-image completion cycles, same output tensors, bit-identical kernel and
stream statistics — stall counters included, since the paper's occupancy
and bottleneck analyses are computed from them — and byte-identical event
traces.  These tests drive every tiny topology used across the suite
through both modes, plus hypothesis-randomized networks for the long tail
of shapes, and pin the reference loop's own budget abort.  (Deeper
leap-specific behaviour — demotion, the paper-scale interval check — lives
in test_leap.py.)
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.engine import CycleBudgetExceeded, Engine
from repro.dataflow.kernel import Kernel
from repro.dataflow import manager
from repro.dataflow.manager import simulate
from repro.dataflow.stream import Stream
from repro.dataflow.trace import Tracer
from repro.nn import export_model

from .conftest import make_tiny_chain_model, make_tiny_resnet_model, record_trace
from .test_random_topologies import build_random_graph
from .test_schedule_run import engine_run


def _half_partition(graph):
    names = [n for n in graph.topological() if n != graph.input_name]
    half = len(names) // 2
    return [names[:half], names[half:]]


def _assert_runs_identical(slow, solved):
    assert solved.cycles == slow.cycles
    assert solved.run.completion_cycles == slow.run.completion_cycles
    assert np.array_equal(solved.output, slow.output)
    for name, a in slow.run.kernel_stats.items():
        b = solved.run.kernel_stats[name]
        assert dataclasses.asdict(b) == dataclasses.asdict(a), f"kernel {name}"
    for name, a in slow.run.stream_stats.items():
        b = solved.run.stream_stats[name]
        assert dataclasses.asdict(b) == dataclasses.asdict(a), f"stream {name}"


def _images(seed: int, n: int = 2, size: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(n, size, size, 3), dtype=np.int64)


def _case(name: str):
    if name == "chain":
        graph = export_model(make_tiny_chain_model(), (16, 16, 3), name="tiny-chain")
    else:
        graph = export_model(make_tiny_resnet_model(), (16, 16, 3), name="tiny-resnet")
    kwargs = {}
    if name == "multi_dfe":
        kwargs["partition"] = _half_partition(graph)
    return graph, kwargs


@pytest.mark.parametrize("topology", ["chain", "resnet", "multi_dfe"])
def test_fast_path_matches_exhaustive(topology):
    """Two images: the solved prefix reaches every image, so the whole run is solved."""
    graph, kwargs = _case(topology)
    images = _images(0)
    slow = simulate(graph, images, mode="exhaustive", **kwargs)
    solved = simulate(graph, images, **kwargs)
    assert "_flat" not in vars(solved.pipeline.source)  # solved, never ticked
    _assert_runs_identical(slow, solved)
    report = solved.leap_report
    assert not report.demoted and report.leaps == 0
    assert report.reason == "the solved prefix reached every image"


@pytest.mark.parametrize("topology", ["chain", "resnet", "multi_dfe"])
def test_leap_mode_matches_exhaustive_and_fast(topology):
    """Solved == reference loop with the solve actually extending its prefix.

    Eight images leave room past the certified prefix; everything
    observable — cycles, outputs, stats — must still be bit-identical.
    """
    graph, kwargs = _case(topology)
    images = _images(1, n=8)
    slow = simulate(graph, images, mode="exhaustive", **kwargs)
    leap = simulate(graph, images, mode="leap", **kwargs)
    _assert_runs_identical(slow, leap)
    report = leap.leap_report
    assert not report.demoted and report.reason is None
    assert report.leaps == 1, "the solve never extended its prefix"
    assert report.cycles == leap.cycles
    assert "_flat" not in vars(leap.pipeline.source)
    ticked = slow.leap_report
    assert ticked.demoted and ticked.cycles is None and ticked.leaps == 0
    assert ticked.reason == "mode='exhaustive'"


@pytest.mark.parametrize("topology", ["chain", "resnet", "multi_dfe"])
def test_traced_leap_mode_solves_whole_and_traces_identically(topology):
    """A traced run is solved whole, not extended (demoted), with the reference loop's trace."""
    graph, kwargs = _case(topology)
    images = _images(1, n=8)
    t_loop, t_slow, t_leap = Tracer(), Tracer(), Tracer()
    engine_run(graph, images, trace=t_loop, **kwargs)
    slow = simulate(graph, images, mode="exhaustive", trace=t_slow, **kwargs)
    leap = simulate(graph, images, mode="leap", trace=t_leap, **kwargs)
    _assert_runs_identical(slow, leap)
    expected = t_loop.state()
    assert t_slow.state() == expected
    assert t_leap.state() == expected
    report = leap.leap_report
    assert report.demoted and report.leaps == 0 and report.cycles == leap.cycles
    assert "tracer" in report.reason


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.sampled_from([6, 8, 10]),
    depth=st.integers(1, 3),
    with_residual=st.booleans(),
)
def test_fast_path_matches_exhaustive_random(seed, size, depth, with_residual):
    graph = build_random_graph(seed, size, depth, with_residual)
    rng = np.random.default_rng(seed + 1)
    channels = graph.input_spec.channels
    images = rng.integers(0, 4, size=(5, size, size, channels), dtype=np.int64)
    slow = simulate(graph, images, mode="exhaustive")
    leap = simulate(graph, images, mode="leap")
    _assert_runs_identical(slow, leap)


# -- the reference loop's own abort ---------------------------------------
#
# A hand-built ring of kernels without op programs: the engine runs it
# directly, and its deadlock must abort at exactly the budget.


class _RingStage(Kernel):
    """Pass-through +1 stage used to build an (intentionally) deadlocked ring."""

    def tick(self, cycle: int) -> int | None:
        inp = self.inputs[0]
        if not inp.can_pop(cycle):
            return self._starved(cycle)
        if not self.outputs[0].can_push():
            return self._blocked(cycle)
        self.outputs[0].push(inp.pop(cycle) + 1, cycle)
        self.stats.elements_in += 1
        self.stats.elements_out += 1
        self.stats.mark_active(cycle)
        return None


def _ring() -> Engine:
    engine = Engine("ring")
    a = _RingStage("a")
    b = _RingStage("b")
    engine.add_kernel(a)
    engine.add_kernel(b)
    engine.connect(a, b, Stream("ab", capacity=2))
    engine.connect(b, a, Stream("ba", capacity=2))
    return engine


@pytest.mark.parametrize("traced", [False, True])
def test_deadlock_aborts_at_max_cycles(traced):
    """A cyclic starvation deadlock must abort at exactly ``max_cycles``."""
    trace = Tracer() if traced else None
    with pytest.raises(RuntimeError, match="no convergence after 500 cycles"):
        if trace is None:
            _ring().run(lambda: False, max_cycles=500)
        else:
            record_trace(_ring(), lambda: False, 500, trace)
    if trace is not None:
        assert trace.total_cycles is None  # an aborted trace stays unsealed
        assert [(s.kind, s.start, s.end) for s in trace.kernel_spans["a"]] == [("starved", 0, 499)]


@pytest.mark.parametrize("mode", ["exhaustive", "leap"])
def test_budget_abort_carries_the_partly_run_pipeline(mode):
    graph, _ = _case("chain")
    with pytest.raises(CycleBudgetExceeded, match="no convergence after 100 cycles") as info:
        simulate(graph, _images(0), max_cycles=100, mode=mode)
    pipeline = info.value.pipeline
    assert pipeline is not None and pipeline.graph is graph
    assert pipeline.sink.completion_cycles == []


def test_deadlock_abort_settles_identical_stall_counters():
    """Recorded and unrecorded reference-loop aborts settle bit-identical statistics."""
    results = {}
    for traced in (False, True):
        engine = _ring()
        with pytest.raises(RuntimeError):
            if traced:
                record_trace(engine, lambda: False, 500, Tracer())
            else:
                engine.run(lambda: False, max_cycles=500)
        kstats, sstats = engine.collect_stats()
        results[traced] = (
            {n: dataclasses.asdict(s) for n, s in kstats.items()},
            {n: dataclasses.asdict(s) for n, s in sstats.items()},
        )
    assert results[True] == results[False]
    kstats, _ = results[True]
    assert kstats["a"]["input_starved_cycles"] == 500
    assert kstats["b"]["input_starved_cycles"] == 500


@pytest.mark.parametrize("max_cycles", [0, -1])
def test_run_rejects_non_positive_cycle_budget(max_cycles):
    engine = Engine("guard")
    with pytest.raises(ValueError, match="max_cycles must be a positive cycle budget"):
        engine.run(lambda: True, max_cycles=max_cycles)


@pytest.mark.parametrize("max_cycles", [0, -1, True, 2.5, "100"])
@pytest.mark.parametrize("mode", ["exhaustive", "leap"])
def test_simulate_rejects_a_budget_that_is_not_a_positive_int(monkeypatch, mode, max_cycles):
    """Checked before the pipeline is built, so a solved run checks it too."""
    graph, _ = _case("chain")

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline was built")

    monkeypatch.setattr(manager, "build_pipeline", refuse)
    with pytest.raises(ValueError, match="max_cycles must be a positive int cycle budget"):
        simulate(graph, _images(0), max_cycles=max_cycles, mode=mode)


def test_simulate_rejects_an_unknown_mode(monkeypatch):
    """Two modes remain: the deleted ``"fast"`` is refused before anything is built."""
    graph, _ = _case("chain")

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline was built")

    monkeypatch.setattr(manager, "build_pipeline", refuse)
    with pytest.raises(ValueError, match="mode must be 'exhaustive' or 'leap', got 'fast'"):
        simulate(graph, _images(0), mode="fast")
