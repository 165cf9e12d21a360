"""The op-recurrence schedule solver against the engine oracle.

`replay_schedule` never ticks the engine; here the engine runs the same zero
batch (skip FIFOs far larger than any high-water mark) and every `Schedule`
field must come out equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import build_pipeline, solve_skip_capacities
from repro.dataflow import schedule as schedule_module
from repro.dataflow.engine import CycleBudgetExceeded
from repro.dataflow.schedule import _NEVER, REPLAY_IMAGES, Schedule, _Ops, _solve, replay_schedule
from repro.hardware.timing import kernel_timing
from repro.kernels import (
    AddKernel,
    ConvKernel,
    ForkKernel,
    GlobalAvgSumKernel,
    HostSink,
    HostSource,
    MaxPoolKernel,
    ThresholdKernel,
)
from repro.nn.graph import AddNode, ConvNode, GlobalAvgSumNode, InputNode, LayerGraph
from repro.telemetry.latency import segment_summaries
from tests.test_planner import FAMILIES
from tests.test_random_topologies import _signs, build_random_graph

ORACLE_SKIP_CAPACITY = 1 << 22


def _zero_pipeline(graph, partition=None):
    spec = graph.input_spec
    zeros = np.zeros((REPLAY_IMAGES, spec.height, spec.width, spec.channels), dtype=np.int64)
    adds = [n for n in graph.order if isinstance(graph.nodes[n], AddNode)]
    return build_pipeline(
        graph, zeros, partition=partition,
        skip_sizing={add: ORACLE_SKIP_CAPACITY for add in adds},
    )


def engine_schedule(graph, partition=None) -> Schedule:
    """The schedule the engine measures by ticking a zero batch."""
    pipeline = _zero_pipeline(graph, partition)
    cycles = pipeline.engine.run(lambda: pipeline.sink.done)
    return Schedule(
        cycles=cycles,
        completion_cycles=tuple(pipeline.sink.completion_cycles),
        skip_high_water={
            add: stream.stats.max_occupancy for add, stream in pipeline.skip_streams.items()
        },
        segments=tuple(
            (label, float(summary.mean))
            for label, summary in segment_summaries(pipeline)
            if summary.mean is not None
        ),
    )


def halves(graph):
    nodes = [n for n in graph.order if n != graph.input_name]
    mid = len(nodes) // 2
    return [nodes[:mid], nodes[mid:]] if mid else None


def assert_same(graph, partition=None):
    solved = replay_schedule(graph, partition)
    oracle = engine_schedule(graph, partition)
    assert solved.cycles == oracle.cycles
    assert solved.completion_cycles == oracle.completion_cycles
    assert dict(solved.skip_high_water) == oracle.skip_high_water
    assert solved.segments == oracle.segments


class TestEngineOracle:
    def test_tiny_chain(self, tiny_chain_graph):
        assert_same(tiny_chain_graph)

    def test_tiny_resnet(self, tiny_resnet_graph):
        assert_same(tiny_resnet_graph)

    def test_tiny_resnet_half_partition(self, tiny_resnet_graph):
        partition = halves(tiny_resnet_graph)
        assert_same(tiny_resnet_graph, partition)
        assert len(replay_schedule(tiny_resnet_graph, partition).segments) >= 3

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_planner_families(self, family):
        graph = FAMILIES[family]()
        assert_same(graph)
        assert_same(graph, halves(graph))


@given(
    st.integers(0, 2**31 - 1),
    st.integers(6, 12),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_random_graphs_match_engine(seed, size, depth, with_residual, split):
    graph = build_random_graph(seed, size, depth, with_residual)
    assert_same(graph, halves(graph) if split else None)


def _closed_form_ops(graph, kernel) -> int:
    """One pipeline kernel's per-image cycles from the §IV-B4 model (`kernel_timing`).

    A fork and the host endpoints are no graph node: each takes one op per
    element of the tensor it carries.
    """
    if isinstance(kernel, ForkKernel):
        return graph.specs[kernel.name.removesuffix(".fork")].elements
    if isinstance(kernel, HostSource):
        return graph.input_spec.elements
    if isinstance(kernel, HostSink):
        return graph.output_spec.elements
    return kernel_timing(graph, kernel.name).cycles_per_image


class TestOpPrograms:
    def test_ops_per_image_match_closed_forms(self, tiny_chain_graph, tiny_resnet_graph):
        seen = set()
        families = [FAMILIES[family]() for family in sorted(FAMILIES)]
        for graph in (tiny_chain_graph, tiny_resnet_graph, *families):
            for kernel in _zero_pipeline(graph).engine.kernels:
                seen.add(type(kernel))
                program = kernel.op_program()
                assert program.ops == _closed_form_ops(graph, kernel), (graph.name, kernel.name)
                for table in program.pops + program.pushes:
                    assert np.all(np.diff(table) > 0) and table[-1] < program.ops, kernel.name
        assert seen == {
            HostSource, HostSink, ConvKernel, MaxPoolKernel, ThresholdKernel,
            AddKernel, ForkKernel, GlobalAvgSumKernel,
        }

    def test_solver_needs_writers_before_readers(self, tiny_chain_graph):
        pipeline = _zero_pipeline(tiny_chain_graph)
        pipeline.engine.kernels.reverse()
        with pytest.raises(AssertionError, match="reader ticks before its writer"):
            _solve(pipeline)


def test_deadlocked_geometry_raises_and_caches_nothing():
    """The short arm fills the adder's bounded port 0 while the 3x3 arm still
    needs input: no finite schedule exists, in the engine or the solver."""
    rng = np.random.default_rng(0)
    graph = LayerGraph(name="deadlock")
    graph.add(InputNode("input", 12, 12, 2, 2))
    graph.add(ConvNode("short", _signs(rng, (1, 1, 2, 2))), ["input"])
    graph.add(ConvNode("long", _signs(rng, (3, 3, 2, 2)), pad=1), ["input"])
    graph.add(AddNode("add"), ["short", "long"])
    graph.add(GlobalAvgSumNode("avg"), ["add"])
    pipeline = _zero_pipeline(graph)
    with pytest.raises(CycleBudgetExceeded):
        pipeline.engine.run(lambda: pipeline.sink.done, max_cycles=100_000)
    with pytest.raises(RuntimeError, match="python -m repro check"):
        replay_schedule(graph)
    assert not graph._schedule_cache


# Solver work per committed op: each op recomputed about once per sweep
# that moves it, and windows that commit nearly all they open.
WORK_CEILINGS = {"opened": 1.4, "evaluations": 4.0}


@pytest.mark.parametrize("graph_name", ["tiny_chain_graph", "tiny_resnet_graph"])
def test_solver_work_stays_under_its_ceilings(graph_name, request):
    solution = _solve(_zero_pipeline(request.getfixturevalue(graph_name)))
    ops = sum(node.lo for node in solution.nodes)
    assert ops == sum(node.total for node in solution.nodes)
    assert 1 <= solution.slabs <= 4
    for field, ceiling in WORK_CEILINGS.items():
        assert getattr(solution, field) <= ceiling * ops, field


# ---------------------------------------------------------------------------
# Op tables: one image's table shifted by whole images
# ---------------------------------------------------------------------------


def _per_image_ops(table, n, images):
    """Every op of the run moving one port's elements, built one image at a time."""
    return np.concatenate([np.asarray(table) + image * n for image in range(images)])


def _assert_tables_match(table, n, images, first, stop, base):
    whole = _per_image_ops(table, n, images)
    ops = _Ops(np.asarray(table), n)
    got = ops.of(first, stop, base)
    if isinstance(got, slice):
        got = np.arange(got.start, got.stop)
    assert got.tolist() == (whole[first:stop] - base).tolist()
    assert [ops.op(e) for e in range(first, stop)] == whole[first:stop].tolist()
    for op in range(images * n + 1):
        assert ops.before(op) == int((whole < op).sum())


@pytest.mark.parametrize(
    "table, n, images, first, stop",
    [
        ([3], 5, 10, 2, 9),  # one element per image, across many images
        ([0, 2, 3], 6, 9, 4, 25),  # starts mid-image, crosses many images
        ([1, 4], 5, 3, 1, 4),  # crosses one image boundary
        ([0, 1, 2, 3], 4, 5, 3, 17),  # every op moves one element
        ([2, 5, 7], 9, 4, 7, 8),  # a single element
    ],
)
def test_op_tables_match_the_per_image_construction(table, n, images, first, stop):
    _assert_tables_match(table, n, images, first, stop, 0)
    first_op = int(_per_image_ops(table, n, images)[first])
    _assert_tables_match(table, n, images, first, stop, first_op)


@given(st.integers(1, 30), st.data())
@settings(max_examples=100, deadline=None)
def test_op_tables_match_on_random_spans(n, data):
    table = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    images = data.draw(st.integers(1, 12))
    elements = images * len(table)
    first = data.draw(st.integers(0, elements - 1))
    stop = data.draw(st.integers(first + 1, elements))
    base = data.draw(st.integers(0, first // len(table) * n + table[first % len(table)]))
    _assert_tables_match(table, n, images, first, stop, base)


# ---------------------------------------------------------------------------
# Op times do not depend on the window rule
# ---------------------------------------------------------------------------

# One-op windows, the default widths, and one window over the whole run.
WINDOW_RULES = [(1, 1), (schedule_module._DELTA_START, schedule_module._DELTA_CAP), (_NEVER, _NEVER)]


def _solved_state(pipeline, **kwargs):
    """Every kernel's committed op times, ``lo`` and ``ran``, under each window rule.

    Times past ``lo`` are a window's upper bounds, not part of the solution;
    only whether any of them is finite (the run goes on past the solve)
    must agree.
    """
    states = []
    for start, cap in WINDOW_RULES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schedule_module, "_DELTA_START", start)
            patch.setattr(schedule_module, "_DELTA_CAP", cap)
            solution = _solve(pipeline, **kwargs)
        states.append(
            {
                "nodes": [(node.t[: node.lo].tolist(), node.lo, node.ran) for node in solution.nodes],
                "goes_on": any(node.lo < node.total and node.t[node.lo] < _NEVER for node in solution.nodes),
                "cycles": solution.cycles,
                "aborted": solution.aborted,
            }
        )
    return states


def assert_window_independent(pipeline, **kwargs):
    one_op, default, whole = _solved_state(pipeline, **kwargs)
    assert default == whole
    assert one_op == whole
    return whole


@given(
    st.integers(0, 2**31 - 1),
    st.integers(6, 10),
    st.integers(1, 3),
    st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_random_graphs_solve_alike_under_every_window_rule(seed, size, depth, with_residual):
    graph = build_random_graph(seed, size, depth, with_residual)
    state = assert_window_independent(_zero_pipeline(graph))
    assert not state["aborted"]


def _run_pipeline(images=3, **kwargs):
    """A small residual network (a conv, a pool, two skip adds) streaming ``images`` images."""
    graph = build_random_graph(0, 8, 2, True)
    spec = graph.input_spec
    batch = np.zeros((images, spec.height, spec.width, spec.channels), dtype=np.int64)
    if "skip_sizing" not in kwargs:
        kwargs["skip_sizing"] = solve_skip_capacities(graph)
    return build_pipeline(graph, batch, **kwargs)


class TestWindowRule:
    def test_open_loop_arrivals(self):
        # The second image queues behind the first; the third arrives into a drained pipeline.
        pipeline = _run_pipeline(arrival_cycles=[0, 150, 1_200])
        state = assert_window_independent(pipeline, bounded_skips=True)
        assert not state["aborted"] and state["cycles"] > 1_200

    def test_bounded_skips(self):
        state = assert_window_independent(_run_pipeline(), bounded_skips=True)
        assert not state["aborted"]

    def test_cut_by_the_cycle_budget(self):
        pipeline = _run_pipeline()
        cycles = _solve(pipeline, bounded_skips=True).cycles
        state = assert_window_independent(pipeline, bounded_skips=True, limit=cycles // 2)
        assert state["aborted"] and state["goes_on"] and state["cycles"] == cycles // 2

    def test_deadlocked_geometry(self):
        pipeline = _run_pipeline(skip_sizing={"res.add1": 2, "res.add2": 2})
        state = assert_window_independent(pipeline, bounded_skips=True)
        assert state["aborted"] and not state["goes_on"]
