"""Solved runs against ticked ones: ``simulate``'s schedule path is exact.

An untraced ``simulate(mode="fast")`` or ``mode="leap"`` takes its timing
from the op-recurrence solve and its outputs from the batched functional
pass; it never ticks.  A closed-loop run solves a prefix of its images and
extends it by the certified per-image period.  Here every observable of
such a run must equal the engine's — the exhaustive loop and the park/wake
scheduler driven directly: every ``RunResult`` field, every kernel and
stream counter, the per-image admission, mark and completion instants, each
FIFO's residual occupancy, the latency report, and the ``run_load`` and
fleet JSON.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import build_pipeline, simulate, solve_skip_capacities
from repro.dataflow import schedule as schedule_module
from repro.dataflow.engine import CycleBudgetExceeded, RunResult
from repro.dataflow.manager import StreamingRun
from repro.fleet import FleetConfig, ReplicaSpec, plan_fleet, simulate_fleet
from repro.kernels import ConvKernel
from repro.nn import export_model
from repro.telemetry.latency import latency_report
from repro.telemetry.loadgen import make_schedule, run_load

from .conftest import make_tiny_chain_model, make_tiny_resnet_model
from .test_random_topologies import build_random_graph
from .test_schedule import halves

_BUILD_ARGS = ("use_bitops", "partition", "skip_sizing", "arrival_cycles")


def _chain():
    return export_model(make_tiny_chain_model(), (16, 16, 3), name="tiny-chain")


def _resnet():
    return export_model(make_tiny_resnet_model(), (16, 16, 3), name="tiny-resnet")


def _images(graph, n, seed=0):
    spec = graph.input_spec
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << spec.bits, size=(n, spec.height, spec.width, spec.channels))


def engine_run(graph, images, fast=True, max_cycles=50_000_000, **kwargs) -> StreamingRun:
    """A run of the engine itself, the park/wake scheduler or the exhaustive loop."""
    pipeline = build_pipeline(graph, images, **{k: v for k, v in kwargs.items() if k in _BUILD_ARGS})
    cycles = pipeline.engine.run(lambda: pipeline.sink.done, max_cycles=max_cycles, fast=fast)
    output = pipeline.sink.output_tensor()
    kstats, sstats = pipeline.engine.collect_stats()
    run = RunResult(cycles, pipeline.sink.completion_cycles, output, kstats, sstats, True)
    return StreamingRun(output=output, cycles=cycles, run=run, pipeline=pipeline)


def observables(run: StreamingRun) -> dict:
    """Everything a run leaves behind that a caller can read."""
    pipeline = run.pipeline
    result = run.run
    return {
        "cycles": run.cycles,
        "result": (result.cycles, list(result.completion_cycles), result.converged),
        "latency": result.latency_cycles,
        "interval": result.steady_state_interval,
        "output": run.output.tolist(),
        "kernels": {k: dataclasses.asdict(v) for k, v in result.kernel_stats.items()},
        "streams": {k: dataclasses.asdict(v) for k, v in result.stream_stats.items()},
        "admissions": list(pipeline.source.admission_cycles),
        "marks": {s.name: list(s.mark_cycles) for s in pipeline.engine.streams},
        "residual": {s.name: [ready for _, ready in s._fifo] for s in pipeline.engine.streams},
        "report": latency_report(pipeline, run.cycles).as_dict(),
    }


def assert_schedule_path_exact(graph, images, leap=True, **kwargs):
    """The solved run equals the exhaustive loop and the fast engine, in fast and leap mode."""
    solved = simulate(graph, images, **kwargs)
    assert "_flat" not in vars(solved.pipeline.source), "the schedule path ticked"
    expected = observables(engine_run(graph, images, fast=False, **kwargs))
    assert observables(solved) == expected
    assert observables(engine_run(graph, images, fast=True, **kwargs)) == expected
    if leap:
        leaped = simulate(graph, images, mode="leap", **kwargs)
        assert observables(leaped) == expected
    return solved


@pytest.mark.parametrize("topology", ["chain", "resnet", "multi_dfe"])
def test_closed_loop(topology):
    graph = _chain() if topology == "chain" else _resnet()
    kwargs = {"partition": halves(graph)} if topology == "multi_dfe" else {}
    assert_schedule_path_exact(graph, _images(graph, 8), **kwargs)
    report = simulate(graph, _images(graph, 8), mode="leap", **kwargs).leap_report
    assert report is not None and report.leaps == 1  # the 8 images were extended


@pytest.mark.parametrize("process", ["fixed", "poisson"])
@pytest.mark.parametrize(
    "rate_fps",
    [3_000.0, 1e6],  # idle gaps between images; far beyond capacity (queueing)
)
@pytest.mark.parametrize("topology", ["chain", "resnet"])
def test_open_loop(topology, rate_fps, process):
    graph = _chain() if topology == "chain" else _resnet()
    arrivals = make_schedule(5, rate_fps, process, seed=3).cycles
    solved = assert_schedule_path_exact(graph, _images(graph, 5), arrival_cycles=arrivals)
    stats = solved.run.kernel_stats["host_source"]
    if rate_fps < 1e4:
        assert stats.idle_cycles > stats.active_cycles  # the source waited for arrivals
    else:
        assert stats.output_blocked_cycles > 0  # admission was back-pressured
    leaped = simulate(graph, _images(graph, 5), mode="leap", arrival_cycles=arrivals)
    assert leaped.leap_report is not None and leaped.leap_report.demoted
    assert observables(leaped) == observables(solved)


def test_open_loop_across_two_dfes():
    graph = _resnet()
    arrivals = make_schedule(4, 20_000.0, "poisson", seed=1).cycles
    assert_schedule_path_exact(
        graph, _images(graph, 4), leap=False, partition=halves(graph), arrival_cycles=arrivals
    )


@pytest.mark.parametrize("sizing", ["exact", "bound", "custom"])
def test_skip_sizing(sizing):
    graph = _resnet()
    skip_sizing = sizing
    if sizing == "custom":
        skip_sizing = {add: cap + 7 for add, cap in solve_skip_capacities(graph).items()}
    assert_schedule_path_exact(graph, _images(graph, 5), skip_sizing=skip_sizing)


def test_post_drain_ops_are_active_cycles():
    """After its last image a padded conv feeds the next image's leading pad pixels."""
    graph = _resnet()
    images = _images(graph, 3)
    solved = assert_schedule_path_exact(graph, images, leap=False)
    extra = {}
    for kernel in solved.pipeline.engine.kernels:
        if isinstance(kernel, ConvKernel) and kernel.pad:
            ops = kernel.op_program().ops * len(images)
            extra[kernel.name] = solved.run.kernel_stats[kernel.name].active_cycles - ops
    assert extra and all(count > 0 for count in extra.values()), extra


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(6, 12),
    depth=st.integers(1, 4),
    with_residual=st.booleans(),
    split=st.booleans(),
    rate=st.sampled_from([None, 1e4, 1e5, 1e7]),
)
def test_random_topologies(seed, size, depth, with_residual, split, rate):
    graph = build_random_graph(seed, size, depth, with_residual)
    images = _images(graph, 4, seed)
    kwargs = {}
    if split:
        kwargs["partition"] = halves(graph)
    if rate is not None:
        kwargs["arrival_cycles"] = make_schedule(4, rate, "poisson", seed=seed).cycles
    assert_schedule_path_exact(graph, images, leap=False, **kwargs)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(6, 12),
    depth=st.integers(1, 4),
    with_residual=st.booleans(),
    split=st.booleans(),
    n=st.integers(8, 12),
)
def test_random_topologies_extended(seed, size, depth, with_residual, split, n):
    """Closed-loop runs long enough to extend a solved prefix, on random networks."""
    graph = build_random_graph(seed, size, depth, with_residual)
    kwargs = {"partition": halves(graph)} if split else {}
    assert_schedule_path_exact(graph, _images(graph, n, seed), **kwargs)


def _last_layer_alone(graph):
    """Two DFEs, the second holding only the final layer."""
    nodes = [name for name in graph.order if name != graph.input_name]
    return [nodes[:-1], nodes[-1:]]


def test_extension_past_a_crossing_longer_than_an_image():
    """A MaxRing FIFO (2 * 16 + 4 = 36 slots) holds several images of a small tensor.

    Its slot rule reaches that many images back, so the period must be
    certified over more than the first prefix of images before the run
    is extended.
    """
    graph = build_random_graph(4, 8, 2, False)  # a 4-element tensor crosses
    partition = _last_layer_alone(graph)
    crossing = graph.specs[partition[0][-1]].elements
    assert -(-36 // crossing) > 1  # the slot rule reaches more than one image back
    images = _images(graph, 20)
    solved = assert_schedule_path_exact(graph, images, partition=partition)
    assert max(s.capacity for s in solved.pipeline.engine.streams) == 36
    report = simulate(graph, images, mode="leap", partition=partition).leap_report
    assert report is not None and report.leaps == 1
    assert report.windows < len(images) - schedule_module.REPLAY_IMAGES  # a longer prefix


def test_extended_run_solves_only_its_prefix(monkeypatch):
    allocated = []

    class Recording(schedule_module._Node):
        __slots__ = ()

        def __init__(self, n, images):
            allocated.append(images)
            super().__init__(n, images)

    monkeypatch.setattr(schedule_module, "_Node", Recording)
    graph = _resnet()
    run = simulate(graph, _images(graph, 12), mode="leap")
    assert "_flat" not in vars(run.pipeline.source), "the extended run ticked"
    assert run.leap_report is not None and run.leap_report.leaps == 1
    assert allocated and max(allocated) == schedule_module.REPLAY_IMAGES


def test_budget_boundary_on_the_extended_path():
    """The budget check reads the extended cycle count, not the prefix's."""
    graph = _chain()
    images = _images(graph, 10)
    run = simulate(graph, images, mode="leap")
    assert run.leap_report is not None and run.leap_report.leaps == 1
    with pytest.raises(CycleBudgetExceeded) as info:
        simulate(graph, images, mode="leap", max_cycles=run.cycles)
    with pytest.raises(CycleBudgetExceeded) as oracle:
        simulate(graph, images, mode="exhaustive", max_cycles=run.cycles)
    assert str(info.value) == str(oracle.value)
    assert info.value.pipeline is not None
    within = simulate(graph, images, mode="leap", max_cycles=run.cycles + 1)
    assert within.leap_report is not None and within.leap_report.leaps == 1
    assert "_flat" not in vars(within.pipeline.source)
    assert observables(within) == observables(run)


def _engine_only(monkeypatch):
    """Make ``simulate`` tick every run, as it did before it could solve one."""
    monkeypatch.setattr(schedule_module, "solve_run", lambda pipeline, max_cycles: None)


@pytest.mark.parametrize("rate_fps", [3_000.0, 1e6])
def test_run_load_json(monkeypatch, rate_fps):
    graph = _chain()
    images = _images(graph, 5)
    solved = run_load(graph, images, rate_fps=rate_fps, process="poisson", seed=2)
    _engine_only(monkeypatch)
    ticked = run_load(graph, images, rate_fps=rate_fps, process="poisson", seed=2)
    assert json.dumps(solved.as_dict()) == json.dumps(ticked.as_dict())


def test_fleet_json(monkeypatch):
    config = FleetConfig(
        replicas=[ReplicaSpec("vgg", 16, width=0.0625), ReplicaSpec("resnet18", 16, width=0.0625)],
        rate_fps=30_000.0,
        n_requests=10,
        policy="jsq",
        workers=0,
    )
    plan = plan_fleet(config)
    solved = simulate_fleet(config, plan)
    _engine_only(monkeypatch)
    ticked = simulate_fleet(config, plan)
    assert json.dumps(solved.as_dict()) == json.dumps(ticked.as_dict())


class TestFallback:
    def test_budget_abort_ticks_and_leaves_the_engines_partial_pipeline(self):
        graph = _chain()
        images = _images(graph, 3)
        budget = simulate(graph, images).cycles - 50
        with pytest.raises(CycleBudgetExceeded, match=f"no convergence after {budget}") as info:
            simulate(graph, images, max_cycles=budget)
        with pytest.raises(CycleBudgetExceeded) as oracle:
            simulate(graph, images, mode="exhaustive", max_cycles=budget)
        partial, expected = info.value.pipeline, oracle.value.pipeline
        assert partial is not None and expected is not None
        assert partial.sink.completion_cycles == expected.sink.completion_cycles
        got, want = partial.engine.collect_stats(), expected.engine.collect_stats()
        assert [dataclasses.asdict(s) for s in got[0].values()] == [
            dataclasses.asdict(s) for s in want[0].values()
        ]

    def test_budget_exactly_at_the_run_length_aborts(self):
        graph = _chain()
        images = _images(graph, 2)
        cycles = simulate(graph, images).cycles
        with pytest.raises(CycleBudgetExceeded):
            simulate(graph, images, max_cycles=cycles)
        assert simulate(graph, images, max_cycles=cycles + 1).cycles == cycles

    def test_deadlock_ticks_into_the_same_abort(self):
        graph = _resnet()
        caps = {add: 2 for add in solve_skip_capacities(graph)}
        with pytest.raises(CycleBudgetExceeded, match="no convergence after 20000") as info:
            simulate(graph, _images(graph, 2), skip_sizing=caps, max_cycles=20_000)
        assert info.value.pipeline is not None
        assert "_flat" in vars(info.value.pipeline.source)  # the engine ran it

    def test_undeclared_stall_order_ticks(self, monkeypatch):
        graph = _chain()
        images = _images(graph, 3)
        expected = observables(simulate(graph, images))
        monkeypatch.setattr(ConvKernel, "stall_order", ())
        ticked = simulate(graph, images)
        assert "_flat" in vars(ticked.pipeline.source)
        assert observables(ticked) == expected

    def test_no_images_runs_on_the_engine(self):
        graph = _chain()
        run = simulate(graph, _images(graph, 0))
        assert run.cycles == 0 and run.output.shape[0] == 0
        assert run.run.completion_cycles == []

    @pytest.mark.parametrize("hook", ["trace", "telemetry", "use_bitops"])
    def test_hooks_keep_the_engine(self, hook):
        from repro.dataflow.trace import Tracer
        from repro.telemetry import Telemetry

        graph = _chain()
        images = _images(graph, 2)
        value = {"trace": Tracer(), "telemetry": Telemetry(), "use_bitops": True}[hook]
        ticked = simulate(graph, images, **{hook: value})
        assert "_flat" in vars(ticked.pipeline.source)
        assert observables(ticked) == observables(simulate(graph, images))
