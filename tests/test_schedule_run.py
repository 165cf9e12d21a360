"""Solved runs against ticked ones: ``simulate``'s schedule path is exact.

A solved ``simulate`` run (``mode="leap"``, the default) takes its timing from
the op-recurrence solve and its outputs from the batched functional pass;
it never ticks.  A closed-loop run without a tracer or telemetry solves a
prefix of its images and extends it by the certified per-image period.
Here every observable of such a run must equal the engine's reference loop
driven directly: every ``RunResult`` field, every kernel and stream
counter, the per-image admission, mark and completion instants, each
FIFO's residual occupancy, the latency report, the event trace, the state
a budget abort leaves behind, and the ``run_load`` and fleet JSON.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import build_pipeline, simulate, solve_skip_capacities
from repro.dataflow import schedule as schedule_module
from repro.dataflow.engine import CycleBudgetExceeded, Engine, RunResult
from repro.dataflow.kernel import STALL_BLOCKED, STALL_STARVED, Kernel, OpProgram
from repro.dataflow.leap import LeapReport
from repro.dataflow.manager import Pipeline, StreamingRun
from repro.dataflow.stream import Stream
from repro.dataflow.trace import Tracer
from repro.fleet import FleetConfig, ReplicaSpec, plan_fleet, simulate_fleet
from repro.kernels import AddKernel, ConvKernel, ForkKernel, HostSink, HostSource
from repro.nn import export_model
from repro.nn.graph import TensorSpec
from repro.telemetry import Telemetry
from repro.telemetry.latency import latency_report
from repro.telemetry.loadgen import make_schedule, run_load

from .conftest import inject_maxpool_fault, make_tiny_chain_model, make_tiny_resnet_model, record_trace
from .test_random_topologies import build_random_graph
from .test_schedule import halves

_BUILD_ARGS = ("partition", "skip_sizing", "arrival_cycles")


def _chain():
    return export_model(make_tiny_chain_model(), (16, 16, 3), name="tiny-chain")


def _resnet():
    return export_model(make_tiny_resnet_model(), (16, 16, 3), name="tiny-resnet")


def _images(graph, n, seed=0):
    spec = graph.input_spec
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << spec.bits, size=(n, spec.height, spec.width, spec.channels))


def engine_run(graph, images, max_cycles=50_000_000, trace=None, **kwargs) -> StreamingRun:
    """A run of the engine itself: the reference loop, ticking every kernel every cycle.

    A ``trace`` records the loop's event log (:func:`tests.conftest.record_trace`).
    """
    pipeline = build_pipeline(graph, images, **{k: v for k, v in kwargs.items() if k in _BUILD_ARGS})
    if trace is None:
        cycles = pipeline.engine.run(lambda: pipeline.sink.done, max_cycles=max_cycles)
    else:
        cycles = record_trace(pipeline.engine, lambda: pipeline.sink.done, max_cycles, trace)
    output = pipeline.sink.output_tensor()
    kstats, sstats = pipeline.engine.collect_stats()
    run = RunResult(cycles, pipeline.sink.completion_cycles, output, kstats, sstats, True)
    report = LeapReport(demoted=True, reason="mode='exhaustive'")
    return StreamingRun(output=output, cycles=cycles, run=run, pipeline=pipeline, leap_report=report)


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


def assert_schedule_path_exact(graph, images, traced=False, **kwargs):
    """The solved run equals the engine's reference loop.

    ``traced`` also holds a solved traced run's event log equal to the
    one recorded off the reference loop.
    """
    solved = simulate(graph, images, **kwargs)
    assert "_flat" not in vars(solved.pipeline.source), "the schedule path ticked"
    oracle_trace = Tracer() if traced else None
    expected = observables(engine_run(graph, images, trace=oracle_trace, **kwargs))
    assert observables(solved) == expected
    if traced:
        tracer = Tracer()
        simulate(graph, images, trace=tracer, **kwargs)
        assert tracer.state() == oracle_trace.state()
    return solved


@pytest.mark.parametrize("topology", ["chain", "resnet", "multi_dfe"])
def test_closed_loop(topology):
    graph = _chain() if topology == "chain" else _resnet()
    kwargs = {"partition": halves(graph)} if topology == "multi_dfe" else {}
    report = assert_schedule_path_exact(graph, _images(graph, 8), **kwargs).leap_report
    assert report.leaps == 1  # the 8 images were extended


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
    assert solved.leap_report.demoted and "open-loop" in solved.leap_report.reason


def test_open_loop_across_two_dfes():
    graph = _resnet()
    arrivals = make_schedule(4, 20_000.0, "poisson", seed=1).cycles
    assert_schedule_path_exact(
        graph, _images(graph, 4), partition=halves(graph), arrival_cycles=arrivals
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
    solved = assert_schedule_path_exact(graph, images)
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
    assert_schedule_path_exact(graph, images, **kwargs)


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
    assert_schedule_path_exact(graph, _images(graph, n, seed), traced=True, **kwargs)


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
    report = solved.leap_report
    assert report.leaps == 1
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
    assert run.leap_report.leaps == 1
    assert allocated and max(allocated) == schedule_module.REPLAY_IMAGES


def test_budget_boundary_on_the_extended_path():
    """The budget check reads the extended cycle count, not the prefix's."""
    graph = _chain()
    images = _images(graph, 10)
    run = simulate(graph, images, mode="leap")
    assert run.leap_report.leaps == 1
    with pytest.raises(CycleBudgetExceeded) as info:
        simulate(graph, images, mode="leap", max_cycles=run.cycles)
    with pytest.raises(CycleBudgetExceeded) as oracle:
        simulate(graph, images, mode="exhaustive", max_cycles=run.cycles)
    assert str(info.value) == str(oracle.value)
    assert info.value.pipeline is not None
    within = simulate(graph, images, mode="leap", max_cycles=run.cycles + 1)
    assert within.leap_report.leaps == 1
    assert "_flat" not in vars(within.pipeline.source)
    assert observables(within) == observables(run)


def _engine_only(monkeypatch):
    """Make ``simulate`` tick every run, as it did before it could solve one."""
    ticked = LeapReport(demoted=True, reason="ticked by the test")
    monkeypatch.setattr(schedule_module, "solve_run", lambda pipeline, max_cycles, trace, telemetry: ticked)


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
    def test_budget_abort_leaves_the_engines_partial_pipeline(self):
        """A solved run over budget leaves the partial pipeline the reference loop ticks into."""
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

    @pytest.mark.parametrize("hook", ["trace", "telemetry"])
    def test_hooks_keep_the_solved_run(self, hook):
        """A hook keeps every observable of the plain run, and the run stays solved."""
        graph = _chain()
        images = _images(graph, 2)
        value = {"trace": Tracer(), "telemetry": Telemetry()}[hook]
        run = simulate(graph, images, **{hook: value})
        assert "_flat" not in vars(run.pipeline.source), "the engine ticked"
        assert observables(run) == observables(simulate(graph, images))


def test_only_exhaustive_runs_tick(monkeypatch):
    """Traced, telemetered, deadlocked and over-budget runs are solved, never ticked."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("the engine ticked")

    monkeypatch.setattr(Engine, "run", refuse)
    graph = _chain()
    images = _images(graph, 3)
    simulate(graph, images, trace=Tracer())
    telemetry = Telemetry(sample_every=97)
    simulate(graph, images, telemetry=telemetry)
    assert telemetry.finished
    with pytest.raises(CycleBudgetExceeded):
        simulate(graph, images, max_cycles=100)
    telemetry = Telemetry(sample_every=40)
    with pytest.raises(CycleBudgetExceeded):
        simulate(graph, images, max_cycles=100, telemetry=telemetry)
    assert telemetry.last["cycle"] == 80 and not telemetry.finished
    resnet = _resnet()
    caps = {add: 2 for add in solve_skip_capacities(resnet)}
    for telemetry in (None, Telemetry()):
        with pytest.raises(CycleBudgetExceeded):
            simulate(resnet, _images(resnet, 2), skip_sizing=caps, max_cycles=20_000, telemetry=telemetry)
    with pytest.raises(AssertionError, match="the engine ticked"):
        simulate(graph, images, mode="exhaustive")


def test_deadlock_past_the_solver_horizon():
    """A deadlock's abort state is known at any budget: only the final stalls grow.

    Two reference-loop budgets give every counter's growth per cycle; the
    solve at a budget far past ``REPLAY_MAX_CYCLES`` must continue it.
    """
    graph = _resnet()
    caps = {add: 2 for add in solve_skip_capacities(graph)}
    images = _images(graph, 2)

    def kernel_stats(mode, budget):
        with pytest.raises(CycleBudgetExceeded, match=f"no convergence after {budget} ") as info:
            simulate(graph, images, skip_sizing=caps, max_cycles=budget, mode=mode)
        stats = info.value.pipeline.engine.collect_stats()[0]
        return {name: dataclasses.asdict(s) for name, s in stats.items()}

    early, late = kernel_stats("exhaustive", 20_000), kernel_stats("exhaustive", 30_000)
    budget = 10 * schedule_module.REPLAY_MAX_CYCLES
    far = kernel_stats("leap", budget)
    for name, counters in early.items():
        for field, value in counters.items():
            if value is not None:  # a never-active kernel has no first/last cycle
                value += (late[name][field] - value) // 10_000 * (budget - 20_000)
            assert far[name][field] == value, (name, field)


def _abort_case(case):
    """A run that aborts, its budget, and the arguments that make it abort."""
    if case == "deadlock":
        graph = _resnet()  # the undersized skip FIFO wedges the fork
        caps = {add: 2 for add in solve_skip_capacities(graph)}
        return graph, _images(graph, 2), 6_000, {"skip_sizing": caps}
    graph = _chain()
    if case == "closed_loop":
        images = _images(graph, 6)
        run = simulate(graph, images, mode="leap")
        assert run.leap_report.leaps == 1  # long enough to extend
        return graph, images, run.cycles - 10, {}
    images = _images(graph, 3)
    kwargs = {"arrival_cycles": make_schedule(3, 20_000.0, "poisson", seed=5).cycles}
    run = simulate(graph, images, **kwargs)
    return graph, images, (run.run.completion_cycles[0] + run.cycles) // 2, kwargs


def _abort_state(mode, graph, images, budget, traced, **kwargs):
    """Everything an aborted run leaves on its pipeline and tracer."""
    tracer = Tracer() if traced else None
    with pytest.raises(CycleBudgetExceeded) as info:
        simulate(graph, images, mode=mode, max_cycles=budget, trace=tracer, **kwargs)
    pipeline = info.value.pipeline
    assert pipeline is not None
    kernels, streams = pipeline.engine.collect_stats()
    return {
        "message": str(info.value),
        "kernels": {name: dataclasses.asdict(stats) for name, stats in kernels.items()},
        "streams": {name: dataclasses.asdict(stats) for name, stats in streams.items()},
        "residual": {s.name: [ready for _, ready in s._fifo] for s in pipeline.engine.streams},
        "marks": {s.name: list(s.mark_cycles) for s in pipeline.engine.streams},
        "admissions": list(pipeline.source.admission_cycles),
        "completions": list(pipeline.sink.completion_cycles),
        "trace": tracer.state() if tracer is not None else None,
        "ticked": "_flat" in vars(pipeline.source),
    }


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("case", ["deadlock", "closed_loop", "open_loop"])
def test_solved_abort_matches_the_engine(case, traced):
    """Fault injection: a solved abort leaves exactly the reference loop's state."""
    graph, images, budget, kwargs = _abort_case(case)
    expected = _abort_state("exhaustive", graph, images, budget, traced, **kwargs)
    solved = _abort_state("leap", graph, images, budget, traced, **kwargs)
    assert expected.pop("ticked") and not solved.pop("ticked")
    assert solved == expected
    assert f"no convergence after {budget} cycles" in solved["message"]
    if traced:
        assert solved["trace"]["total_cycles"] is None  # an aborted trace stays unsealed
        recorded = Tracer()
        with pytest.raises(CycleBudgetExceeded):
            engine_run(graph, images, max_cycles=budget, trace=recorded, **kwargs)
        assert solved["trace"] == recorded.state()


def test_declined_traced_runs_raise(monkeypatch):
    """A run the solver declines cannot be traced: it raises naming the reason, in every mode."""
    from repro.kernels.pooling import MaxPoolKernel

    graph = _chain()
    images = _images(graph, 2)
    monkeypatch.setattr(MaxPoolKernel, "op_program", Kernel.op_program)
    report = simulate(graph, images).leap_report  # untraced, the engine ticks it
    assert report.demoted and report.cycles is None and "op program" in report.reason
    for mode in ("leap", "exhaustive"):
        tracer = Tracer()
        with pytest.raises(ValueError, match="declines this run: .*op program"):
            simulate(graph, images, mode=mode, trace=tracer)
        assert tracer.event_count() == 0 and tracer.total_cycles is None


def test_failed_exhaustive_traced_run_writes_no_trace(monkeypatch):
    """Only a run that ends or hits its budget is traced; any other fault leaves the log empty."""
    graph = _chain()

    def fault(*args, **kwargs):
        raise RuntimeError("injected engine fault")

    monkeypatch.setattr(Engine, "run", fault)
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="injected engine fault"):
        simulate(graph, _images(graph, 2), mode="exhaustive", trace=tracer)
    assert tracer.event_count() == 0 and tracer.total_cycles is None
    monkeypatch.undo()
    inject_maxpool_fault(monkeypatch)
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="injected max-pool fault"):
        simulate(graph, _images(graph, 2), mode="exhaustive", trace=tracer)
    assert tracer.event_count() == 0 and tracer.total_cycles is None


def test_reused_tracer_raises_before_anything_runs(monkeypatch):
    graph = _chain()
    images = _images(graph, 1)
    tracer = Tracer()
    simulate(graph, images, trace=tracer)

    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(Engine, "run", refuse)
    monkeypatch.setattr(schedule_module, "_solve", refuse)
    for mode in ("leap", "exhaustive"):
        with pytest.raises(ValueError, match="single-use"):
            simulate(graph, images, mode=mode, trace=tracer)



class _Lag(Kernel):
    """Pops element ``j`` and pushes element ``j - 1`` in the same op; one more op flushes."""

    stall_order = (STALL_STARVED, STALL_BLOCKED)

    def __init__(self, name, per_image):
        super().__init__(name)
        self._n = per_image
        self._op = 0
        self._held = deque()

    def op_program(self):
        n = self._n
        return OpProgram(ops=n + 1, pops=(np.arange(n),), pushes=(np.arange(1, n + 1),))

    def tick(self, cycle):
        local = self._op % (self._n + 1)
        pops, pushes = local < self._n, local > 0
        inp, out = self.inputs[0], self.outputs[0]
        if pops and not inp.can_pop(cycle):
            return self._starved(cycle)
        if pushes and not out.can_push():
            return self._blocked(cycle)
        if pops:
            self._held.append(inp.pop(cycle))
            self.stats.elements_in += 1
        if pushes:
            out.push(self._held.popleft(), cycle)
            self.stats.elements_out += 1
        self._op += 1
        self.stats.mark_active(cycle)
        return None


def _lagged_residual(skip_capacity):
    """A fork whose skip arm meets, at the adder, a main arm lagging one element behind.

    With a one-slot skip FIFO the fork's op ``e`` waits for the adder's op
    ``e - 1``, which waits for the lag's op ``e``, which waits for the fork's
    op ``e``: a dependency cycle within one op per kernel.
    """
    spec = TensorSpec(2, 2, 1, "levels", 2)
    images = np.arange(12).reshape(3, 2, 2, 1) % 4
    engine = Engine("lagged")
    source = HostSource("host_source", images, spec)
    fork, lag, add = ForkKernel("fork", 4), _Lag("lag", 4), AddKernel("add", 4)
    sink = HostSink("host_sink", spec, 3)
    for kernel in (source, fork, lag, add, sink):
        engine.add_kernel(kernel)
    engine.connect(source, fork, Stream("in"))
    engine.connect(fork, lag, Stream("main"))
    skip = engine.connect(fork, add, Stream("skip", capacity=skip_capacity))
    engine.connect(lag, add, Stream("lagged"))
    engine.connect(add, sink, Stream("out"))
    graph = SimpleNamespace(input_spec=spec, output_spec=spec)
    return Pipeline(engine, graph, source, sink, {}, {"add": skip}, [], {})


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("skip_capacity", [1, 2])
def test_dependency_cycle_never_runs(skip_capacity, traced):
    """Ops on a dependency cycle never run: the solve aborts as the reference loop does."""
    ticked, solved = _lagged_residual(skip_capacity), _lagged_residual(skip_capacity)
    t_ticked, t_solved = (Tracer(), Tracer()) if traced else (None, None)
    if traced:
        t_solved.attach(solved.engine)

    def tick():
        if traced:
            return record_trace(ticked.engine, lambda: ticked.sink.done, 300, t_ticked)
        return ticked.engine.run(lambda: ticked.sink.done, max_cycles=300)

    outcomes = []
    for run in (tick, lambda: schedule_module.solve_run(solved, 300, t_solved).cycles):
        try:
            outcomes.append(run())
        except CycleBudgetExceeded as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], str) == (skip_capacity == 1)  # one slot deadlocks
    for got, want in zip(solved.engine.collect_stats(), ticked.engine.collect_stats()):
        assert [dataclasses.asdict(s) for s in got.values()] == [
            dataclasses.asdict(s) for s in want.values()
        ]
    assert [[r for _, r in s._fifo] for s in solved.engine.streams] == [
        [r for _, r in s._fifo] for s in ticked.engine.streams
    ]
    if traced:
        assert t_solved.state() == t_ticked.state()
