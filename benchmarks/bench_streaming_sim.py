"""Cycle-simulator benchmarks: end-to-end streaming inference throughput.

Times the cycle-accurate simulation itself (simulated-cycles per wall
second) on the tiny networks used across the test suite plus a paper-scale
CIFAR-10 VGG case, and records the architectural quantities the paper cares
about: latency, steady-state interval, and pipeline overlap.  Every case
with a recorded rate in ``_RECORDED_RATES`` is guarded against regressing
below a fraction of it (:func:`rate_floor`).  The repo-wide benchmark with
fresh processes, medians and quartiles is ``bench/run.py``; these floors
are the in-process sanity check beside it.

The leap case is the scheduler-acceptance anchor: ``mode="leap"`` on the
VGG batch must sustain ≥1e6 simulated cycles per wall second.  The true
224×224 AlexNet / ResNet-18 cases run only with ``REPRO_BENCH_PAPER=1``:
even extended from a solved prefix, their op-recurrence solve and batched
output pass cost seconds to a minute of wall time at that scale, too slow
for a default bench sweep.  A case with no recorded rate runs unguarded,
says so in a warning and records ``extra_info["rate_floor"] = "unrecorded"``.
"""

import json
import os
import statistics
import time
import warnings

import numpy as np
import pytest

from repro.dataflow import Tracer, build_pipeline, simulate
from repro.models import (
    build_vgg_like,
    direct_alexnet_graph,
    direct_resnet18_graph,
    randomize_batchnorm,
)
from repro.nn import input_to_levels
from repro.nn.export import export_model
from tests.conftest import make_tiny_chain_model, make_tiny_resnet_model


# Simulated cycles/s per case, frozen from the last recordings of the
# retired per-session trajectory: 6b78deb (2026-08-09) for every case but
# alexnet224_leap (d686a70, the same day) and tiny_chain_plan (83f7a15).
# resnet18_224_leap was never recorded, so it runs unguarded.
_RECORDED_RATES = {
    "tiny_chain": 125734.8,
    "tiny_chain_telemetry": 122929.0,
    "tiny_chain_loadgen": 127417.0,
    "tiny_chain_traced": 79300.2,
    "tiny_chain_plan": 177684.1,
    "tiny_resnet": 58316.1,
    "vgg32_dense": 194846.4,
    "vgg32_leap": 3802926.8,
    "alexnet224_leap": 256602.2,
}


def rate_floor():
    """Fraction of a baseline rate a run must keep: 0.95 with REPRO_BENCH_STRICT=1, else 0.60."""
    return 0.95 if os.environ.get("REPRO_BENCH_STRICT") else 0.60


def _note_throughput(benchmark, sr, **extra):
    """Record cycles/sec + interval (and any ``extra``) into extra_info."""
    seconds = benchmark.stats.stats.min
    benchmark.extra_info["latency_cycles"] = sr.latency_cycles
    # The interval needs two completed images; single-image cases record None.
    benchmark.extra_info["steady_state_interval"] = sr.steady_state_interval
    benchmark.extra_info["simulated_cycles"] = sr.cycles
    benchmark.extra_info["simulated_cycles_per_second"] = round(sr.cycles / seconds, 1)
    benchmark.extra_info.update(extra)
    return sr.cycles / seconds


def _guard_regression(case, cycles_per_second, extra_info=None):
    """Assert ``case`` did not regress against its recorded rate.

    The tracing hooks must cost (almost) nothing when tracing is off — the
    untraced hot path only pays a None check.  With ``REPRO_BENCH_STRICT=1``
    (quiet dedicated machine) the bound is 5%; by default a loose 40%
    sanity bound keeps the guard meaningful on noisy shared CI runners
    without flaking.  A case with no recorded rate is not guarded: it warns
    and, given the benchmark's ``extra_info``, marks its ``rate_floor``
    ``"unrecorded"``.
    """
    baseline = _RECORDED_RATES.get(case)
    if baseline is None:
        if extra_info is not None:
            extra_info["rate_floor"] = "unrecorded"
        warnings.warn(f"{case}: no recorded rate, so no rate floor guards it", stacklevel=2)
        return
    floor = rate_floor()
    assert cycles_per_second >= baseline * floor, (
        f"{case}: simulated cycles/s {cycles_per_second:,.1f} is below {floor:.0%} of the "
        f"recorded {baseline:,.1f} ({cycles_per_second / baseline:.1%} retained) "
        "— untraced path regressed"
    )


def _tiny_chain_case():
    model = make_tiny_chain_model()
    graph = export_model(model, (16, 16, 3), name="tiny-chain")
    rng = np.random.default_rng(0)
    levels = input_to_levels(rng.uniform(0, 1, (2, 16, 16, 3)), model.layers[0].quantizer)
    return graph, levels


# Same-session rates, so the overhead guards compare against the plain
# solved run measured on this very machine, not recorded rates.
_session_rates = {}


def test_streaming_chain_simulation(benchmark):
    graph, levels = _tiny_chain_case()

    sr = benchmark(simulate, graph, levels)
    rate = _note_throughput(benchmark, sr)
    assert sr.cycles > 0
    _session_rates["tiny_chain"] = rate
    _guard_regression("tiny_chain", rate, benchmark.extra_info)


def test_streaming_chain_engine(benchmark):
    """The reference loop's rate: build the pipeline and tick every kernel every cycle.

    ``simulate`` solves its schedule instead (telemetry and traces
    included); this loop runs only for ``mode="exhaustive"`` and for
    pipelines the solver cannot read, and is the oracle the solve is
    tested against.  It has no recorded rate: the case reports what the
    reference loop costs next to the solved ``tiny_chain``.
    """
    graph, levels = _tiny_chain_case()

    def _engine_run():
        pipeline = build_pipeline(graph, levels)
        return pipeline.engine.run(lambda: pipeline.sink.done)

    cycles = benchmark(_engine_run)
    rate = cycles / benchmark.stats.stats.min
    benchmark.extra_info["simulated_cycles"] = cycles
    benchmark.extra_info["simulated_cycles_per_second"] = round(rate, 1)


# Plain and telemetered runs the telemetry overhead floor times in pairs.
_OVERHEAD_ROUNDS = 21


def test_streaming_chain_simulation_telemetry(benchmark):
    """Telemetry sampling on: the enabled overhead must stay within 5%.

    A telemetered run is solved whole like the plain one, and its samples
    are derived from the op times in one vectorized pass after the solve,
    so it should track the solved ``tiny_chain`` run closely (the bound:
    ≤5% overhead enabled, 0% when disabled — the disabled side is the
    plain case's recorded-rate guard).  The two are timed in interleaved
    rounds, so a shared host's drifting load slows both alike, and their
    medians are compared.  Strict mode enforces the 5%; the default bound
    absorbs shared-runner noise.
    """
    from repro.telemetry import Telemetry

    graph, levels = _tiny_chain_case()

    sr = benchmark(lambda: simulate(graph, levels, telemetry=Telemetry()))
    rate = _note_throughput(benchmark, sr)
    assert sr.cycles > 0
    plain: list[float] = []
    telemetered: list[float] = []
    for _ in range(_OVERHEAD_ROUNDS):
        for seconds, telemetry in ((plain, None), (telemetered, Telemetry())):
            start = time.perf_counter()
            simulate(graph, levels, telemetry=telemetry)
            seconds.append(time.perf_counter() - start)
    retained = statistics.median(plain) / statistics.median(telemetered)
    benchmark.extra_info["telemetry_rate_retained"] = round(retained, 3)
    floor = rate_floor()
    assert retained >= floor, (
        f"telemetry overhead too high: the telemetered run keeps {retained:.0%} of the plain "
        f"solved rate, median of {_OVERHEAD_ROUNDS} interleaved rounds (floor {floor:.0%})"
    )
    _guard_regression("tiny_chain_telemetry", rate, benchmark.extra_info)


def test_streaming_chain_loadgen(benchmark):
    """Open-loop load generation: the lifecycle instrumentation's cost.

    Admission stamping, image-boundary stream marks, and the source's
    arrival check ride the hot path of every run; this case bounds their
    cost against the closed-loop rate measured this session (same floors
    as the telemetry guard: 5% strict, 40% on shared runners).  The
    offered rate is far above capacity so the source never long-idles —
    the run exercises the instrumentation, not the scheduler's skip.
    """
    from repro.telemetry.loadgen import run_load

    graph, levels = _tiny_chain_case()

    result = benchmark(lambda: run_load(graph, levels, rate_fps=1e7))
    seconds = benchmark.stats.stats.min
    assert not result.aborted and result.report.n_images == 2
    p99 = result.report.service.p99
    benchmark.extra_info["p99_service_cycles"] = p99
    benchmark.extra_info["simulated_cycles"] = result.cycles
    rate = result.cycles / seconds
    benchmark.extra_info["simulated_cycles_per_second"] = round(rate, 1)
    baseline = _session_rates.get("tiny_chain")
    if baseline:
        floor = rate_floor()
        assert rate >= baseline * floor, (
            f"loadgen overhead too high: {rate:,.0f} vs {baseline:,.0f} "
            f"closed-loop simulated cycles/s (floor {floor:.0%})"
        )
    _guard_regression("tiny_chain_loadgen", rate, benchmark.extra_info)


def test_streaming_chain_simulation_traced(benchmark):
    """Full event tracing on: bounds the cost of recording every event."""
    graph, levels = _tiny_chain_case()

    sr = benchmark(lambda: simulate(graph, levels, trace=Tracer()))
    rate = _note_throughput(benchmark, sr)
    assert sr.cycles > 0
    _guard_regression("tiny_chain_traced", rate, benchmark.extra_info)


def test_streaming_residual_simulation(benchmark):
    model = make_tiny_resnet_model()
    graph = export_model(model, (16, 16, 3), name="tiny-resnet")
    rng = np.random.default_rng(1)
    levels = input_to_levels(rng.uniform(0, 1, (2, 16, 16, 3)), model.layers[0].quantizer)

    sr = benchmark(simulate, graph, levels)
    rate = _note_throughput(benchmark, sr)
    assert sr.cycles > 0
    _guard_regression("tiny_resnet", rate, benchmark.extra_info)


def _vgg_paper_scale(n_images=1):
    """A 32x32 CIFAR-10 VGG slice at quarter width — the paper-scale case."""
    model = build_vgg_like(input_size=32, width=0.25, classes=10, seed=11)
    randomize_batchnorm(model, np.random.default_rng(11))
    graph = export_model(model, (32, 32, 3), name="vgg-paper-scale")
    rng = np.random.default_rng(7)
    levels = input_to_levels(
        rng.uniform(0, 1, (n_images, 32, 32, 3)), model.layers[0].quantizer
    )
    return graph, levels


def test_streaming_vgg_paper_scale(benchmark):
    graph, levels = _vgg_paper_scale()

    sr = benchmark(simulate, graph, levels)
    rate = _note_throughput(benchmark, sr)
    assert sr.cycles > 0
    _guard_regression("vgg32_dense", rate, benchmark.extra_info)


def test_streaming_vgg_leap(benchmark):
    """Leap mode's acceptance anchor: ≥1e6 simulated cycles/s.

    256 images through the VGG slice: the op-recurrence solve certifies the
    per-image period on a 4-image prefix and extends it over the other 252,
    so the wall clock is the prefix solve plus the batched GEMM output
    pass.  One round only — the rate floor (not timer variance) is what
    this case exists to enforce.
    """
    graph, levels = _vgg_paper_scale(n_images=256)

    sr = benchmark.pedantic(
        lambda: simulate(graph, levels, mode="leap"), rounds=1, iterations=1
    )
    rep = sr.leap_report
    assert rep is not None and rep.leaps >= 1
    rate = _note_throughput(
        benchmark,
        sr,
        leaps=rep.leaps,
        leaped_windows=rep.windows,
        leaped_cycles=rep.leaped_cycles,
        period=rep.period,
    )
    assert rate >= 1e6, (
        f"leap mode too slow: {rate:,.0f} simulated cycles/s "
        "(acceptance floor is 1,000,000)"
    )
    _guard_regression("vgg32_leap", rate, benchmark.extra_info)


_PAPER_BENCH = pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_PAPER"),
    reason="224×224 paper-scale simulation costs seconds to a minute even "
    "extended from a solved prefix; set REPRO_BENCH_PAPER=1 (the CI leap-smoke job does)",
)


@_PAPER_BENCH
def test_streaming_alexnet224_leap(benchmark):
    """Paper-scale AlexNet (224×224) in leap mode: a 4-image solve extended to 6."""
    graph = direct_alexnet_graph(width=0.25, fc_features=1024, classes=100)
    rng = np.random.default_rng(3)
    images = rng.integers(0, 4, size=(6, 224, 224, 3))

    sr = benchmark.pedantic(
        lambda: simulate(graph, images, mode="leap"), rounds=1, iterations=1
    )
    rep = sr.leap_report
    assert rep is not None and rep.leaps >= 1
    rate = _note_throughput(benchmark, sr, leaps=rep.leaps, period=rep.period)
    _guard_regression("alexnet224_leap", rate, benchmark.extra_info)


@_PAPER_BENCH
def test_streaming_resnet18_224_leap(benchmark):
    """Paper-scale ResNet-18 (224×224): the §IV-B4 interval, simulated.

    Leap mode solves a 4-image prefix and extends it to 6 by the period.
    ``skip_sizing="bound"`` uses the closed-form §III-B5 capacity instead
    of the exact replay solver (which alone costs ~a minute at this scale);
    the bound is proven safe, and under it the high-water sanitizer only
    checks occupancy against capacity.
    """
    graph = direct_resnet18_graph()
    rng = np.random.default_rng(4)
    images = rng.integers(0, 4, size=(6, 224, 224, 3))

    sr = benchmark.pedantic(
        lambda: simulate(graph, images, mode="leap", skip_sizing="bound"),
        rounds=1,
        iterations=1,
    )
    rep = sr.leap_report
    assert rep is not None and rep.leaps >= 1
    # The simulated steady-state interval must sit in the paper's ~1.85e6
    # clocks-per-picture window (the order-of-magnitude band the
    # scalability experiment enforces for the analytic model).
    assert 5e5 < sr.steady_state_interval < 4e6
    rate = _note_throughput(benchmark, sr, leaps=rep.leaps, period=rep.period)
    _guard_regression("resnet18_224_leap", rate, benchmark.extra_info)


def test_fleet_parallel_speedup(benchmark):
    """4-replica fleet: the worker pool vs the serial reference path.

    Replica simulations are independent by construction (the router works
    from a calibrated virtual queue, not live fabric state), so a 4-worker
    pool on ≥4 cores must cut wall clock by at least 2x — the floor the
    issue sets.  Machines with fewer cores still run both paths (the
    byte-identity check is core-count-independent) but skip the speedup
    assertion: a pool cannot beat serial without parallel hardware.
    """
    from repro.fleet import FleetConfig, ReplicaSpec, plan_fleet, simulate_fleet

    spec = ReplicaSpec("vgg", 16, width=0.0625)
    config_kwargs = dict(
        replicas=[spec] * 4,
        rate_fps=40_000.0,
        n_requests=64,
        policy="rr",
        seed=0,
    )
    # Profile + route once, outside the timed region: both paths reuse the
    # same plan, so the comparison times replica simulation alone.
    plan = plan_fleet(FleetConfig(**config_kwargs))

    t0 = time.perf_counter()
    serial = simulate_fleet(FleetConfig(workers=0, **config_kwargs), plan=plan)
    serial_seconds = time.perf_counter() - t0

    pooled = benchmark.pedantic(
        lambda: simulate_fleet(FleetConfig(workers=4, **config_kwargs), plan=plan),
        rounds=1,
        iterations=1,
    )
    pool_seconds = benchmark.stats.stats.min

    assert serial.aggregate["conserved"] and pooled.aggregate["conserved"]
    assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
        pooled.as_dict(), sort_keys=True
    ), "worker-pool fleet report diverged from the serial reference"

    speedup = serial_seconds / pool_seconds if pool_seconds > 0 else float("inf")
    total_cycles = sum(rep["cycles"] for rep in pooled.replicas)
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["simulated_cycles"] = total_cycles
    benchmark.extra_info["cores"] = os.cpu_count()
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, (
            f"fleet worker pool too slow: {speedup:.2f}x over serial "
            f"({serial_seconds:.2f}s -> {pool_seconds:.2f}s; floor is 2x on 4 cores)"
        )


def test_streaming_plan_search(benchmark):
    """Static partition planning end-to-end on the tiny VGG chain.

    Times the whole ``plan_partition`` path — DP cut search, static
    feasibility re-scoring, resource ledgers, and the winner's exact
    zero-batch replay — on a fresh graph each round (the replay cache
    lives on the graph, so reusing one would time a dict lookup).  The
    recorded rate is replay-cycles per wall second, same currency as the
    simulator cases, guarded against its own recorded rate.
    """
    from repro.models import direct_vgg_graph
    from repro.planner import plan_partition

    def _plan():
        graph = direct_vgg_graph(16, width=0.0625, classes=4)
        return plan_partition(graph)

    plan = benchmark(_plan)
    seconds = benchmark.stats.stats.min
    assert plan.n_dfes == 1 and plan.predicted is not None
    assert plan.predicted.interval is not None
    rate = plan.predicted.replay_cycles / seconds
    benchmark.extra_info["n_dfes"] = plan.n_dfes
    benchmark.extra_info["candidates_scored"] = plan.candidates_scored
    benchmark.extra_info["simulated_cycles_per_second"] = round(rate, 1)
    benchmark.extra_info["predicted_interval"] = plan.predicted.interval
    _guard_regression("tiny_chain_plan", rate, benchmark.extra_info)


def test_functional_inference_reference(benchmark):
    from repro.nn import run_graph

    model = make_tiny_chain_model()
    graph = export_model(model, (16, 16, 3), name="tiny-chain")
    rng = np.random.default_rng(2)
    levels = input_to_levels(rng.uniform(0, 1, (8, 16, 16, 3)), model.layers[0].quantizer)

    result = benchmark(run_graph, graph, levels)
    assert result.output.shape[0] == 8
