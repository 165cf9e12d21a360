"""Tests for the live telemetry subsystem (src/repro/telemetry/)."""

import json

import numpy as np
import pytest

from repro.dataflow import CycleBudgetExceeded, Tracer, mean_completion_interval, simulate
from repro.dataflow.engine import Engine
from repro.dataflow.manager import build_pipeline
from repro.dataflow.tracing import analyze_trace
from repro.dataflow.verify import solve_skip_capacities, verify_pipeline
from repro.models import direct_resnet18_graph
from repro.nn import input_to_levels
from repro.nn.export import export_model
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PeriodicExporter,
    Telemetry,
    deadlock_root_edge,
    exact_quantile,
    host_manifest,
    render_frame,
    render_prometheus,
    run_attributed,
    run_manifest,
    snapshot_registry,
    validate_exposition,
)
from tests.conftest import inject_maxpool_fault, make_tiny_chain_model


# -- registry primitives ---------------------------------------------------


class TestRegistry:
    def test_counter_is_monotone(self):
        c = Counter()
        c.inc(3)
        c.set_total(10)
        assert c.value == 10
        with pytest.raises(ValueError):
            c.set_total(9)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_freely(self):
        g = Gauge()
        g.set(5)
        g.inc(-2)
        assert g.value == 3

    def test_histogram_buckets_and_cumulative(self):
        h = Histogram([1, 4, 16])
        for v in (0, 1, 2, 5, 100):
            h.observe(v)
        assert h.count == 5
        assert h.sum == 108
        cum = h.cumulative()
        assert [c for _, c in cum] == [2, 3, 4, 5]
        assert cum[-1][0] == float("inf")

    def test_family_label_schema_enforced(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_test_total", "help.", ("kernel",))
        fam.labels(kernel="a").inc()
        with pytest.raises(ValueError):
            fam.labels(stream="a")
        with pytest.raises(ValueError):
            fam.inc()  # labelled family has no default child

    def test_registration_idempotent_but_schema_checked(self):
        reg = MetricsRegistry()
        a = reg.gauge("repro_g", "help.")
        assert reg.gauge("repro_g", "help.") is a
        with pytest.raises(ValueError):
            reg.counter("repro_g", "help.")

    def test_invalid_metric_and_label_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.gauge("0bad", "help.")
        with pytest.raises(ValueError):
            reg.gauge("repro_ok", "help.", ("bad-label",))
        with pytest.raises(ValueError):
            reg.gauge("repro_ok", "help.", ("__reserved",))


# -- collector reconciliation ---------------------------------------------


@pytest.fixture(scope="module")
def chain_case():
    model = make_tiny_chain_model()
    graph = export_model(model, (16, 16, 3), name="tiny-chain")
    rng = np.random.default_rng(0)
    levels = input_to_levels(rng.uniform(0, 1, (2, 16, 16, 3)), model.layers[0].quantizer)
    return graph, levels


def _assert_reconciles(telemetry, run):
    """Sealed telemetry counters must equal collect_stats bit for bit."""
    kstats, sstats = run.pipeline.engine.collect_stats()
    kc = telemetry.registry.get("repro_kernel_cycles_total")
    ke = telemetry.registry.get("repro_kernel_elements_total")
    for name, st in kstats.items():
        assert kc.labels(kernel=name, state="busy").value == st.active_cycles
        assert kc.labels(kernel=name, state="starved").value == st.input_starved_cycles
        assert kc.labels(kernel=name, state="blocked").value == st.output_blocked_cycles
        assert kc.labels(kernel=name, state="idle").value == st.idle_cycles
        assert ke.labels(kernel=name, direction="in").value == st.elements_in
        assert ke.labels(kernel=name, direction="out").value == st.elements_out
    se = telemetry.registry.get("repro_stream_events_total")
    peak = telemetry.registry.get("repro_stream_occupancy_peak")
    for name, st in sstats.items():
        assert se.labels(stream=name, event="push").value == st.pushes
        assert se.labels(stream=name, event="pop").value == st.pops
        assert se.labels(stream=name, event="reject").value == st.full_rejections
        assert peak.labels(stream=name).value == st.max_occupancy
    images = telemetry.registry.get("repro_images_completed_total")._default().value
    assert images == len(run.pipeline.sink.completion_cycles)
    assert telemetry.registry.get("repro_cycles")._default().value == run.cycles


@pytest.mark.parametrize("mode", ["fast", "exhaustive"])
def test_telemetry_reconciles_with_collect_stats(chain_case, mode):
    graph, levels = chain_case
    telemetry = Telemetry(sample_every=100)
    run = simulate(graph, levels, mode=mode, telemetry=telemetry)
    assert telemetry.finished and telemetry.total_cycles == run.cycles
    _assert_reconciles(telemetry, run)


@pytest.mark.parametrize("mode", ["fast", "exhaustive"])
def test_telemetry_reconciles_with_pipeline_trace(chain_case, mode):
    """The sealed counters equal the Tracer-derived PipelineTrace's."""
    graph, levels = chain_case
    telemetry = Telemetry(sample_every=100)
    tracer = Tracer()
    run = simulate(graph, levels, mode=mode, trace=tracer, telemetry=telemetry)
    trace = analyze_trace(tracer, skip_idle=False)
    kc = telemetry.registry.get("repro_kernel_cycles_total")
    for window in trace.windows:
        assert kc.labels(kernel=window.name, state="busy").value == window.active_cycles
        assert kc.labels(kernel=window.name, state="starved").value == window.input_starved
        assert kc.labels(kernel=window.name, state="blocked").value == window.output_blocked
    images = telemetry.registry.get("repro_images_completed_total")._default().value
    assert images == len(run.pipeline.sink.completion_cycles)


def _live_state(pipeline, cycle):
    """The reference loop's state after ticking ``cycle`` cycles, as a sample reports it.

    The oracle of :func:`test_fast_midrun_samples_match_exhaustive`: it reads
    the live counters, FIFOs and host lists, as a per-cycle probe would.
    """
    kernels, first_actives = [], []
    for kernel in pipeline.engine.kernels:
        st = kernel.stats
        busy, starved, blocked = st.active_cycles, st.input_starved_cycles, st.output_blocked_cycles
        duty = 0.0
        if st.first_active_cycle is not None:
            first_actives.append(st.first_active_cycle)
            duty = busy / (st.last_active_cycle - st.first_active_cycle + 1)
        stalls = busy + starved + blocked
        kernels.append(
            {
                "name": kernel.name,
                "busy": busy,
                "starved": starved,
                "blocked": blocked,
                "idle": st.idle_cycles,
                "utilization": busy / stalls if stalls else 0.0,
                "duty": duty,
            }
        )
    streams = [
        {
            "name": s.name,
            "occupancy": len(s._fifo),
            "peak": s.stats.max_occupancy,
            "capacity": s.capacity,
        }
        for s in pipeline.engine.streams
    ]
    in_flight = {}
    for crossing in pipeline.crossings:
        edge = f"{crossing.edge[0]}->{crossing.edge[1]}"
        stream = next(
            s for s in pipeline.engine.streams if s.latency and s.name.startswith(edge + "[")
        )
        in_flight[edge] = sum(1 for _, ready in stream._fifo if ready > cycle)
    source, done = pipeline.source, pipeline.sink.completion_cycles
    arrived = source.n_images
    if source.arrival_cycles is not None:
        arrived = sum(arrival <= cycle for arrival in source.arrival_cycles)
    service = [c - a for c, a in zip(done, source.admission_cycles)]
    interval = mean_completion_interval(done)
    last = {
        "cycle": cycle,
        "images": len(done),
        "latency": done[0] if done else None,
        "interval": interval,
        "fps": pipeline.fclk_mhz * 1e6 / interval if interval else None,
        "initiation": max(first_actives) if first_actives else None,
        "latency_p50": exact_quantile(service, 0.50) if service else None,
        "latency_p95": exact_quantile(service, 0.95) if service else None,
        "latency_p99": exact_quantile(service, 0.99) if service else None,
        "latency_max": max(service) if service else None,
        "queue_depth": arrived - len(source.admission_cycles),
    }
    return kernels, streams, last, in_flight


def _reference_states(graph, images, max_cycles, **kwargs):
    """The live state at every cycle of the reference loop, read by its ``done`` callback.

    ``Engine.run`` calls ``done`` once per cycle before that cycle's ticks;
    an aborted run's state at its budget is read after the abort.
    """
    pipeline = build_pipeline(graph, images, **kwargs)
    states = []

    def done():
        states.append(_live_state(pipeline, len(states)))
        return pipeline.sink.done

    try:
        pipeline.engine.run(done, max_cycles=max_cycles)
    except CycleBudgetExceeded:
        states.append(_live_state(pipeline, max_cycles))
    return states


def _sample_states(telemetry, store):
    def listener(tel, cycle):
        in_flight = tel.registry.get("repro_link_in_flight")
        store.append(
            (
                cycle,
                (
                    tel.kernel_rows(),
                    tel.stream_rows(),
                    dict(tel.last),
                    {labels["edge"]: child.value for labels, child in in_flight.samples()},
                ),
            )
        )

    telemetry.add_listener(listener)
    return telemetry


def _midrun_case(case):
    """``(graph, images, budget, simulate kwargs)`` of one telemetered run."""
    chain = export_model(make_tiny_chain_model(), (16, 16, 3), name="tiny-chain")
    if case == "resnet":
        graph = direct_resnet18_graph(16, width=0.0625, classes=4, stages=[(64, 1, 1)])
        return graph, np.random.default_rng(0).integers(0, 4, size=(2, 16, 16, 3)), 50_000_000, {}
    images = np.random.default_rng(1).integers(0, 4, size=(3, 16, 16, 3))
    if case == "chain":
        return chain, images, 50_000_000, {}
    nodes = [n for n in chain.order if n != chain.input_name]
    kwargs = {"partition": [nodes[: len(nodes) // 2], nodes[len(nodes) // 2 :]]}
    if case == "open_loop":
        kwargs["arrival_cycles"] = [0, 3_000, 6_500]
        return chain, images, 50_000_000, kwargs
    return chain, images, 6_305, kwargs  # "abort": cut mid-run, across a link


def _assert_samples_match(case):
    graph, images, budget, kwargs = _midrun_case(case)
    oracle = _reference_states(graph, images, budget, **kwargs)
    end = len(oracle) - 1
    for every, modes in ((1, ("fast",)), (97, ("fast", "exhaustive"))):
        for mode in modes:
            samples = []
            telemetry = _sample_states(Telemetry(sample_every=every), samples)
            if case == "abort":
                with pytest.raises(CycleBudgetExceeded):
                    simulate(graph, images, mode=mode, max_cycles=budget, telemetry=telemetry, **kwargs)
                expected = list(range(every, end + 1, every))
            else:
                simulate(graph, images, mode=mode, max_cycles=budget, telemetry=telemetry, **kwargs)
                expected = list(range(every, end, every)) + [end]
            assert [cycle for cycle, _ in samples] == expected
            assert telemetry.finished == (case != "abort")
            for cycle, state in samples:
                assert state == oracle[cycle], f"{case} {mode} every={every}: divergence at cycle {cycle}"
    if kwargs.get("partition"):
        assert any(state[3] and max(state[3].values()) > 0 for state in oracle)


def test_fast_midrun_samples_match_exhaustive():
    """Every sample equals the reference loop's live state at the same cycle.

    The samples are read off the solved schedule; the oracle ticks the
    engine and reads its counters, FIFOs and host lists every cycle.  The
    cases: the tiny chain, the tiny ResNet (a skip FIFO), an open-loop
    run across two DFEs (a link in flight) and a budget abort.
    """
    for case in ("chain", "resnet", "open_loop", "abort"):
        _assert_samples_match(case)


def test_final_sample_is_taken_once(chain_case):
    """A run whose length is a multiple of ``sample_every`` seals with one sample, not two."""
    graph, levels = chain_case
    cycles = simulate(graph, levels).cycles
    seen = []
    telemetry = Telemetry(sample_every=cycles, on_sample=lambda tel, cycle: seen.append(cycle))
    simulate(graph, levels, telemetry=telemetry)
    assert seen == [cycles]
    assert telemetry.registry.get("repro_telemetry_samples_total")._default().value == 1
    seen.clear()
    telemetry = Telemetry(sample_every=cycles // 2, on_sample=lambda tel, cycle: seen.append(cycle))
    simulate(graph, levels, telemetry=telemetry)
    assert seen == sorted(set(seen)) == [cycles // 2, cycles]


def test_no_images_keep_one_sealed_sample(chain_case):
    graph, levels = chain_case
    for mode in ("fast", "exhaustive"):
        seen = []
        telemetry = Telemetry(on_sample=lambda tel, cycle: seen.append(cycle))
        simulate(graph, levels[:0], mode=mode, telemetry=telemetry)
        assert seen == [0] and telemetry.finished
        assert {row["busy"] for row in telemetry.kernel_rows()} == {0}


def test_declined_runs_refuse_telemetry(chain_case, monkeypatch):
    """A run the solver declines cannot be sampled: telemetry names the reason."""
    from repro.dataflow.kernel import Kernel
    from repro.kernels.pooling import MaxPoolKernel

    graph, levels = chain_case
    monkeypatch.setattr(MaxPoolKernel, "op_program", Kernel.op_program)
    assert simulate(graph, levels).cycles > 0  # without telemetry the engine ticks it
    for mode in ("fast", "exhaustive"):
        with pytest.raises(ValueError, match="op program"):
            simulate(graph, levels, mode=mode, telemetry=Telemetry())


def test_run_past_the_solver_horizon_is_declined_after_one_solve(chain_case, monkeypatch):
    """A telemetered run that has not deadlocked by the horizon raises after solving it once."""
    from repro.dataflow import schedule

    graph, levels = chain_case
    simulate(graph, levels)  # fills the graph's caches before counting
    solves = []
    solve = schedule._solve
    monkeypatch.setattr(schedule, "_solve", lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    monkeypatch.setattr(schedule, "REPLAY_MAX_CYCLES", 1_000)
    for mode in ("fast", "leap", "exhaustive"):
        solves.clear()
        with pytest.raises(ValueError, match="has not deadlocked"):
            simulate(graph, levels, mode=mode, telemetry=Telemetry())
        assert len(solves) == 1, mode


def test_a_run_that_fails_takes_no_samples(chain_case, monkeypatch):
    """Only a run that ends or hits its budget is sampled; a fault leaves telemetry unsampled."""
    graph, levels = chain_case
    seen = []
    telemetry = Telemetry(sample_every=100, on_sample=lambda tel, cycle: seen.append(cycle))

    def fault(*args, **kwargs):
        raise RuntimeError("injected engine fault")

    monkeypatch.setattr(Engine, "run", fault)
    with pytest.raises(RuntimeError, match="injected engine fault"):
        simulate(graph, levels, mode="exhaustive", telemetry=telemetry)
    assert seen == [] and not telemetry.finished and telemetry.total_cycles is None


def test_telemetry_is_single_use(chain_case):
    graph, levels = chain_case
    telemetry = Telemetry()
    simulate(graph, levels, telemetry=telemetry)
    with pytest.raises(ValueError):
        simulate(graph, levels, telemetry=telemetry)


def test_derived_gauges(chain_case):
    graph, levels = chain_case
    telemetry = Telemetry()
    run = simulate(graph, levels, telemetry=telemetry)
    reg = telemetry.registry
    latency = reg.get("repro_image_latency_cycles")._default().value
    assert latency == run.latency_cycles
    interval = reg.get("repro_steady_state_interval_cycles")._default().value
    assert interval == pytest.approx(run.run.steady_state_interval)
    fps = reg.get("repro_throughput_fps")._default().value
    assert fps == pytest.approx(run.pipeline.fclk_mhz * 1e6 / interval)
    ii = reg.get("repro_initiation_interval_cycles")._default().value
    assert 0 < ii < run.cycles
    duty = reg.get("repro_kernel_duty_cycle")
    for _, child in duty.samples():
        assert 0.0 <= child.value <= 1.0


# -- exporters -------------------------------------------------------------


class TestExporters:
    def test_prometheus_exposition_validates(self, chain_case):
        graph, levels = chain_case
        telemetry = Telemetry()
        telemetry.manifest = run_manifest(graph, seed=0, images=2)
        simulate(graph, levels, telemetry=telemetry)
        text = telemetry.export_prometheus()
        assert validate_exposition(text) == []
        assert "repro_build_info{" in text
        assert "# TYPE repro_kernel_cycles_total counter" in text
        assert "repro_stream_occupancy_sampled_bucket" in text
        assert 'le="+Inf"' in text

    def test_validator_catches_corruption(self):
        reg = MetricsRegistry()
        reg.gauge("repro_x", "help.").set(1)
        good = render_prometheus(reg)
        assert validate_exposition(good) == []
        assert validate_exposition("repro_orphan 1\n")  # no TYPE header
        assert validate_exposition("# TYPE repro_x gauge\nrepro_x{ 1\n")
        assert validate_exposition("# TYPE repro_x gauge\nrepro_x not_a_number\n")

    def test_json_snapshot_round_trips(self, chain_case):
        graph, levels = chain_case
        telemetry = Telemetry()
        simulate(graph, levels, telemetry=telemetry)
        payload = telemetry.export_json()
        decoded = json.loads(json.dumps(payload))
        assert decoded["schema"] == "repro-telemetry/1"
        assert decoded["finished"] is True
        names = {f["name"] for f in decoded["metrics"]}
        assert "repro_kernel_cycles_total" in names
        assert "repro_throughput_fps" in names

    def test_snapshot_registry_histograms_have_inf_bucket(self):
        reg = MetricsRegistry()
        reg.histogram("repro_h", "help.", [1, 2]).observe(1.5)
        fam = snapshot_registry(reg)[0]
        assert fam["samples"][0]["buckets"][-1][0] == "+Inf"

    def test_periodic_exporter_guards_and_writes(self, chain_case, tmp_path):
        graph, levels = chain_case
        prom = tmp_path / "metrics.prom"
        snap = tmp_path / "metrics.json"
        telemetry = Telemetry(sample_every=200)
        telemetry.add_listener(PeriodicExporter(prom_path=prom, json_path=snap))
        simulate(graph, levels, telemetry=telemetry)
        assert validate_exposition(prom.read_text()) == []
        assert json.loads(snap.read_text())["finished"] is True
        # Existing outputs require force.
        with pytest.raises(FileExistsError):
            PeriodicExporter(prom_path=prom)
        PeriodicExporter(prom_path=prom, force=True)


# -- manifests -------------------------------------------------------------


class TestManifest:
    def test_host_manifest_keys(self):
        mf = host_manifest()
        for key in ("revision", "git_describe", "python", "numpy", "cpu_count"):
            assert key in mf
        assert mf["cpu_count"] >= 1

    def test_run_manifest_topology(self, chain_case):
        graph, _ = chain_case
        mf = run_manifest(graph, seed=7, images=2, fclk_mhz=105.0)
        assert mf["schema"] == "repro-run-manifest/1"
        assert mf["topology"]["name"] == graph.name
        assert mf["topology"]["input"] == [16, 16, 3]
        assert mf["seed"] == 7 and mf["images"] == 2


# -- dashboard -------------------------------------------------------------


def test_dashboard_frame_renders(chain_case):
    graph, levels = chain_case
    telemetry = Telemetry()
    simulate(graph, levels, telemetry=telemetry)
    frame = render_frame(telemetry)
    assert "run complete" in frame
    assert "host_sink" in frame
    assert "FPS" in frame


# -- bottleneck attribution ------------------------------------------------


@pytest.fixture(scope="module")
def tiny_residual():
    graph = direct_resnet18_graph(16, width=0.0625, classes=4, stages=[(64, 1, 1)])
    rng = np.random.default_rng(0)
    images = rng.integers(0, 4, size=(2, 16, 16, 3))
    return graph, images


def test_attribution_on_healthy_run(tiny_residual):
    graph, images = tiny_residual
    report = run_attributed(graph, images)
    assert not report.aborted
    assert report.root_edge is None
    assert report.images == 2
    assert report.fps and report.fps > 0
    names = [k.name for k in report.kernels]
    assert "host_sink" in names
    utils = [k.utilization for k in report.kernels]
    assert utils == sorted(utils)
    assert "stall-adjusted utilization" in report.render()


@pytest.mark.parametrize("mode", ["fast", "exhaustive"])
def test_attribution_names_v301_edge_on_undersized_skip(tiny_residual, mode):
    """Fault injection: `repro stats` and `repro check` must point at the
    same edge when a skip FIFO is deliberately undersized (V301)."""
    graph, images = tiny_residual
    exact = solve_skip_capacities(graph)
    victim = sorted(exact)[0]
    injected = dict(exact)
    injected[victim] = exact[victim] - 1

    pipeline = build_pipeline(graph, images, skip_sizing=injected)
    check = verify_pipeline(pipeline, exact_skip=exact)
    v301 = [d for d in check.diagnostics if d.code == "V301"]
    assert len(v301) == 1 and v301[0].severity == "error"

    report = run_attributed(
        graph, images, skip_sizing=injected, max_cycles=100_000, mode=mode
    )
    assert report.aborted
    assert report.root_edge == v301[0].where
    assert report.root_required == exact[victim]
    assert report.root_capacity == exact[victim] - 1
    assert f"minimum safe capacity {exact[victim]}" in report.render()


def test_attribution_propagates_kernel_faults(tiny_residual, monkeypatch):
    """Only a budget abort becomes an aborted report; any other error propagates."""
    graph, images = tiny_residual
    inject_maxpool_fault(monkeypatch)
    with pytest.raises(RuntimeError, match="injected max-pool fault") as info:
        run_attributed(graph, images)
    assert not isinstance(info.value, CycleBudgetExceeded)


def test_deadlock_root_edge_none_on_healthy_engine(tiny_residual):
    graph, images = tiny_residual
    pipeline = build_pipeline(graph, images)
    pipeline.engine.run(lambda: pipeline.sink.done)
    assert deadlock_root_edge(pipeline.engine) is None


# -- dashboard rendering contract ------------------------------------------


def _bare_telemetry(last):
    """A collector with no probes: the frame is fully determined by .last."""
    telemetry = Telemetry()
    telemetry.last = last
    return telemetry


GOLDEN_LAST = {
    "cycle": 1234,
    "images": 2,
    "latency": 600,
    "interval": 300.0,
    "fps": 350000.0,
    "initiation": 100,
    "latency_p50": 600,
    "latency_p95": 610,
    "latency_p99": 612,
    "latency_max": 620,
    "queue_depth": 3,
}

GOLDEN_FRAME = "\n".join(
    [
        "repro top — running @ cycle 1,234 | images 2",
        "  350,000.0 FPS @ 105 MHz | interval 300 cyc/img | II 100 cyc",
        "  latency p50 600 | p95 610 | p99 612 | max 620 cyc | host queue 3",
        "",
        "  kernel                  utilization              busy/starved/blocked",
    ]
)


def test_dashboard_golden_frame():
    """The frame layout is a contract: headline, latency row, kernel table."""
    assert render_frame(_bare_telemetry(dict(GOLDEN_LAST))) == GOLDEN_FRAME


def test_dashboard_latency_na_marker():
    telemetry = _bare_telemetry({"cycle": 50, "images": 0})
    telemetry.finished = True
    frame = render_frame(telemetry)
    assert "latency: n/a (no completed images)" in frame
    # Mid-run with nothing completed yet: no latency row, no n/a noise.
    running = _bare_telemetry({"cycle": 50, "images": 0})
    assert "latency" not in render_frame(running)


def test_dashboard_ansi_redraw_and_throttle(monkeypatch):
    """Fake clock: frames drop inside min_interval_s, final frame always lands."""
    import io

    from repro.telemetry import dashboard as dashboard_mod
    from repro.telemetry.dashboard import Dashboard

    clock = {"now": 1000.0}
    monkeypatch.setattr(dashboard_mod.time, "monotonic", lambda: clock["now"])
    out = io.StringIO()
    board = Dashboard(out=out, min_interval_s=0.5, ansi=True)
    telemetry = _bare_telemetry(dict(GOLDEN_LAST))

    board(telemetry, 1234)  # renders (first frame)
    board(telemetry, 1300)  # dropped: clock has not advanced
    assert board.frames == 1
    clock["now"] += 0.1
    board(telemetry, 1400)  # still inside the throttle window
    assert board.frames == 1
    clock["now"] += 1.0
    board(telemetry, 1500)  # renders
    assert board.frames == 2
    telemetry.finished = True
    board(telemetry, 1600)  # final frame ignores the throttle
    assert board.frames == 3
    text = out.getvalue()
    # Every rendered frame is an in-place ANSI redraw of the golden frame
    # (the final one swaps the "running" headline for "run complete").
    assert text.count("\x1b[H\x1b[J") == 3
    final_frame = GOLDEN_FRAME.replace("running", "run complete")
    assert text == ("\x1b[H\x1b[J" + GOLDEN_FRAME + "\n") * 2 + (
        "\x1b[H\x1b[J" + final_frame + "\n"
    )


def test_periodic_exporter_fake_sample_cadence(tmp_path):
    """every_samples gates writes; the final sample always flushes."""

    class _FakeTelemetry:
        def __init__(self):
            self.finished = False
            self.prom_renders = 0

        def export_prometheus(self):
            self.prom_renders += 1
            return f"# render {self.prom_renders}\n"

        def export_json(self):
            return {"renders": self.prom_renders}

    prom = tmp_path / "metrics.prom"
    snap = tmp_path / "snapshot.json"
    exporter = PeriodicExporter(prom_path=prom, json_path=snap, every_samples=3)
    telemetry = _FakeTelemetry()
    for cycle in range(1, 8):  # samples 1..7: writes on 3 and 6 only
        exporter(telemetry, cycle * 100)
    assert telemetry.prom_renders == 2
    telemetry.finished = True
    exporter(telemetry, 800)  # sample 8: not a multiple of 3, but final
    assert telemetry.prom_renders == 3
    assert prom.read_text() == "# render 3\n"
    assert json.loads(snap.read_text()) == {"renders": 3}


def test_periodic_exporter_refuses_existing_outputs_up_front(tmp_path):
    prom = tmp_path / "metrics.prom"
    snap = tmp_path / "snapshot.json"
    snap.write_text("{}")
    with pytest.raises(FileExistsError, match="--force"):
        PeriodicExporter(prom_path=prom, json_path=snap)
    assert not prom.exists()  # the guard fired before any write
    PeriodicExporter(prom_path=prom, json_path=snap, force=True)


def test_attribution_renders_na_markers_on_zero_completions(tiny_residual):
    """An aborted run with no completed image degrades to explicit n/a
    markers instead of dividing by zero or printing garbage."""
    graph, images = tiny_residual
    exact = solve_skip_capacities(graph)
    injected = dict(exact)
    injected[sorted(exact)[0]] = 1  # deadlock before any image completes
    report = run_attributed(graph, images, skip_sizing=injected, max_cycles=50_000)
    assert report.aborted
    rendered = report.render()
    assert "first-image latency: n/a (no image completed)" in rendered
    assert "steady-state interval / FPS: n/a (needs two completed images)" in rendered
