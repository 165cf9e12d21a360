"""Tests for the live telemetry subsystem (src/repro/telemetry/)."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.dataflow import CycleBudgetExceeded, Tracer, mean_completion_interval, simulate
from repro.dataflow.engine import Engine
from repro.dataflow.links import MAX4_FABRIC_MHZ
from repro.dataflow.manager import build_pipeline
from repro.dataflow.tracing import LayerTable
from repro.dataflow.verify import solve_skip_capacities, verify_pipeline
from repro.models import direct_resnet18_graph
from repro.nn import input_to_levels
from repro.nn.export import export_model
from repro.telemetry import (
    OCCUPANCY_BUCKETS,
    Histogram,
    MetricFamily,
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
    def test_histogram_buckets_and_cumulative(self):
        h = Histogram([1, 4, 16])
        for v in (0, 1, 2, 5, 100):
            h.observe(v)
        assert h.count == 5
        assert h.sum == 108
        cum = h.cumulative()
        assert [c for _, c in cum] == [2, 3, 4, 5]
        assert cum[-1][0] == float("inf")


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
    kc = telemetry.registry["repro_kernel_cycles_total"].values
    ke = telemetry.registry["repro_kernel_elements_total"].values
    for name, st in kstats.items():
        assert kc[name, "busy"] == st.active_cycles
        assert kc[name, "starved"] == st.input_starved_cycles
        assert kc[name, "blocked"] == st.output_blocked_cycles
        assert kc[name, "idle"] == st.idle_cycles
        assert ke[name, "in"] == st.elements_in
        assert ke[name, "out"] == st.elements_out
    se = telemetry.registry["repro_stream_events_total"].values
    peak = telemetry.registry["repro_stream_occupancy_peak"].values
    for name, st in sstats.items():
        assert se[name, "push"] == st.pushes
        assert se[name, "pop"] == st.pops
        assert se[name, "reject"] == st.full_rejections
        assert peak[name,] == st.max_occupancy
    images = telemetry.registry["repro_images_completed_total"].values[()]
    assert images == len(run.pipeline.sink.completion_cycles)
    assert telemetry.registry["repro_cycles"].values[()] == run.cycles


@pytest.mark.parametrize("mode", ["leap", "exhaustive"])
def test_telemetry_reconciles_with_collect_stats(chain_case, mode):
    graph, levels = chain_case
    telemetry = Telemetry(sample_every=100)
    run = simulate(graph, levels, mode=mode, telemetry=telemetry)
    assert telemetry.finished and telemetry.total_cycles == run.cycles
    _assert_reconciles(telemetry, run)


@pytest.mark.parametrize("mode", ["leap", "exhaustive"])
def test_telemetry_reconciles_with_pipeline_trace(chain_case, mode):
    """The sealed counters and the layer table's rows equal the Tracer's summed spans."""
    graph, levels = chain_case
    telemetry = Telemetry(sample_every=100)
    tracer = Tracer()
    run = simulate(graph, levels, mode=mode, trace=tracer, telemetry=telemetry)
    kc = telemetry.registry["repro_kernel_cycles_total"].values
    duty = telemetry.registry["repro_kernel_duty_cycle"].values
    rows = {row.name: row for row in LayerTable.of(run.pipeline).rows}
    firsts = []
    for name, spans in tracer.kernel_spans.items():
        compute = [s for s in spans if s.kind == "compute"]
        firsts.append(compute[0].start)
        for kind, state in (("compute", "busy"), ("starved", "starved"), ("blocked", "blocked")):
            summed = sum(s.cycles for s in spans if s.kind == kind)
            assert kc[name, state] == summed
            assert getattr(rows[name], state) == summed
        assert (rows[name].first_active, rows[name].last_active) == (compute[0].start, compute[-1].end)
        assert duty[name,] == rows[name].duty
    assert telemetry.last["initiation"] == max(firsts)
    images = telemetry.registry["repro_images_completed_total"].values[()]
    assert images == len(run.pipeline.sink.completion_cycles)


def _live_state(pipeline, cycle):
    """The reference loop's state after ticking ``cycle`` cycles, as the registry reports it.

    The oracle of the final fill in :func:`test_fast_midrun_samples_match_exhaustive`:
    it reads the live counters, FIFOs and host lists.
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
        "fps": MAX4_FABRIC_MHZ * 1e6 / interval if interval else None,
        "initiation": max(first_actives) if first_actives else None,
        "latency_p50": exact_quantile(service, 0.50) if service else None,
        "latency_p95": exact_quantile(service, 0.95) if service else None,
        "latency_p99": exact_quantile(service, 0.99) if service else None,
        "latency_max": max(service) if service else None,
        "queue_depth": arrived - len(source.admission_cycles),
    }
    return kernels, streams, last, in_flight


def _live_rows(pipeline, cycle):
    """The reference loop's state after ticking ``cycle`` cycles, as one instant of ``Timeline.at``."""
    kernels = []
    for kernel in pipeline.engine.kernels:
        st = kernel.stats
        first, last = st.first_active_cycle, st.last_active_cycle
        kernels.append(
            [st.active_cycles, st.input_starved_cycles, st.output_blocked_cycles, st.idle_cycles]
            + [st.elements_in, st.elements_out, -1 if first is None else first, -1 if last is None else last]
        )
    streams = [
        [len(s._fifo), s.stats.max_occupancy, s.stats.pushes, s.stats.pops, s.stats.full_rejections]
        + [sum(1 for _, ready in s._fifo if ready > cycle)]
        for s in pipeline.engine.streams
    ]
    source = pipeline.source
    arrived = source.n_images
    if source.arrival_cycles is not None:
        arrived = sum(arrival <= cycle for arrival in source.arrival_cycles)
    images = [len(pipeline.sink.completion_cycles), len(source.admission_cycles), arrived]
    return kernels, streams, images


def _reference_states(graph, images, max_cycles, **kwargs):
    """The live rows at every cycle of the reference loop, read by its ``done`` callback, and
    the registry view of its last state.

    ``Engine.run`` calls ``done`` once per cycle before that cycle's ticks;
    an aborted run's state at its budget is read after the abort.
    """
    pipeline = build_pipeline(graph, images, **kwargs)
    states = []

    def done():
        states.append(_live_rows(pipeline, len(states)))
        return pipeline.sink.done

    try:
        pipeline.engine.run(done, max_cycles=max_cycles)
    except CycleBudgetExceeded:
        states.append(_live_rows(pipeline, max_cycles))
    return states, _live_state(pipeline, len(states) - 1)


class _KeepsTimeline(Telemetry):
    """A Telemetry that keeps the solved timeline it is filled from."""

    def replay(self, timeline):
        self.timeline = timeline
        super().replay(timeline)


def _registry_view(telemetry):
    in_flight = telemetry.registry["repro_link_in_flight"].values
    return (
        telemetry.kernel_rows(),
        telemetry.stream_rows(),
        dict(telemetry.last),
        {edge: value for (edge,), value in in_flight.items()},
    )


def _samples_taken(telemetry):
    return telemetry.registry["repro_telemetry_samples_total"].values.get((), 0)


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
    oracle, final = _reference_states(graph, images, budget, **kwargs)
    end = len(oracle) - 1
    for every in (1, 97):
        for mode in ("leap", "exhaustive"):
            where = f"{case} {mode} every={every}"
            telemetry = _KeepsTimeline(sample_every=every)
            if case == "abort":
                with pytest.raises(CycleBudgetExceeded):
                    simulate(graph, images, mode=mode, max_cycles=budget, telemetry=telemetry, **kwargs)
                instants = list(range(every, end + 1, every))
            else:
                simulate(graph, images, mode=mode, max_cycles=budget, telemetry=telemetry, **kwargs)
                instants = list(range(every, end, every)) + [end]
            rows = telemetry.timeline.at(telemetry.pipeline, instants)
            for cycle, *state in zip(instants, *rows):
                assert tuple(state) == oracle[cycle], f"{where}: divergence at cycle {cycle}"
            # The registry: the sample count, the last state, and every sample's occupancy.
            assert _samples_taken(telemetry) == len(instants), where
            assert telemetry.finished == (case != "abort"), where
            assert _registry_view(telemetry) == final, where
            sampled = telemetry.registry["repro_stream_occupancy_sampled"].values
            for s, stream in enumerate(telemetry.pipeline.engine.streams):
                expected = Histogram(OCCUPANCY_BUCKETS)
                for cycle in instants:
                    expected.observe(oracle[cycle][1][s][0])
                child = sampled[stream.name,]
                assert child.cumulative() == expected.cumulative(), f"{where}: {stream.name}"
                assert child.sum == expected.sum, f"{where}: {stream.name}"
    if kwargs.get("partition"):
        assert any(row[5] for _, streams, _ in oracle for row in streams)


def test_fast_midrun_samples_match_exhaustive():
    """Every sample equals the reference loop's live state at the same cycle.

    The samples are read off the solved schedule; the oracle ticks the
    engine and reads its counters, FIFOs and host lists every cycle.  Each
    sample instant of the solved timeline is checked, and so is the
    registry filled from them: its last state and the occupancy histogram
    of every sample.  The cases: the tiny chain, the tiny ResNet (a skip
    FIFO), an open-loop run across two DFEs (a link in flight) and a
    budget abort.
    """
    for case in ("chain", "resnet", "open_loop", "abort"):
        _assert_samples_match(case)


def test_final_sample_is_taken_once(chain_case):
    """A run whose length is a multiple of ``sample_every`` seals with one sample, not two."""
    graph, levels = chain_case
    cycles = simulate(graph, levels).cycles
    for every, samples in ((cycles, 1), (cycles // 2, 2)):
        telemetry = Telemetry(sample_every=every)
        simulate(graph, levels, telemetry=telemetry)
        assert _samples_taken(telemetry) == samples
        assert telemetry.finished and telemetry.last["cycle"] == cycles


def test_no_images_keep_one_sealed_sample(chain_case):
    graph, levels = chain_case
    for mode in ("leap", "exhaustive"):
        telemetry = Telemetry()
        simulate(graph, levels[:0], mode=mode, telemetry=telemetry)
        assert _samples_taken(telemetry) == 1 and telemetry.finished
        assert telemetry.last["cycle"] == 0
        assert {row["busy"] for row in telemetry.kernel_rows()} == {0}


def test_budget_below_the_cadence_takes_no_sample(chain_case):
    """A run cut before its first sample instant leaves the registry unsampled and unsealed."""
    graph, levels = chain_case
    for mode in ("leap", "exhaustive"):
        telemetry = Telemetry(sample_every=1_000)
        with pytest.raises(CycleBudgetExceeded):
            simulate(graph, levels, mode=mode, max_cycles=999, telemetry=telemetry)
        assert _samples_taken(telemetry) == 0
        assert not telemetry.finished and telemetry.total_cycles is None
        assert telemetry.last == {"cycle": 0, "images": 0}
        assert telemetry.registry["repro_cycles"].values == {}  # no sample writes it
        assert {row["busy"] + row["starved"] for row in telemetry.kernel_rows()} == {0}
        sampled = telemetry.registry["repro_stream_occupancy_sampled"].values
        assert {child.count for child in sampled.values()} == {0}


def test_declined_runs_refuse_telemetry(chain_case, monkeypatch):
    """A run the solver declines cannot be sampled: telemetry names the reason."""
    from repro.dataflow.kernel import Kernel
    from repro.kernels.pooling import MaxPoolKernel

    graph, levels = chain_case
    monkeypatch.setattr(MaxPoolKernel, "op_program", Kernel.op_program)
    assert simulate(graph, levels).cycles > 0  # without telemetry the engine ticks it
    for mode in ("leap", "exhaustive"):
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
    for mode in ("leap", "exhaustive"):
        solves.clear()
        with pytest.raises(ValueError, match="has not deadlocked"):
            simulate(graph, levels, mode=mode, telemetry=Telemetry())
        assert len(solves) == 1, mode


def test_a_run_that_fails_takes_no_samples(chain_case, monkeypatch):
    """Only a run that ends or hits its budget is sampled; a fault leaves telemetry unsampled."""
    graph, levels = chain_case
    telemetry = Telemetry(sample_every=100)

    def fault(*args, **kwargs):
        raise RuntimeError("injected engine fault")

    monkeypatch.setattr(Engine, "run", fault)
    with pytest.raises(RuntimeError, match="injected engine fault"):
        simulate(graph, levels, mode="exhaustive", telemetry=telemetry)
    assert _samples_taken(telemetry) == 0
    assert not telemetry.finished and telemetry.total_cycles is None


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
    latency = reg["repro_image_latency_cycles"].values[()]
    assert latency == run.latency_cycles
    interval = reg["repro_steady_state_interval_cycles"].values[()]
    assert interval == pytest.approx(run.run.steady_state_interval)
    fps = reg["repro_throughput_fps"].values[()]
    assert fps == pytest.approx(MAX4_FABRIC_MHZ * 1e6 / interval)
    ii = reg["repro_initiation_interval_cycles"].values[()]
    assert 0 < ii < run.cycles
    duty = reg["repro_kernel_duty_cycle"].values
    for value in duty.values():
        assert 0.0 <= value <= 1.0


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
        family = MetricFamily("repro_x", "help.", "gauge")
        family.values[()] = 1
        good = render_prometheus([family])
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
        family = MetricFamily("repro_h", "help.", "histogram")
        family.values[()] = Histogram([1, 2])
        family.values[()].observe(1.5)
        fam = snapshot_registry([family])[0]
        assert fam["samples"][0]["buckets"][-1][0] == "+Inf"


# -- exported bytes --------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden_run(case):
    """The telemetry of one pinned run: ``chain``, ``empty`` or ``resnet_2dfe``, or one cut at ``_cut<N>`` cycles."""
    base, _, cut = case.partition("_cut")
    model = make_tiny_chain_model()
    graph = export_model(model, (16, 16, 3), name="tiny-chain")
    levels = input_to_levels(
        np.random.default_rng(0).uniform(0, 1, (2, 16, 16, 3)), model.layers[0].quantizer
    )
    kwargs = {"max_cycles": int(cut)} if cut else {}
    if base == "empty":
        levels = levels[:0]
    elif base == "resnet_2dfe":
        graph = direct_resnet18_graph(16, width=0.0625, classes=4, stages=[(64, 1, 1)])
        levels = np.random.default_rng(0).integers(0, 4, size=(3, 16, 16, 3))
        nodes = [n for n in graph.order if n != graph.input_name]
        kwargs |= {"partition": [nodes[:2], nodes[2:]], "arrival_cycles": [0, 3_000, 6_500]}
    telemetry = Telemetry(sample_every=97)
    try:
        simulate(graph, levels, telemetry=telemetry, **kwargs)
    except CycleBudgetExceeded:
        assert cut
    return telemetry


def _exported_bytes(telemetry):
    """What a run exports, minus the host-dependent manifest: ``{suffix: text}``."""
    prom = "".join(
        line
        for line in telemetry.export_prometheus().splitlines(keepends=True)
        if not line.startswith(("repro_build_info", "# HELP repro_build_info", "# TYPE repro_build_info"))
    )
    metrics = json.dumps(telemetry.export_json()["metrics"], indent=1) + "\n"
    return {"prom": prom, "json": metrics, "frame": render_frame(telemetry) + "\n"}


@pytest.mark.parametrize(
    "case", ["chain", "chain_cut100", "chain_cut96", "empty", "resnet_2dfe", "resnet_2dfe_cut96"]
)
def test_exported_bytes_are_pinned(case):
    """The Prometheus text, the JSON metrics and the ``repro top`` frame equal the golden files.

    ``json.dumps`` writes ``1`` and ``1.0`` apart, so the pinned JSON also
    pins each value's int or float type.  At a 97-cycle cadence a cut at
    100 takes one sample and a cut at 96 none, so only the rows written at
    attach time show; the 2-DFE runs are the ones with link rows.
    Regenerate with ``REPRO_UPDATE_GOLDEN=1``.
    """
    exported = _exported_bytes(_golden_run(case))
    if case.startswith("resnet_2dfe"):
        assert "repro_link_measured_mbps{" in exported["prom"]
    for suffix, text in exported.items():
        path = GOLDEN_DIR / f"telemetry_{case}.{suffix}"
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        assert text == path.read_text(), f"{path.name} differs"


# -- manifests -------------------------------------------------------------


class TestManifest:
    def test_host_manifest_keys(self):
        mf = host_manifest()
        for key in ("revision", "git_describe", "python", "numpy", "cpu_count"):
            assert key in mf
        assert mf["cpu_count"] >= 1

    def test_run_manifest_topology(self, chain_case):
        graph, _ = chain_case
        mf = run_manifest(graph, seed=7, images=2)
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


@pytest.mark.parametrize("mode", ["leap", "exhaustive"])
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
