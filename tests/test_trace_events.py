"""Event-trace correctness: scheduler equality, derived views, export.

The tracing contract (DESIGN.md) is that a traced run is *observationally
free*: tracing changes no statistic and no schedule, and — the strong
property — the event log a run writes from its solved op times, in
either mode, is the one recorded off the engine's reference loop on the same workload (``tests.conftest.record_trace`` reads the
loop's counters and FIFOs every cycle).  These tests pin that contract
over every equivalence topology, then check the derived views (occupancy
timelines, link transits, waterfall analysis) and the Chrome-trace export
against it.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.dataflow import LayerTable, Tracer, load_chrome_trace, simulate
from repro.nn import export_model

from .conftest import make_tiny_chain_model, make_tiny_resnet_model
from .test_schedule_run import engine_run


def _images(seed: int, n: int = 2, size: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(n, size, size, 3), dtype=np.int64)


def _half_partition(graph):
    names = [n for n in graph.topological() if n != graph.input_name]
    half = len(names) // 2
    return [names[:half], names[half:]]


def _case(name: str):
    if name == "chain":
        graph = export_model(make_tiny_chain_model(), (16, 16, 3), name="tiny-chain")
    else:
        graph = export_model(make_tiny_resnet_model(), (16, 16, 3), name="tiny-resnet")
    kwargs = {}
    if name == "multi_dfe":
        kwargs["partition"] = _half_partition(graph)
    return graph, kwargs


TOPOLOGIES = ["chain", "resnet", "multi_dfe"]


@pytest.fixture(scope="module")
def traced_runs():
    """Per topology: one traced solved and exhaustive run, and the reference loop's recorded trace."""
    runs = {}
    for name in TOPOLOGIES:
        graph, kwargs = _case(name)
        images = _images(0)
        t_solved, t_slow, t_loop = Tracer(), Tracer(), Tracer()
        solved = simulate(graph, images, mode="leap", trace=t_solved, **kwargs)
        slow = simulate(graph, images, mode="exhaustive", trace=t_slow, **kwargs)
        engine_run(graph, images, trace=t_loop, **kwargs)
        runs[name] = (solved, slow, t_solved, t_slow, t_loop)
    return runs


# -- scheduler equality -------------------------------------------------


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_fast_and_exhaustive_traces_identical(traced_runs, topology):
    """The tentpole property: both modes write the event log recorded off the reference loop."""
    solved, slow, t_solved, t_slow, t_loop = traced_runs[topology]
    assert "_flat" not in vars(solved.pipeline.source)  # solved, never ticked
    assert "_flat" in vars(slow.pipeline.source)  # ticked for its outputs and counters
    assert t_solved.state() == t_loop.state()
    assert t_slow.state() == t_loop.state()


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_tracing_is_observationally_free(traced_runs, topology):
    """A traced run has bit-identical stats to an untraced one."""
    graph, kwargs = _case(topology)
    solved, _, _, _, _ = traced_runs[topology]
    bare = simulate(graph, _images(0), mode="leap", **kwargs)
    assert bare.cycles == solved.cycles
    assert bare.run.completion_cycles == solved.run.completion_cycles
    assert np.array_equal(bare.output, solved.output)
    for name, stats in bare.run.kernel_stats.items():
        assert dataclasses.asdict(solved.run.kernel_stats[name]) == dataclasses.asdict(stats)
    for name, stats in bare.run.stream_stats.items():
        assert dataclasses.asdict(solved.run.stream_stats[name]) == dataclasses.asdict(stats)


# -- span/event structure ----------------------------------------------


def test_spans_tile_the_run_exactly(traced_runs):
    """Per kernel: spans are disjoint, contiguous, and cover [0, cycles)."""
    solved, _, tracer, _, _ = traced_runs["chain"]
    for kernel, spans in tracer.kernel_spans.items():
        assert spans, f"{kernel}: no spans"
        assert spans[0].start == 0, kernel
        for a, b in zip(spans, spans[1:]):
            assert b.start == a.end + 1, f"{kernel}: gap/overlap at {a}..{b}"
        assert spans[-1].end == solved.cycles - 1, kernel


def test_span_cycles_match_aggregate_counters(traced_runs):
    """Summed span lengths reproduce every KernelStats counter."""
    solved, _, tracer, _, _ = traced_runs["resnet"]
    for name, stats in solved.run.kernel_stats.items():
        by_kind: dict[str, int] = {}
        for span in tracer.kernel_spans[name]:
            by_kind[span.kind] = by_kind.get(span.kind, 0) + span.cycles
        assert by_kind.get("compute", 0) == stats.active_cycles, name
        assert by_kind.get("starved", 0) == stats.input_starved_cycles, name
        assert by_kind.get("blocked", 0) == stats.output_blocked_cycles, name
        assert by_kind.get("idle", 0) == stats.idle_cycles, name


def test_stream_events_match_aggregate_counters(traced_runs):
    """Push/pop event counts and reject span cycles match StreamStats."""
    solved, _, tracer, _, _ = traced_runs["chain"]
    for name, stats in solved.run.stream_stats.items():
        events = tracer.stream_events[name]
        assert sum(1 for e in events if e.kind == "push") == stats.pushes, name
        assert sum(1 for e in events if e.kind == "pop") == stats.pops, name
        rejected = sum(s.cycles for s in tracer.reject_spans[name])
        assert rejected == stats.full_rejections, name
        # max_occupancy is the instantaneous peak, visible in the raw
        # per-event occupancies (the step timeline keeps only each cycle's
        # final depth, which can sit below a mid-cycle push+pop peak).
        if events:
            assert max(e.occupancy for e in events) == stats.max_occupancy, name


def test_completions_match_run(traced_runs):
    solved, _, tracer, _, _ = traced_runs["chain"]
    assert [c.cycle for c in tracer.completions] == solved.run.completion_cycles
    assert [c.index for c in tracer.completions] == list(range(len(tracer.completions)))


def test_occupancy_timeline_is_bounded_and_steps(traced_runs):
    """Occupancy samples stay within [0, capacity] and cycles increase."""
    _, _, tracer, _, _ = traced_runs["chain"]
    for name, meta in tracer._stream_meta.items():
        timeline = tracer.occupancy_timeline(name)
        cycles = [c for c, _ in timeline]
        assert cycles == sorted(set(cycles)), name
        for _, occupancy in timeline:
            assert 0 <= occupancy <= meta["capacity"], name


def test_link_transits_only_on_latency_streams(traced_runs):
    """multi_dfe crossing streams report transits of exactly their latency."""
    _, _, tracer, _, _ = traced_runs["multi_dfe"]
    latency_streams = [n for n, m in tracer._stream_meta.items() if m["latency"] > 0]
    assert latency_streams, "multi_dfe case must produce at least one link stream"
    for name in tracer._stream_meta:
        transits = tracer.link_transits(name)
        if name not in latency_streams:
            assert transits == []
            continue
        latency = tracer._stream_meta[name]["latency"]
        assert transits
        for pushed, ready in transits:
            assert ready - pushed == 1 + latency, name


# -- analysis parity ----------------------------------------------------


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_analyze_trace_matches_analyze_run(traced_runs, topology):
    """Every row of the layer table is the event log's summed spans and compute window."""
    solved, _, tracer, _, _ = traced_runs[topology]
    table = LayerTable.of(solved.pipeline)
    assert table.cycles == tracer.total_cycles
    assert [row.name for row in table.rows] == list(tracer.kernel_spans)
    for row in table.rows:
        spans = tracer.kernel_spans[row.name]
        summed = tuple(
            sum(s.cycles for s in spans if s.kind == kind)
            for kind in ("compute", "starved", "blocked", "idle")
        )
        assert (row.busy, row.starved, row.blocked, row.idle) == summed, row.name
        compute = [s for s in spans if s.kind == "compute"]
        window = (compute[0].start, compute[-1].end) if compute else (None, None)
        assert (row.first_active, row.last_active) == window, row.name


# -- Chrome-trace export -----------------------------------------------


def test_chrome_trace_round_trips_and_validates(traced_runs, tmp_path):
    solved, _, tracer, _, _ = traced_runs["multi_dfe"]
    path = tracer.write_chrome_trace(tmp_path / "trace.json")
    data = load_chrome_trace(path)
    events = data["traceEvents"]
    assert data["otherData"]["total_cycles"] == solved.cycles
    phases = {e["ph"] for e in events}
    # Metadata, spans, counters, async transit pairs, and instants all present.
    assert {"M", "X", "C", "b", "e", "i"} <= phases
    for event in events:
        assert isinstance(event["name"], str)
        assert event["pid"] in (0, 1)
        if event["ph"] in ("X", "C", "b", "e", "i"):
            assert 0 <= event["ts"] <= solved.cycles
        if event["ph"] == "X":
            assert event["dur"] >= 1
    begins = sorted(e["id"] for e in events if e["ph"] == "b")
    ends = sorted(e["id"] for e in events if e["ph"] == "e")
    assert begins and begins == ends
    # The file is a single JSON object Perfetto can load directly.
    assert json.loads(path.read_text())["displayTimeUnit"] == "ms"


def test_no_images_keep_an_empty_sealed_trace():
    graph, kwargs = _case("chain")
    for mode in ("leap", "exhaustive"):
        tracer = Tracer()
        simulate(graph, _images(1, n=0), mode=mode, trace=tracer, **kwargs)
        assert tracer.total_cycles == 0 and tracer.event_count() == 0
        assert set(tracer.kernel_spans) and set(tracer.stream_events)  # registered


def test_tracer_is_single_use():
    graph, kwargs = _case("chain")
    tracer = Tracer()
    simulate(graph, _images(1, n=1), trace=tracer, **kwargs)
    with pytest.raises(ValueError, match="single-use"):
        simulate(graph, _images(1, n=1), trace=tracer, **kwargs)


def test_chrome_trace_image_lifecycle_spans(traced_runs):
    """Schema v2: every completed image renders as an admission->sink span."""
    solved, _, tracer, _, _ = traced_runs["chain"]
    data = tracer.to_chrome_trace()
    assert data["otherData"]["schema"] == "repro-trace/2"
    spans = [
        e for e in data["traceEvents"] if e["ph"] == "X" and e.get("cat") == "image"
    ]
    assert len(spans) == len(tracer.completions)
    by_index = {f"image {c.index}": c for c in tracer.completions}
    for span in spans:
        completion = by_index[span["name"]]
        assert completion.admission >= 0
        assert span["ts"] == completion.admission
        assert span["dur"] == max(1, completion.span_cycles)
        assert span["args"]["admission_cycle"] == completion.admission
        assert span["args"]["completion_cycle"] == completion.cycle
    # The dedicated "images" track is named via thread metadata.
    threads = [
        e for e in data["traceEvents"] if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert any(e["args"]["name"] == "images" for e in threads)
