"""Per-image latency observability: records, percentiles, reconciliation.

The load-bearing property: latency percentiles are *bit-identical* between
solved runs and the exhaustive loop on every topology — single
DFE chains, residual graphs, and a 2-DFE MaxRing partition — in both
closed-loop and open-loop (rate-limited) runs, and every record reconciles
exactly with the Tracer's completion events and the aggregate
``RunResult.latency_cycles``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow import Tracer, simulate
from repro.models import direct_resnet18_graph, direct_vgg_graph
from repro.telemetry import (
    LatencySummary,
    exact_quantile,
    image_records,
    latency_report,
    reconcile,
)
from repro.telemetry.latency import summarize

N_IMAGES = 5


def _chain_graph():
    return direct_vgg_graph(16, width=0.0625, classes=4)


def _residual_graph():
    return direct_resnet18_graph(16, width=0.0625, classes=4, stages=[(64, 1, 1)])


def _images(graph, n=N_IMAGES, seed=0):
    rng = np.random.default_rng(seed)
    spec = graph.input_spec
    return rng.integers(0, 4, size=(n, spec.height, spec.width, spec.channels))


def _halves(graph):
    """A contiguous 2-DFE partition of the compute nodes (MaxRing link)."""
    names = [n for n in graph.order if n != graph.input_name]
    half = len(names) // 2
    return [names[:half], names[half:]]


TOPOLOGIES = {
    "chain": lambda: (_chain_graph(), None),
    "residual": lambda: (_residual_graph(), None),
    "chain-2dfe": lambda: (_chain_graph(), "halves"),
}


def _build(name):
    graph, part = TOPOLOGIES[name]()
    partition = _halves(graph) if part == "halves" else None
    return graph, partition


def _open_loop_schedule(n, gap=4000):
    return [i * gap for i in range(n)]


class TestExactQuantile:
    def test_nearest_rank_returns_observed_values(self):
        values = [10, 20, 30, 40, 50]
        assert exact_quantile(values, 0.50) == 30
        assert exact_quantile(values, 0.95) == 50
        assert exact_quantile(values, 0.99) == 50
        assert exact_quantile(values, 1.0) == 50
        assert exact_quantile([7], 0.5) == 7

    def test_empty_and_bad_q_raise(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)
        with pytest.raises(ValueError):
            exact_quantile([1], 0.0)
        with pytest.raises(ValueError):
            exact_quantile([1], 1.5)

    def test_summarize_empty_is_explicit_na(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.p50 is None and summary.p99 is None and summary.max is None
        assert "n/a" in summary.render()

    def test_summary_is_comparable(self):
        assert summarize([3, 1, 2]) == summarize([1, 2, 3])
        assert isinstance(summarize([1]), LatencySummary)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("open_loop", [False, True], ids=["closed", "open"])
def test_percentiles_bit_identical_fast_vs_exhaustive(topology, open_loop):
    graph, partition = _build(topology)
    images = _images(graph)
    arrivals = _open_loop_schedule(N_IMAGES) if open_loop else None
    kwargs = dict(partition=partition, arrival_cycles=arrivals)
    slow = simulate(graph, images, mode="exhaustive", **kwargs)
    solved = simulate(graph, images, mode="leap", **kwargs)
    rep_slow = latency_report(slow.pipeline, slow.cycles)
    rep_solved = latency_report(solved.pipeline, solved.cycles)
    assert rep_solved.service == rep_slow.service
    assert rep_solved.queue_wait == rep_slow.queue_wait
    assert rep_solved.sojourn == rep_slow.sojourn
    assert [r.as_dict() for r in rep_solved.records] == [r.as_dict() for r in rep_slow.records]
    assert [s for s in rep_solved.as_dict()["segments"]] == [
        s for s in rep_slow.as_dict()["segments"]
    ]


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_records_reconcile_with_tracer_and_aggregate(topology):
    graph, partition = _build(topology)
    images = _images(graph)
    tracer = Tracer()
    run = simulate(graph, images, partition=partition, trace=tracer)
    report = latency_report(run.pipeline, run.cycles)
    assert report.n_images == N_IMAGES
    # Record 0's completion IS the aggregate first-image latency.
    assert report.records[0].completion == run.latency_cycles
    # Every record agrees with both the RunResult and the Tracer events.
    reconcile(report, run=run.run, tracer=tracer)


def test_reconcile_detects_disagreement():
    graph, partition = _build("chain")
    run = simulate(graph, _images(graph, n=2), partition=partition)
    report = latency_report(run.pipeline, run.cycles)
    report.records[1].completion += 1
    with pytest.raises(ValueError, match="completion"):
        reconcile(report, run=run.run)


def test_open_loop_queue_wait_and_arrival_semantics():
    graph, _ = _build("chain")
    images = _images(graph, n=4)
    # Arrivals far slower than service: the fabric idles between images and
    # nothing ever waits in the host queue.
    slack = simulate(graph, images, arrival_cycles=[i * 50_000 for i in range(4)])
    slack_report = latency_report(slack.pipeline, slack.cycles)
    assert all(r.queue_wait == 0 for r in slack_report.records)
    assert all(r.admission == r.arrival for r in slack_report.records)
    # Arrivals far faster than service: later images queue at the host, so
    # sojourn (arrival->sink) strictly exceeds service (admission->sink).
    burst = simulate(graph, images, arrival_cycles=[0, 1, 2, 3])
    burst_report = latency_report(burst.pipeline, burst.cycles)
    assert burst_report.records[-1].queue_wait > 0
    assert burst_report.sojourn.max > burst_report.service.max
    # Closed-loop runs define arrival == cycle 0 for every image.
    closed = simulate(graph, images)
    closed_report = latency_report(closed.pipeline, closed.cycles)
    assert closed_report.open_loop is False
    assert all(r.arrival == 0 for r in closed_report.records)


def test_two_dfe_partition_breakdown_names_the_crossing():
    graph, partition = _build("chain-2dfe")
    run = simulate(graph, _images(graph), partition=partition)
    assert len(run.pipeline.crossings) == 1
    report = latency_report(run.pipeline, run.cycles)
    # Two boundary streams: the MaxRing crossing and the sink edge, giving
    # three lifecycle instants per image and two per-partition segments.
    crossing = run.pipeline.crossings[0]
    crossing_prefix = f"{crossing.edge[0]}->{crossing.edge[1]}["
    for record in report.records:
        assert len(record.first_out) == 2
        assert any(name.startswith(crossing_prefix) for name in record.first_out)
    assert len(report.segments) == 3
    # Segment spans are positive and sum consistently with the service span:
    # ingest -> crossing -> completion covers each image's full service time.
    for record in report.records:
        marks = sorted(record.first_out.values())
        assert record.admission <= marks[0] <= marks[1] <= record.completion


def test_tail_attribution_names_a_kernel_and_edge():
    graph, partition = _build("chain")
    run = simulate(graph, _images(graph, n=6), partition=partition)
    report = latency_report(run.pipeline, run.cycles)
    assert report.tail is not None
    engine_kernels = {k.name for k in run.pipeline.engine.kernels}
    assert report.tail.kernel in engine_kernels
    assert report.tail.kernel not in ("host_source", "host_sink")
    assert report.tail.image_indices  # at least one image in the slowest decile
    rendered = report.render()
    assert "slowest decile" in rendered


def test_image_records_empty_on_zero_completions():
    from repro.dataflow import build_pipeline

    graph, _ = _build("chain")
    images = _images(graph, n=2)
    # Withhold every image beyond the cycle budget: the run aborts with
    # nothing completed, and the report must degrade to explicit n/a.
    pipeline = build_pipeline(graph, images, arrival_cycles=[10**9, 2 * 10**9])
    with pytest.raises(RuntimeError):
        pipeline.engine.run(lambda: pipeline.sink.done, max_cycles=5_000)
    report = latency_report(pipeline, 5_000)
    assert report.n_images == 0
    assert image_records(pipeline) == []
    assert report.service.count == 0
    assert "n/a (no completed images)" in report.render()
    # And the JSON form survives zero images (no division anywhere).
    payload = report.as_dict()
    assert payload["images"] == 0
