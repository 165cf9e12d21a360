"""Per-image latency: lifecycle records, exact percentiles, tail blame.

The paper's headline serving numbers — initiation interval, steady-state
throughput, the near-free MaxRing hand-off (§III-B6) — are all *per-image*
quantities, yet an aggregate run only reports the first image's latency.
This module turns the lifecycle instants the dataflow layer now stamps into
a per-image record set and a distribution view:

* **records** — one :class:`ImageRecord` per completed image: host arrival
  (open-loop runs), fabric admission (the source's first push), first pixel
  out of every partition (inter-DFE crossing marks), and sink completion;
* **exact percentiles** — nearest-rank p50/p95/p99/max over the cycle
  domain, deterministic and therefore bit-identical between solved runs
  and the exhaustive loop (both produce the identical event timeline);
* **per-partition breakdown** — segment latencies for multi-DFE runs
  (ingest → crossing, crossing → sink), showing where a span is spent;
* **tail attribution** — the kernel and edge responsible for the slowest
  decile, reusing the stall accounting :mod:`repro.telemetry.attribution`
  ranks bottlenecks with.

Everything reconciles, exactly, with what already exists: record ``i``'s
completion equals the sink's ``completion_cycles[i]`` (so record 0's
completion *is* the aggregate ``RunResult.latency_cycles``), and a traced
run's :class:`~repro.dataflow.trace.ImageCompletion` events carry the same
(admission, completion) pairs — :func:`reconcile` asserts both round trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..dataflow.links import MAX4_FABRIC_MHZ

if TYPE_CHECKING:
    from ..dataflow.engine import RunResult
    from ..dataflow.manager import Pipeline
    from ..dataflow.trace import Tracer

__all__ = [
    "LATENCY_BUCKETS",
    "ImageRecord",
    "LatencySummary",
    "LatencyReport",
    "TailAttribution",
    "exact_quantile",
    "image_records",
    "latency_report",
    "reconcile",
    "segment_summaries",
    "summarize",
    "tail_attribution",
]

# Cycle-domain histogram buckets for registry latency histograms: geometric
# powers of two spanning flip-flop-latency tiny chains to paper-scale runs.
LATENCY_BUCKETS = tuple(float(1 << e) for e in range(8, 25))


@dataclass(slots=True)
class ImageRecord:
    """The lifecycle of one image through the pipeline, in cycles.

    ``arrival`` is when the image became available at the host (0 for every
    image in a closed-loop run), ``admission`` when its first element
    entered the fabric, ``completion`` when its last element reached the
    sink.  ``first_out`` maps a boundary stream name (inter-DFE crossings
    and the sink edge) to the cycle the image's first element was pushed
    onto it.
    """

    index: int
    arrival: int
    admission: int
    completion: int
    first_out: dict[str, int] = field(default_factory=dict)

    @property
    def queue_wait(self) -> int:
        """Cycles spent waiting in the host queue before admission."""
        return self.admission - self.arrival

    @property
    def service_cycles(self) -> int:
        """Ingest-to-sink span: the per-image latency headline."""
        return self.completion - self.admission

    @property
    def sojourn_cycles(self) -> int:
        """Arrival-to-sink span: service plus host-queue wait."""
        return self.completion - self.arrival

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "arrival": self.arrival,
            "admission": self.admission,
            "completion": self.completion,
            "queue_wait": self.queue_wait,
            "service_cycles": self.service_cycles,
            "sojourn_cycles": self.sojourn_cycles,
            "first_out": dict(self.first_out),
        }


def exact_quantile(values: list[int], q: float) -> int:
    """Nearest-rank quantile over integer cycle counts (no interpolation).

    The nearest-rank definition (value at rank ``ceil(q * n)``) always
    returns an observed value, so quantiles stay in the cycle domain and
    are bit-identical wherever the underlying records are — the property
    the solved/exhaustive reconciliation tests pin down.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(slots=True)
class LatencySummary:
    """Exact distribution summary of one cycle-domain quantity.

    All fields are ``None`` for an empty sample (an aborted run with zero
    completed images) — renderers print ``n/a`` instead of dividing.
    """

    count: int
    p50: int | None
    p95: int | None
    p99: int | None
    max: int | None
    mean: float | None

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
            "mean": self.mean,
        }

    def render(self) -> str:
        if not self.count:
            return "n/a (no completed images)"
        return (
            f"p50 {self.p50:,} | p95 {self.p95:,} | p99 {self.p99:,} | "
            f"max {self.max:,} cycles (n={self.count})"
        )


def summarize(values: list[int]) -> LatencySummary:
    """Exact percentile summary of ``values`` (``n/a`` markers when empty)."""
    if not values:
        return LatencySummary(count=0, p50=None, p95=None, p99=None, max=None, mean=None)
    return LatencySummary(
        count=len(values),
        p50=exact_quantile(values, 0.50),
        p95=exact_quantile(values, 0.95),
        p99=exact_quantile(values, 0.99),
        max=max(values),
        mean=sum(values) / len(values),
    )


@dataclass(slots=True)
class TailAttribution:
    """Blame for the slowest decile of images."""

    threshold_cycles: int  # p90 of service latency: the decile boundary
    image_indices: list[int]  # images at or above the threshold
    kernel: str  # the stall-dominant kernel over the run
    verdict: str  # "starved" | "blocked" | "busy" | "idle"
    edge: str | None  # the starving input / back-pressuring output stream
    edge_role: str | None

    def render(self) -> str:
        where = ""
        if self.edge is not None and self.edge_role is not None:
            where = f" through {self.edge_role} edge {self.edge!r}"
        return (
            f"slowest decile (>= {self.threshold_cycles:,} cycles, "
            f"{len(self.image_indices)} image(s)): dominated by {self.kernel!r} "
            f"({self.verdict}{where})"
        )


def tail_attribution(records: list[ImageRecord], pipeline: "Pipeline") -> "TailAttribution | None":
    """Name the kernel/edge responsible for the slowest decile of images.

    Reads the run's :class:`~repro.dataflow.tracing.LayerTable`: among the
    compute kernels (host endpoints excluded — their stalls *are* the
    latency being explained), the one with the most stall cycles carries
    the blame, together with the specific starving/back-pressuring edge.
    """
    from ..dataflow.tracing import LayerTable

    if not records:
        return None
    values = [r.service_cycles for r in records]
    threshold = exact_quantile(values, 0.90)
    slow = [r.index for r in records if r.service_cycles >= threshold]
    candidates = [
        k
        for k in LayerTable.of(pipeline).rows
        if k.name not in (pipeline.source.name, pipeline.sink.name)
    ]
    if not candidates:
        return None
    worst = max(candidates, key=lambda k: (k.starved + k.blocked, -k.utilization))
    return TailAttribution(
        threshold_cycles=threshold,
        image_indices=slow,
        kernel=worst.name,
        verdict=worst.verdict,
        edge=worst.edge,
        edge_role=worst.edge_role,
    )


@dataclass(slots=True)
class LatencyReport:
    """The per-image latency view of one run."""

    graph_name: str
    cycles: int
    n_images: int  # completed images
    open_loop: bool
    records: list[ImageRecord]
    service: LatencySummary  # admission -> completion
    sojourn: LatencySummary  # arrival -> completion (== service closed-loop)
    queue_wait: LatencySummary  # arrival -> admission
    segments: list[tuple[str, LatencySummary]]  # per-partition breakdown
    tail: TailAttribution | None

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro-latency/1",
            "graph": self.graph_name,
            "cycles": self.cycles,
            "images": self.n_images,
            "open_loop": self.open_loop,
            "fclk_mhz": MAX4_FABRIC_MHZ,
            "service_cycles": self.service.as_dict(),
            "sojourn_cycles": self.sojourn.as_dict(),
            "queue_wait_cycles": self.queue_wait.as_dict(),
            "segments": [
                {"segment": label, **summary.as_dict()} for label, summary in self.segments
            ],
            "tail": None
            if self.tail is None
            else {
                "threshold_cycles": self.tail.threshold_cycles,
                "images": list(self.tail.image_indices),
                "kernel": self.tail.kernel,
                "verdict": self.tail.verdict,
                "edge": self.tail.edge,
                "edge_role": self.tail.edge_role,
            },
            "records": [r.as_dict() for r in self.records],
        }

    def render(self) -> str:
        lines = [
            f"latency {self.graph_name}: {self.n_images} image(s) over "
            f"{self.cycles:,} cycles ({'open' if self.open_loop else 'closed'} loop)"
        ]
        lines.append(f"  service latency: {self.service.render()}")
        if self.open_loop:
            lines.append(f"  host-queue wait: {self.queue_wait.render()}")
            lines.append(f"  sojourn latency: {self.sojourn.render()}")
        for label, summary in self.segments:
            lines.append(f"  segment {label}: {summary.render()}")
        if self.tail is not None:
            lines.append(f"  {self.tail.render()}")
        return "\n".join(lines)


def _boundary_streams(pipeline: "Pipeline") -> list[Any]:
    """Marked boundary streams in dataflow order: crossings, then sink edge."""
    ordered: list[Any] = pipeline.crossing_streams
    sink_edge = pipeline.sink.inputs[0] if pipeline.sink.inputs else None
    if sink_edge is not None and sink_edge.mark_every:
        ordered.append(sink_edge)
    return ordered


def image_records(pipeline: "Pipeline") -> list[ImageRecord]:
    """Lifecycle records for every *completed* image of a finished run."""
    source = pipeline.source
    sink = pipeline.sink
    completions = sink.completion_cycles
    admissions = source.admission_cycles
    arrivals = source.arrival_cycles
    n = len(completions)
    if len(admissions) < n:
        raise ValueError(
            f"{n} completion(s) but only {len(admissions)} admission(s); "
            "the source never stamped these images"
        )
    boundaries = _boundary_streams(pipeline)
    records: list[ImageRecord] = []
    for i in range(n):
        first_out = {
            stream.name: stream.mark_cycles[i]
            for stream in boundaries
            if i < len(stream.mark_cycles)
        }
        records.append(
            ImageRecord(
                index=i,
                arrival=arrivals[i] if arrivals is not None else 0,
                admission=admissions[i],
                completion=completions[i],
                first_out=first_out,
            )
        )
    return records


def _segments(pipeline: "Pipeline", records: list[ImageRecord]) -> list[tuple[str, LatencySummary]]:
    """Per-partition segment latencies: admission -> marks ... -> completion."""
    boundaries = _boundary_streams(pipeline)
    if not boundaries or not records:
        return []
    segments: list[tuple[str, LatencySummary]] = []
    prev_label = "ingest"
    prev_cycles = [r.admission for r in records]
    for stream in boundaries:
        label = f"{prev_label} -> {stream.name}"
        cycles = [r.first_out[stream.name] for r in records if stream.name in r.first_out]
        if len(cycles) != len(records):
            continue
        segments.append(
            (label, summarize([c - p for c, p in zip(cycles, prev_cycles)]))
        )
        prev_label = stream.name
        prev_cycles = cycles
    segments.append(
        (
            f"{prev_label} -> completion",
            summarize([r.completion - p for r, p in zip(records, prev_cycles)]),
        )
    )
    return segments


def segment_summaries(pipeline: "Pipeline") -> list[tuple[str, LatencySummary]]:
    """Per-partition segment latencies of a finished run (public API).

    The same decomposition :func:`latency_report` embeds — admission to
    each inter-DFE crossing's first-pixel-out mark, then to completion —
    exposed on its own so the partition planner can attach measured
    per-device segments to a plan without building a full report.
    """
    return _segments(pipeline, image_records(pipeline))


def latency_report(pipeline: "Pipeline", cycles: int) -> LatencyReport:
    """Build the per-image latency report from a finished (or aborted) run."""
    records = image_records(pipeline)
    return LatencyReport(
        graph_name=pipeline.graph.name,
        cycles=cycles,
        n_images=len(records),
        open_loop=pipeline.source.arrival_cycles is not None,
        records=records,
        service=summarize([r.service_cycles for r in records]),
        sojourn=summarize([r.sojourn_cycles for r in records]),
        queue_wait=summarize([r.queue_wait for r in records]),
        segments=_segments(pipeline, records),
        tail=tail_attribution(records, pipeline),
    )


def reconcile(
    report: LatencyReport,
    run: "RunResult | None" = None,
    tracer: "Tracer | None" = None,
) -> None:
    """Assert the report agrees exactly with the aggregate run and/or trace.

    * against a :class:`RunResult`: record ``i``'s completion equals
      ``completion_cycles[i]`` (so record 0's completion is the aggregate
      ``latency_cycles``);
    * against a :class:`Tracer`: every ``ImageCompletion`` event's
      ``(index, admission, cycle)`` triple matches the record's.

    Raises :class:`ValueError` on the first disagreement; silence means the
    three views of the run are bit-identical.
    """
    if run is not None:
        got = [r.completion for r in report.records]
        if got != list(run.completion_cycles):
            raise ValueError(
                f"latency records disagree with RunResult completions: "
                f"{got} != {list(run.completion_cycles)}"
            )
    if tracer is not None:
        if len(tracer.completions) != len(report.records):
            raise ValueError(
                f"{len(tracer.completions)} traced completion(s) for "
                f"{len(report.records)} record(s)"
            )
        for event, record in zip(tracer.completions, report.records):
            if event.index != record.index or event.cycle != record.completion:
                raise ValueError(
                    f"traced completion {event} disagrees with record {record}"
                )
            if event.admission >= 0 and event.admission != record.admission:
                raise ValueError(
                    f"traced admission {event.admission} != record admission "
                    f"{record.admission} for image {event.index}"
                )
