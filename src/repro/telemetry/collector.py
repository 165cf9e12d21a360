"""The Telemetry collector: samples of a run, read off its solved schedule.

A :class:`Telemetry` passed to ``simulate(..., telemetry=...)`` samples the
run every ``sample_every`` simulated cycles and writes its state into
:attr:`Telemetry.registry`, the run's
:class:`~repro.telemetry.exporters.MetricFamily` records by name:

* per-kernel busy/starved/blocked/idle **cycle counters**, equal to the
  engine's own :class:`~repro.dataflow.kernel.KernelStats` at that cycle;
* per-stream **occupancy gauges** (instantaneous + high-water), sampled
  **occupancy histograms**, and push/pop/reject counters;
* per-crossing **link gauges** — required and measured Mbps against the
  MaxRing link's capacity (the paper's 2-bit @ 105 MHz = 210 Mbps budget) and the
  elements currently in flight;
* **derived gauges** — initiation interval, image latency, steady-state
  interval and FPS at the configured fabric clock, per-kernel duty cycle
  and stall-adjusted utilization;
* an **images-completed counter** read from the host sink;
* **per-image latency** — exact nearest-rank p50/p95/p99/max service
  latency gauges (admission to completion, matching
  :mod:`repro.telemetry.latency` bit-for-bit), a service-latency
  histogram observed once per completed image, and a host-queue depth
  gauge (images arrived but not yet admitted — the open-loop backlog).

Sampling by solving: a telemetered run is solved whole
(:func:`repro.dataflow.schedule.solve_run`), and each sample is the state
the reference loop holds after ticking ``cycle`` cycles, read off the
run's :class:`~repro.dataflow.schedule.Timeline` (:meth:`Telemetry.replay`
says when samples fall).  Nothing hooks the engine.  ``attach_pipeline``
writes a zero row per kernel, stream and crossing, and the families are
filled once, after the solve: the occupancy histogram takes every sample's
occupancy and the sample counter counts them, and every other metric is
written by label from the last sample.  A label-less metric (the cycle
count, the latency gauges) has no row until that sample writes it.  The
derived per-kernel gauges and the
initiation interval are read off a
:class:`~repro.dataflow.tracing.LayerTable` built from that sample.  The
sealed sample reconciles exactly with ``Engine.collect_stats`` and the
Tracer's summed spans, and every sample with the reference loop at the
same cycle — tested properties.

Like a :class:`~repro.dataflow.trace.Tracer`, a Telemetry is single-use:
create a fresh one per run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..dataflow.interval import mean_completion_interval
from ..dataflow.links import MAX4_FABRIC_MHZ, MAXRING_MBPS, link_utilization
from ..dataflow.tracing import LayerRow, LayerTable
from .exporters import Histogram, MetricFamily, render_prometheus, snapshot_registry
from .latency import LATENCY_BUCKETS, exact_quantile

if TYPE_CHECKING:
    from ..dataflow.links import LinkCrossing
    from ..dataflow.manager import Pipeline
    from ..dataflow.schedule import Timeline

__all__ = ["Telemetry", "DEFAULT_SAMPLE_EVERY", "OCCUPANCY_BUCKETS"]

DEFAULT_SAMPLE_EVERY = 256

# Geometric occupancy buckets: FIFO depths span flip-flop chains (capacity 4)
# to §III-B5 skip buffers (thousands of elements).
OCCUPANCY_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)

_STATES = ("busy", "starved", "blocked", "idle")
_EVENTS = ("push", "pop", "reject")

# Sample instants per vectorized pass over the timeline (bounds its memory).
_CHUNK_SAMPLES = 64


# The exported families in exposition order: (name, type, label names, help).
# Names, help texts and order are output bytes.
_FAMILIES: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro_cycles", "gauge", (), "Simulated cycles elapsed in the current run."),
    ("repro_telemetry_samples_total", "counter", (), "Telemetry samples taken."),
    ("repro_kernel_cycles_total", "counter", ("kernel", "state"),
     "Per-kernel cycles by classification (busy/starved/blocked/idle)."),
    ("repro_kernel_elements_total", "counter", ("kernel", "direction"),
     "Stream elements consumed (in) and produced (out) per kernel."),
    ("repro_kernel_duty_cycle", "gauge", ("kernel",), "Fraction of its live window each kernel spent computing."),
    ("repro_kernel_utilization", "gauge", ("kernel",),
     "Stall-adjusted utilization: busy / (busy + starved + blocked)."),
    ("repro_stream_occupancy", "gauge", ("stream",), "Instantaneous FIFO occupancy at the last sample."),
    ("repro_stream_occupancy_peak", "gauge", ("stream",), "High-water FIFO occupancy over the run."),
    ("repro_stream_capacity", "gauge", ("stream",), "Configured FIFO capacity."),
    ("repro_stream_events_total", "counter", ("stream", "event"), "Stream events by kind (push/pop/reject)."),
    ("repro_stream_occupancy_sampled", "histogram", ("stream",),
     "FIFO occupancy distribution, observed once per telemetry sample."),
    ("repro_link_required_mbps", "gauge", ("edge",), "Static bandwidth one element per clock needs (bits x f_clk)."),
    ("repro_link_measured_mbps", "gauge", ("edge",),
     "Measured average crossing bandwidth (pushes x bits x f_clk / cycles)."),
    ("repro_link_capacity_mbps", "gauge", ("edge",), "Link capacity per the LinkSpec."),
    ("repro_link_utilization", "gauge", ("edge",), "required_mbps / capacity_mbps."),
    ("repro_link_in_flight", "gauge", ("edge",), "Elements currently in transit on the link."),
    ("repro_link_within_budget", "gauge", ("edge",),
     "1 when the crossing fits the link budget (paper SIII-B6), else 0."),
    ("repro_images_completed_total", "counter", (), "Images fully emerged from the sink."),
    ("repro_initiation_interval_cycles", "gauge", (),
     "Cycles until every active kernel had produced/consumed at least once."),
    ("repro_image_latency_cycles", "gauge", (), "Cycles until the first image fully emerged."),
    ("repro_steady_state_interval_cycles", "gauge", (), "Mean cycles between consecutive image completions."),
    ("repro_throughput_fps", "gauge", (), "Steady-state images/second at the configured fabric clock."),
    ("repro_image_service_latency_quantile_cycles", "gauge", ("quantile",),
     "Exact nearest-rank service-latency quantile (admission to completion)."),
    ("repro_image_service_latency_cycles", "histogram", (),
     "Per-image service latency, observed once per completed image."),
    ("repro_host_queue_depth", "gauge", (), "Images arrived at the host but not yet admitted into the fabric."),
)


def _declare_families() -> dict[str, MetricFamily]:
    """A fresh, empty family per :data:`_FAMILIES` row, by name, in exposition order."""
    return {
        name: MetricFamily(name, help, type, labelnames)
        for name, type, labelnames, help in _FAMILIES
    }


def _edge(crossing: "LinkCrossing") -> str:
    return "->".join(crossing.edge)


class Telemetry:
    """Samples one run into its metric families (single-use)."""

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
        self.sample_every = int(sample_every)
        self.registry = _declare_families()
        self.manifest: dict[str, Any] = {}
        self.pipeline: "Pipeline | None" = None
        self.finished = False
        self.total_cycles: int | None = None
        # The per-kernel layer table as of the last sample (all zero until one is taken).
        self._table = LayerTable([], 0)
        # Summary of the last sample (dashboard food).
        self.last: dict[str, Any] = {"cycle": 0, "images": 0}

    def _values(self) -> dict[str, dict[tuple[str, ...], Any]]:
        return {name: family.values for name, family in self.registry.items()}

    # -- setup -----------------------------------------------------------
    def attach_pipeline(self, pipeline: "Pipeline") -> None:
        """Adopt a built pipeline: a zero row per kernel, stream and crossing."""
        if self.pipeline is not None or self.finished:
            raise ValueError("a Telemetry is single-use; create a fresh one per run")
        self.pipeline = pipeline
        v = self._values()
        for kernel in pipeline.engine.kernels:
            name = kernel.name
            for state in _STATES:
                v["repro_kernel_cycles_total"][name, state] = 0
            for direction in ("in", "out"):
                v["repro_kernel_elements_total"][name, direction] = 0
            v["repro_kernel_duty_cycle"][name,] = v["repro_kernel_utilization"][name,] = 0
        self._table = LayerTable(
            [LayerRow(kernel.name, None, None, 0, 0, 0, 0) for kernel in pipeline.engine.kernels], 0
        )
        for stream in pipeline.engine.streams:
            key = (stream.name,)
            v["repro_stream_occupancy"][key] = v["repro_stream_occupancy_peak"][key] = 0
            v["repro_stream_capacity"][key] = stream.capacity
            for event in _EVENTS:
                v["repro_stream_events_total"][stream.name, event] = 0
            v["repro_stream_occupancy_sampled"][key] = Histogram(OCCUPANCY_BUCKETS)
        for crossing in pipeline.crossings:
            key = (_edge(crossing),)
            util = link_utilization(crossing.required_mbps)
            v["repro_link_required_mbps"][key] = crossing.required_mbps
            v["repro_link_measured_mbps"][key] = v["repro_link_in_flight"][key] = 0
            v["repro_link_capacity_mbps"][key] = MAXRING_MBPS
            v["repro_link_utilization"][key] = util
            v["repro_link_within_budget"][key] = 1.0 if util <= 1.0 else 0.0

    # -- sampling --------------------------------------------------------
    def replay(self, timeline: "Timeline") -> None:
        """Fill the families from the run's solved ``timeline`` (``simulate`` calls this).

        Samples fall every :attr:`sample_every` cycles below the run's end,
        then one sealing sample at the end; a run cut at its cycle budget
        samples up to the budget and stays unsealed.  Only the occupancy
        histogram and the sample counter accumulate over the samples; every
        other metric is the state at the last one, so it is written once
        from that sample.
        """
        assert self.pipeline is not None, "attach_pipeline comes first"
        end, sealed = timeline.cycles, not timeline.aborted
        instants = list(range(self.sample_every, end if sealed else end + 1, self.sample_every))
        if sealed:
            instants.append(end)
        if not instants:
            return
        histograms = self.registry["repro_stream_occupancy_sampled"].values
        sampled = [histograms[stream.name,] for stream in self.pipeline.engine.streams]
        for lo in range(0, len(instants), _CHUNK_SAMPLES):
            kernels, streams, images = timeline.at(self.pipeline, instants[lo : lo + _CHUNK_SAMPLES])
            for rows in streams:
                for histogram, row in zip(sampled, rows):
                    histogram.observe(row[0])
        self.registry["repro_telemetry_samples_total"].values[()] = len(instants)
        if sealed:
            self.finished, self.total_cycles = True, end
        self._fill(instants[-1], kernels[-1], streams[-1], images[-1], timeline)

    def _fill(
        self,
        cycle: int,
        kernels: list[list[int]],
        streams: list[list[int]],
        images: list[int],
        timeline: "Timeline",
    ) -> None:
        """Write the run's state at ``cycle`` into the families and :attr:`last`.

        ``kernels``, ``streams`` and ``images`` are one instant of
        :meth:`Timeline.at <repro.dataflow.schedule.Timeline.at>`.
        """
        assert self.pipeline is not None
        engine = self.pipeline.engine
        v = self._values()
        v["repro_cycles"][()] = cycle

        rows = []
        for kernel, row in zip(engine.kernels, kernels):
            name = kernel.name
            for state, value in zip(_STATES, row):
                v["repro_kernel_cycles_total"][name, state] = value
            busy, starved, blocked, idle, elements_in, elements_out, first, last = row
            v["repro_kernel_elements_total"][name, "in"] = elements_in
            v["repro_kernel_elements_total"][name, "out"] = elements_out
            if first < 0:  # not active yet
                first = last = None
            layer = LayerRow(name, first, last, busy, starved, blocked, idle)
            if not layer.is_idle:
                v["repro_kernel_duty_cycle"][name,] = layer.duty
            v["repro_kernel_utilization"][name,] = layer.utilization
            rows.append(layer)
        self._table = LayerTable(rows, cycle)

        for stream, row in zip(engine.streams, streams):
            v["repro_stream_occupancy"][stream.name,] = row[0]
            v["repro_stream_occupancy_peak"][stream.name,] = row[1]
            for event, value in zip(_EVENTS, row[2:5]):
                v["repro_stream_events_total"][stream.name, event] = value

        row_of = {stream.name: row for stream, row in zip(engine.streams, streams)}
        for crossing, stream in zip(self.pipeline.crossings, self.pipeline.crossing_streams):
            key, row = (_edge(crossing),), row_of[stream.name]
            v["repro_link_in_flight"][key] = row[5]
            if cycle > 0:
                v["repro_link_measured_mbps"][key] = row[2] * stream.bits * MAX4_FABRIC_MHZ / cycle

        completed, admitted, arrived = images
        completions = timeline.completions[:completed]
        v["repro_images_completed_total"][()] = len(completions)
        if completions:
            v["repro_image_latency_cycles"][()] = completions[0]
        # None under two completions: the gauges simply stay unset (n/a).
        interval = mean_completion_interval(completions)
        if interval is not None:
            v["repro_steady_state_interval_cycles"][()] = interval
            if interval > 0:
                v["repro_throughput_fps"][()] = MAX4_FABRIC_MHZ * 1e6 / interval
        initiation = self._table.initiation_interval
        if initiation is not None:
            v["repro_initiation_interval_cycles"][()] = initiation

        # Per-image service latency: sink completions paired with source
        # admissions by image index.
        admissions = timeline.admissions[:admitted]
        service = [done - admitted_at for done, admitted_at in zip(completions, admissions)]
        quantiles: dict[str, int | None] = dict.fromkeys(
            ("latency_p50", "latency_p95", "latency_p99", "latency_max")
        )
        if service:
            histogram = v["repro_image_service_latency_cycles"][()] = Histogram(LATENCY_BUCKETS)
            for value in service:
                histogram.observe(value)
            for key, q in zip(quantiles, (0.5, 0.95, 0.99, 1.0)):
                quantiles[key] = exact_quantile(service, q)  # nearest rank: q = 1.0 is the max
                v["repro_image_service_latency_quantile_cycles"][str(q),] = quantiles[key]
        queue_depth = arrived - admitted
        v["repro_host_queue_depth"][()] = queue_depth

        self.last = {
            "cycle": cycle,
            "images": len(completions),
            "latency": completions[0] if completions else None,
            "interval": interval,
            "fps": (MAX4_FABRIC_MHZ * 1e6 / interval) if interval else None,
            "initiation": initiation,
            **quantiles,
            "queue_depth": queue_depth,
        }

    # -- views -----------------------------------------------------------
    def kernel_rows(self) -> list[dict[str, Any]]:
        """Per-kernel values as of the last sample (dashboard/report food)."""
        return [
            {
                "name": row.name,
                "busy": row.busy,
                "starved": row.starved,
                "blocked": row.blocked,
                "idle": row.idle,
                "utilization": row.utilization,
                "duty": row.duty,
            }
            for row in self._table.rows
        ]

    def stream_rows(self) -> list[dict[str, Any]]:
        """Per-stream occupancy as of the last sample."""
        occupancy = self.registry["repro_stream_occupancy"].values
        peak = self.registry["repro_stream_occupancy_peak"].values
        return [
            {
                "name": key[0],
                "occupancy": int(occupancy[key]),
                "peak": int(peak[key]),
                "capacity": int(capacity),
            }
            for key, capacity in self.registry["repro_stream_capacity"].values.items()
        ]

    # -- export ----------------------------------------------------------
    def export_prometheus(self) -> str:
        """The families in Prometheus text exposition format."""
        return render_prometheus(self.registry.values(), manifest=self.manifest or None)

    def export_json(self) -> dict[str, Any]:
        """The families plus manifest as one JSON-serialisable snapshot."""
        return {
            "schema": "repro-telemetry/1",
            "manifest": dict(self.manifest),
            "cycles": self.last.get("cycle", 0),
            "finished": self.finished,
            "metrics": snapshot_registry(self.registry.values()),
        }
