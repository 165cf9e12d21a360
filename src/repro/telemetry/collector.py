"""The Telemetry collector: samples of a run, read off its solved schedule.

A :class:`Telemetry` passed to ``simulate(..., telemetry=...)`` samples the
run every ``sample_every`` simulated cycles and fills a typed
:class:`~repro.telemetry.registry.MetricsRegistry` with its state:

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
says when samples fall).  Nothing hooks the engine.  The registry is
filled once, after the solve: the occupancy histogram takes every sample's
occupancy and the sample counter counts them, and every other metric is
the state at the last sample.  The derived per-kernel gauges and the
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
from .latency import LATENCY_BUCKETS, exact_quantile
from .registry import Counter, Gauge, Histogram, MetricsRegistry

if TYPE_CHECKING:
    from ..dataflow.manager import Pipeline
    from ..dataflow.schedule import Timeline

__all__ = ["Telemetry", "DEFAULT_SAMPLE_EVERY", "OCCUPANCY_BUCKETS"]

DEFAULT_SAMPLE_EVERY = 256

# Geometric occupancy buckets: FIFO depths span flip-flop chains (capacity 4)
# to §III-B5 skip buffers (thousands of elements).
OCCUPANCY_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)

_STATES = ("busy", "starved", "blocked", "idle")

# Sample instants per vectorized pass over the timeline (bounds its memory).
_CHUNK_SAMPLES = 64


class Telemetry:
    """Samples one run into a metrics registry (single-use)."""

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
        self.sample_every = int(sample_every)
        self.registry = MetricsRegistry()
        self.manifest: dict[str, Any] = {}
        self.pipeline: "Pipeline | None" = None
        self.finished = False
        self.total_cycles: int | None = None
        # The per-kernel layer table as of the last sample (all zero until one is taken).
        self._table = LayerTable([], 0)
        # Summary of the last sample (dashboard food).
        self.last: dict[str, Any] = {"cycle": 0, "images": 0}
        # Metric children resolved once per kernel, stream and crossing by
        # attach_pipeline, in engine order.
        self._kernels: list[tuple[str, list[Counter], Gauge, Gauge]] = []
        self._streams: list[tuple[str, list[Counter], Gauge, Gauge, Gauge, Histogram]] = []
        self._links: list[tuple[int, int, Gauge, Gauge]] = []
        self._declare_families()

    # -- setup -----------------------------------------------------------
    def _declare_families(self) -> None:
        r = self.registry
        self._m_cycles = r.gauge("repro_cycles", "Simulated cycles elapsed in the current run.")
        self._m_samples = r.counter("repro_telemetry_samples_total", "Telemetry samples taken.")
        self._m_kcycles = r.counter(
            "repro_kernel_cycles_total",
            "Per-kernel cycles by classification (busy/starved/blocked/idle).",
            ("kernel", "state"),
        )
        self._m_kelems = r.counter(
            "repro_kernel_elements_total",
            "Stream elements consumed (in) and produced (out) per kernel.",
            ("kernel", "direction"),
        )
        self._m_duty = r.gauge(
            "repro_kernel_duty_cycle",
            "Fraction of its live window each kernel spent computing.",
            ("kernel",),
        )
        self._m_util = r.gauge(
            "repro_kernel_utilization",
            "Stall-adjusted utilization: busy / (busy + starved + blocked).",
            ("kernel",),
        )
        self._m_occ = r.gauge(
            "repro_stream_occupancy", "Instantaneous FIFO occupancy at the last sample.", ("stream",)
        )
        self._m_peak = r.gauge(
            "repro_stream_occupancy_peak", "High-water FIFO occupancy over the run.", ("stream",)
        )
        self._m_cap = r.gauge("repro_stream_capacity", "Configured FIFO capacity.", ("stream",))
        self._m_sevents = r.counter(
            "repro_stream_events_total",
            "Stream events by kind (push/pop/reject).",
            ("stream", "event"),
        )
        self._m_socc = r.histogram(
            "repro_stream_occupancy_sampled",
            "FIFO occupancy distribution, observed once per telemetry sample.",
            OCCUPANCY_BUCKETS,
            ("stream",),
        )
        link_labels = ("edge",)
        self._m_link = {
            "required": r.gauge(
                "repro_link_required_mbps",
                "Static bandwidth one element per clock needs (bits x f_clk).",
                link_labels,
            ),
            "measured": r.gauge(
                "repro_link_measured_mbps",
                "Measured average crossing bandwidth (pushes x bits x f_clk / cycles).",
                link_labels,
            ),
            "capacity": r.gauge(
                "repro_link_capacity_mbps", "Link capacity per the LinkSpec.", link_labels
            ),
            "utilization": r.gauge(
                "repro_link_utilization", "required_mbps / capacity_mbps.", link_labels
            ),
            "in_flight": r.gauge(
                "repro_link_in_flight", "Elements currently in transit on the link.", link_labels
            ),
            "within": r.gauge(
                "repro_link_within_budget",
                "1 when the crossing fits the link budget (paper SIII-B6), else 0.",
                link_labels,
            ),
        }
        self._m_images = r.counter("repro_images_completed_total", "Images fully emerged from the sink.")
        self._m_initiation = r.gauge(
            "repro_initiation_interval_cycles",
            "Cycles until every active kernel had produced/consumed at least once.",
        )
        self._m_latency = r.gauge(
            "repro_image_latency_cycles", "Cycles until the first image fully emerged."
        )
        self._m_interval = r.gauge(
            "repro_steady_state_interval_cycles",
            "Mean cycles between consecutive image completions.",
        )
        self._m_fps = r.gauge(
            "repro_throughput_fps",
            "Steady-state images/second at the configured fabric clock.",
        )
        self._m_lat_quant = r.gauge(
            "repro_image_service_latency_quantile_cycles",
            "Exact nearest-rank service-latency quantile (admission to completion).",
            ("quantile",),
        )
        self._m_lat_hist = r.histogram(
            "repro_image_service_latency_cycles",
            "Per-image service latency, observed once per completed image.",
            LATENCY_BUCKETS,
        )
        self._m_queue_depth = r.gauge(
            "repro_host_queue_depth",
            "Images arrived at the host but not yet admitted into the fabric.",
        )

    def attach_pipeline(self, pipeline: "Pipeline") -> None:
        """Adopt a built pipeline: a metric child per kernel, stream and crossing."""
        if self.pipeline is not None or self.finished:
            raise ValueError("a Telemetry is single-use; create a fresh one per run")
        self.pipeline = pipeline
        for kernel in pipeline.engine.kernels:
            name = kernel.name
            cells = [self._m_kcycles.labels(kernel=name, state=state) for state in _STATES]
            cells += [self._m_kelems.labels(kernel=name, direction=d) for d in ("in", "out")]
            duty, utilization = self._m_duty.labels(kernel=name), self._m_util.labels(kernel=name)
            self._kernels.append((name, cells, duty, utilization))  # type: ignore[arg-type]
        self._table = LayerTable([LayerRow(name, None, None, 0, 0, 0, 0) for name, *_ in self._kernels], 0)
        streams = pipeline.engine.streams
        for stream in streams:
            name = stream.name
            occupancy, peak = self._m_occ.labels(stream=name), self._m_peak.labels(stream=name)
            capacity = self._m_cap.labels(stream=name)
            capacity.set(stream.capacity)  # type: ignore[union-attr]
            events = [self._m_sevents.labels(stream=name, event=e) for e in ("push", "pop", "reject")]
            sampled = self._m_socc.labels(stream=name)
            self._streams.append((name, events, occupancy, peak, capacity, sampled))  # type: ignore[arg-type]
        for crossing in pipeline.crossings:
            edge = "->".join(crossing.edge)
            gauges = {key: family.labels(edge=edge) for key, family in self._m_link.items()}
            util = link_utilization(crossing.required_mbps)
            gauges["required"].set(crossing.required_mbps)  # type: ignore[union-attr]
            gauges["capacity"].set(MAXRING_MBPS)  # type: ignore[union-attr]
            gauges["utilization"].set(util)  # type: ignore[union-attr]
            gauges["within"].set(1.0 if util <= 1.0 else 0.0)  # type: ignore[union-attr]
            link = next(
                (i for i, s in enumerate(streams) if s.latency > 0 and s.name.startswith(edge + "[")),
                None,
            )
            if link is not None:
                measured, in_flight = gauges["measured"], gauges["in_flight"]
                self._links.append((link, streams[link].bits, measured, in_flight))  # type: ignore[arg-type]

    # -- sampling --------------------------------------------------------
    def replay(self, timeline: "Timeline") -> None:
        """Fill the registry from the run's solved ``timeline`` (``simulate`` calls this).

        Samples fall every :attr:`sample_every` cycles below the run's end,
        then one sealing sample at the end; a run cut at its cycle budget
        samples up to the budget and stays unsealed.  Only the occupancy
        histogram and the sample counter accumulate over the samples; every
        other metric is the state at the last one, so the registry is filled
        once from it.
        """
        assert self.pipeline is not None, "attach_pipeline comes first"
        end, sealed = timeline.cycles, not timeline.aborted
        instants = list(range(self.sample_every, end if sealed else end + 1, self.sample_every))
        if sealed:
            instants.append(end)
        if not instants:
            return
        for lo in range(0, len(instants), _CHUNK_SAMPLES):
            kernels, streams, images = timeline.at(self.pipeline, instants[lo : lo + _CHUNK_SAMPLES])
            for rows in streams:
                for (*_, sampled), row in zip(self._streams, rows):
                    sampled.observe(row[0])
        self._m_samples.set_total(len(instants))
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
        """Mirror the run's state at ``cycle`` into the registry and :attr:`last`.

        ``kernels``, ``streams`` and ``images`` are one instant of
        :meth:`Timeline.at <repro.dataflow.schedule.Timeline.at>`.
        """
        self._m_cycles.set(cycle)

        rows = []
        for (name, cells, duty, utilization), row in zip(self._kernels, kernels):
            for cell, value in zip(cells, row):
                cell.set_total(value)
            busy, starved, blocked, idle, _, _, first, last = row
            if first < 0:  # not active yet
                first = last = None
            layer = LayerRow(name, first, last, busy, starved, blocked, idle)
            if not layer.is_idle:
                duty.set(layer.duty)
            utilization.set(layer.utilization)
            rows.append(layer)
        self._table = LayerTable(rows, cycle)

        for (_, events, occupancy, peak, _, _), row in zip(self._streams, streams):
            occupancy.set(row[0])
            peak.set(row[1])
            for cell, value in zip(events, row[2:5]):
                cell.set_total(value)

        for link, bits, measured, in_flight in self._links:
            in_flight.set(streams[link][5])
            if cycle > 0:
                measured.set(streams[link][2] * bits * MAX4_FABRIC_MHZ / cycle)

        completed, admitted, arrived = images
        completions = timeline.completions[:completed]
        self._m_images.set_total(len(completions))
        if completions:
            self._m_latency.set(completions[0])
        # None under two completions: the gauges simply stay unset (n/a).
        interval = mean_completion_interval(completions)
        if interval is not None:
            self._m_interval.set(interval)
            if interval > 0:
                self._m_fps.set(MAX4_FABRIC_MHZ * 1e6 / interval)
        initiation = self._table.initiation_interval
        if initiation is not None:
            self._m_initiation.set(initiation)

        # Per-image service latency: sink completions paired with source
        # admissions by image index.
        admissions = timeline.admissions[:admitted]
        service = [done - admitted_at for done, admitted_at in zip(completions, admissions)]
        for value in service:
            self._m_lat_hist.observe(value)
        quantiles: dict[str, int | None] = dict.fromkeys(
            ("latency_p50", "latency_p95", "latency_p99", "latency_max")
        )
        if service:
            for key, q in zip(quantiles, (0.5, 0.95, 0.99, 1.0)):
                quantiles[key] = exact_quantile(service, q)  # nearest rank: q = 1.0 is the max
                self._m_lat_quant.labels(quantile=str(q)).set(quantiles[key])  # type: ignore[union-attr, arg-type]
        queue_depth = arrived - admitted
        self._m_queue_depth.set(queue_depth)

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
        return [
            {
                "name": name,
                "occupancy": int(occupancy.value),
                "peak": int(peak.value),
                "capacity": int(capacity.value),
            }
            for name, _, occupancy, peak, capacity, _ in self._streams
        ]

    # -- export ----------------------------------------------------------
    def export_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        from .exporters import render_prometheus

        return render_prometheus(self.registry, manifest=self.manifest or None)

    def export_json(self) -> dict[str, Any]:
        """The registry plus manifest as one JSON-serialisable snapshot."""
        from .exporters import snapshot_registry

        return {
            "schema": "repro-telemetry/1",
            "manifest": dict(self.manifest),
            "cycles": self.last.get("cycle", 0),
            "finished": self.finished,
            "metrics": snapshot_registry(self.registry),
        }
