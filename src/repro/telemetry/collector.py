"""The Telemetry collector: low-overhead live sampling of a running engine.

A :class:`Telemetry` object attached to
:meth:`Engine.run <repro.dataflow.engine.Engine.run>` (directly or through
``simulate(..., telemetry=...)``) samples the simulation every
``sample_every`` simulated cycles and mirrors its state into a typed
:class:`~repro.telemetry.registry.MetricsRegistry`:

* per-kernel busy/starved/blocked/idle **cycle counters** — mirrored from
  the engine's own :class:`~repro.dataflow.kernel.KernelStats`;
* per-stream **occupancy gauges** (instantaneous + high-water), sampled
  **occupancy histograms**, and push/pop/reject counters;
* per-crossing **link gauges** — required and measured Mbps against the
  link's capacity (the paper's 2-bit @ 105 MHz = 210 Mbps budget) and the
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

Overhead contract (held by the ``bench_streaming_sim`` regression guard):
with no telemetry attached the engine's hot loops pay exactly one
``is not None`` test per simulated cycle — no per-event hooks, no
allocation; with telemetry attached, sampling touches each kernel and
stream only once per ``sample_every`` cycles, keeping the enabled overhead
within 5% on the tiny-chain benchmark.  Because the collector *reads* the
same aggregate counters :meth:`Engine.collect_stats` returns (push/pop
totals maintained by :class:`~repro.dataflow.stream.Stream`, tick
classifications maintained by the kernels), the final sample reconciles
exactly with both the aggregate stats and the Tracer-derived
:class:`~repro.dataflow.tracing.PipelineTrace` — a tested property.

Like a :class:`~repro.dataflow.trace.Tracer`, a Telemetry is single-use:
create a fresh one per run.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from ..dataflow.interval import mean_completion_interval
from .latency import LATENCY_BUCKETS, exact_quantile
from .registry import Counter, Gauge, Histogram, MetricsRegistry

if TYPE_CHECKING:
    from ..dataflow.engine import Engine
    from ..dataflow.kernel import Kernel
    from ..dataflow.manager import Pipeline
    from ..dataflow.stream import Stream

__all__ = ["Telemetry", "DEFAULT_SAMPLE_EVERY", "OCCUPANCY_BUCKETS"]

DEFAULT_SAMPLE_EVERY = 256

# Geometric occupancy buckets: FIFO depths span flip-flop chains (capacity 4)
# to §III-B5 skip buffers (thousands of elements).
OCCUPANCY_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)

_STATES = ("busy", "starved", "blocked", "idle")

Listener = Callable[["Telemetry", int], None]


class _KernelProbe:
    """Pre-resolved metric children for one kernel (avoids per-sample lookups)."""

    __slots__ = ("kernel", "cycles", "elements", "duty", "utilization")

    def __init__(
        self,
        kernel: "Kernel",
        cycles: dict[str, Counter],
        elements: dict[str, Counter],
        duty: Gauge,
        utilization: Gauge,
    ) -> None:
        self.kernel = kernel
        self.cycles = cycles
        self.elements = elements
        self.duty = duty
        self.utilization = utilization


class _StreamProbe:
    """Pre-resolved metric children for one stream."""

    __slots__ = ("stream", "occupancy", "peak", "capacity", "events", "sampled")

    def __init__(
        self,
        stream: "Stream",
        occupancy: Gauge,
        peak: Gauge,
        capacity: Gauge,
        events: dict[str, Counter],
        sampled: Histogram,
    ) -> None:
        self.stream = stream
        self.occupancy = occupancy
        self.peak = peak
        self.capacity = capacity
        self.events = events
        self.sampled = sampled


class _LinkProbe:
    """Pre-resolved gauges for one DFE-to-DFE crossing."""

    __slots__ = ("edge", "stream", "required", "measured", "capacity", "utilization", "in_flight", "within")

    def __init__(self, edge: str, stream: "Stream | None", gauges: dict[str, Gauge]) -> None:
        self.edge = edge
        self.stream = stream
        self.required = gauges["required"]
        self.measured = gauges["measured"]
        self.capacity = gauges["capacity"]
        self.utilization = gauges["utilization"]
        self.in_flight = gauges["in_flight"]
        self.within = gauges["within"]


class Telemetry:
    """Samples one engine run into a metrics registry (single-use)."""

    def __init__(
        self,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        fclk_mhz: float = 105.0,
        registry: MetricsRegistry | None = None,
        on_sample: Listener | None = None,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
        self.sample_every = int(sample_every)
        self.fclk_mhz = float(fclk_mhz)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.manifest: dict[str, Any] = {}
        self.engine: "Engine | None" = None
        self.pipeline: "Pipeline | None" = None
        self.finished = False
        self.total_cycles: int | None = None
        # Read by the engine's run loops: the next cycle at which to sample.
        self.next_sample_at = self.sample_every
        # Convenience summary refreshed on every sample (dashboard food).
        self.last: dict[str, Any] = {"cycle": 0, "images": 0}
        self._listeners: list[Listener] = [on_sample] if on_sample is not None else []
        self._attached = False
        self._kernel_probes: list[_KernelProbe] = []
        self._stream_probes: list[_StreamProbe] = []
        self._link_probes: list[_LinkProbe] = []
        self._sinks: list[Any] = []
        self._sources: list[Any] = []
        # Completed images whose service latency is already in the histogram
        # (samples overlap; each image must be observed exactly once).
        self._latency_observed = 0
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

    def add_listener(self, listener: Listener) -> None:
        """Register a callable invoked as ``listener(telemetry, cycle)`` per sample."""
        self._listeners.append(listener)

    def attach_pipeline(self, pipeline: "Pipeline") -> None:
        """Adopt a built pipeline's context: fabric clock, sink, crossings."""
        self.pipeline = pipeline
        self.fclk_mhz = float(pipeline.fclk_mhz)

    def attach(self, engine: "Engine") -> None:
        """Install on ``engine`` (called by ``Engine.run``); single-use."""
        if self._attached or self.finished:
            raise ValueError("a Telemetry is single-use; create a fresh one per run")
        self._attached = True
        self.engine = engine
        for kernel in engine.kernels:
            name = kernel.name
            self._kernel_probes.append(
                _KernelProbe(
                    kernel,
                    {
                        state: self._m_kcycles.labels(kernel=name, state=state)  # type: ignore[misc]
                        for state in _STATES
                    },
                    {
                        direction: self._m_kelems.labels(kernel=name, direction=direction)  # type: ignore[misc]
                        for direction in ("in", "out")
                    },
                    self._m_duty.labels(kernel=name),  # type: ignore[arg-type]
                    self._m_util.labels(kernel=name),  # type: ignore[arg-type]
                )
            )
            if hasattr(kernel, "completion_cycles"):
                self._sinks.append(kernel)
            if hasattr(kernel, "admission_cycles"):
                self._sources.append(kernel)
        for stream in engine.streams:
            name = stream.name
            self._stream_probes.append(
                _StreamProbe(
                    stream,
                    self._m_occ.labels(stream=name),  # type: ignore[arg-type]
                    self._m_peak.labels(stream=name),  # type: ignore[arg-type]
                    self._m_cap.labels(stream=name),  # type: ignore[arg-type]
                    {
                        event: self._m_sevents.labels(stream=name, event=event)  # type: ignore[misc]
                        for event in ("push", "pop", "reject")
                    },
                    self._m_socc.labels(stream=name),  # type: ignore[arg-type]
                )
            )
        pipeline = self.pipeline
        if pipeline is not None:
            for crossing in pipeline.crossings:
                edge = f"{crossing.edge[0]}->{crossing.edge[1]}"
                prefix = f"{crossing.edge[0]}->{crossing.edge[1]}["
                stream = next(
                    (s for s in engine.streams if s.latency > 0 and s.name.startswith(prefix)),
                    None,
                )
                gauges = {
                    key: family.labels(edge=edge)  # type: ignore[misc]
                    for key, family in self._m_link.items()
                }
                probe = _LinkProbe(edge, stream, gauges)  # type: ignore[arg-type]
                capacity_mbps = crossing.link.bandwidth_gbps * 1000.0
                probe.required.set(crossing.required_mbps)
                probe.capacity.set(capacity_mbps)
                util = crossing.required_mbps / capacity_mbps if capacity_mbps else float("inf")
                probe.utilization.set(util)
                probe.within.set(1.0 if util <= 1.0 else 0.0)
                self._link_probes.append(probe)

    # -- sampling --------------------------------------------------------
    def sample(self, cycle: int) -> None:
        """Mirror the engine's current state into the registry.

        Called by the engine's run loop whenever ``cycle`` reaches
        :attr:`next_sample_at`, and once more by :meth:`finish`.
        """
        self.next_sample_at = cycle + self.sample_every
        self._m_samples.inc()
        self._m_cycles.set(cycle)

        first_actives: list[int] = []
        for probe in self._kernel_probes:
            kernel = probe.kernel
            stats = kernel.stats
            busy = stats.active_cycles
            starved = stats.input_starved_cycles
            blocked = stats.output_blocked_cycles
            cycles = probe.cycles
            cycles["busy"].set_total(busy)
            cycles["starved"].set_total(starved)
            cycles["blocked"].set_total(blocked)
            cycles["idle"].set_total(stats.idle_cycles)
            probe.elements["in"].set_total(stats.elements_in)
            probe.elements["out"].set_total(stats.elements_out)
            first = stats.first_active_cycle
            if first is not None:
                first_actives.append(first)
                last = stats.last_active_cycle
                span = (last - first + 1) if last is not None else 1
                probe.duty.set(busy / span if span else 0.0)
            stalls = busy + starved + blocked
            probe.utilization.set(busy / stalls if stalls else 0.0)

        for sprobe in self._stream_probes:
            stream = sprobe.stream
            occ = len(stream._fifo)
            sstats = stream.stats
            sprobe.occupancy.set(occ)
            sprobe.peak.set(sstats.max_occupancy)
            sprobe.capacity.set(stream.capacity)
            sprobe.events["push"].set_total(sstats.pushes)
            sprobe.events["pop"].set_total(sstats.pops)
            sprobe.events["reject"].set_total(sstats.full_rejections)
            sprobe.sampled.observe(occ)

        for lprobe in self._link_probes:
            stream = lprobe.stream
            if stream is None:
                continue
            lprobe.in_flight.set(sum(1 for _, ready in stream._fifo if ready > cycle))
            if cycle > 0:
                lprobe.measured.set(stream.stats.pushes * stream.bits * self.fclk_mhz / cycle)

        completions: list[int] = []
        for sink in self._sinks:
            completions.extend(sink.completion_cycles)
        completions.sort()
        self._m_images.set_total(len(completions))
        if completions:
            self._m_latency.set(completions[0])
        # None under two completions: the gauges simply stay unset (n/a).
        interval = mean_completion_interval(completions)
        if interval is not None:
            self._m_interval.set(interval)
            if interval > 0:
                self._m_fps.set(self.fclk_mhz * 1e6 / interval)
        if first_actives:
            self._m_initiation.set(max(first_actives))

        # Per-image service latency: pair sink completions with source
        # admissions by image index (the single-source/single-sink pipelines
        # this engine builds keep both lists in index order).
        service: list[int] = []
        if len(self._sources) == 1 and len(self._sinks) == 1:
            admissions = self._sources[0].admission_cycles
            done = self._sinks[0].completion_cycles
            service = [done[i] - admissions[i] for i in range(min(len(done), len(admissions)))]
        for value in service[self._latency_observed :]:
            self._m_lat_hist.observe(value)
        self._latency_observed = max(self._latency_observed, len(service))
        quantiles: dict[str, int | None] = {"p50": None, "p95": None, "p99": None, "max": None}
        if service:
            quantiles = {
                "p50": exact_quantile(service, 0.50),
                "p95": exact_quantile(service, 0.95),
                "p99": exact_quantile(service, 0.99),
                "max": max(service),
            }
            self._m_lat_quant.labels(quantile="0.5").set(quantiles["p50"])  # type: ignore[union-attr, arg-type]
            self._m_lat_quant.labels(quantile="0.95").set(quantiles["p95"])  # type: ignore[union-attr, arg-type]
            self._m_lat_quant.labels(quantile="0.99").set(quantiles["p99"])  # type: ignore[union-attr, arg-type]
            self._m_lat_quant.labels(quantile="1.0").set(quantiles["max"])  # type: ignore[union-attr, arg-type]
        queue_depth = sum(
            source.arrived_count(cycle) - len(source.admission_cycles) for source in self._sources
        )
        self._m_queue_depth.set(queue_depth)

        self.last = {
            "cycle": cycle,
            "images": len(completions),
            "latency": completions[0] if completions else None,
            "interval": interval,
            "fps": (self.fclk_mhz * 1e6 / interval) if interval else None,
            "initiation": max(first_actives) if first_actives else None,
            "latency_p50": quantiles["p50"],
            "latency_p95": quantiles["p95"],
            "latency_p99": quantiles["p99"],
            "latency_max": quantiles["max"],
            "queue_depth": queue_depth,
        }
        for listener in self._listeners:
            listener(self, cycle)

    def finish(self, total_cycles: int) -> None:
        """Seal the run with a final sample at the run's cycle count."""
        if self.engine is None:
            raise ValueError("telemetry was never attached to an engine")
        self.finished = True
        self.total_cycles = total_cycles
        self.sample(total_cycles)

    # -- views -----------------------------------------------------------
    def kernel_rows(self) -> list[dict[str, Any]]:
        """Per-kernel values as of the last sample (dashboard/report food)."""
        rows: list[dict[str, Any]] = []
        for probe in self._kernel_probes:
            cycles = probe.cycles
            rows.append(
                {
                    "name": probe.kernel.name,
                    "busy": int(cycles["busy"].value),
                    "starved": int(cycles["starved"].value),
                    "blocked": int(cycles["blocked"].value),
                    "idle": int(cycles["idle"].value),
                    "utilization": probe.utilization.value,
                    "duty": probe.duty.value,
                }
            )
        return rows

    def stream_rows(self) -> list[dict[str, Any]]:
        """Per-stream occupancy as of the last sample."""
        return [
            {
                "name": probe.stream.name,
                "occupancy": int(probe.occupancy.value),
                "peak": int(probe.peak.value),
                "capacity": int(probe.capacity.value),
            }
            for probe in self._stream_probes
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
