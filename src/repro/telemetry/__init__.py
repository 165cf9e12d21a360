"""Telemetry for the streaming simulator.

The observability layer the ROADMAP's serving-system north star needs:

* :mod:`~repro.telemetry.collector` — :class:`Telemetry`, the sampler
  ``simulate(telemetry=...)`` accepts (per-kernel busy/starved/blocked
  counters, FIFO occupancy, link bandwidth vs the §III-C budget, derived
  II/FPS/duty-cycle gauges), every sample read off the solved schedule;
* :mod:`~repro.telemetry.exporters` — the :class:`MetricFamily` records a
  run fills (a value per label tuple; :class:`Histogram` for
  distributions), their Prometheus text exposition and JSON snapshots;
* :mod:`~repro.telemetry.manifest` — host/run manifests (git describe,
  python/numpy versions, topology) stamped onto every export;
* :mod:`~repro.telemetry.dashboard` — the ``repro top`` frame of a
  finished run;
* :mod:`~repro.telemetry.attribution` — the ``repro stats`` bottleneck
  report, naming the same edges ``repro check`` anchors its diagnostics to;
* :mod:`~repro.telemetry.latency` — per-image lifecycle records (arrival,
  admission, per-partition first-pixel-out, completion) and exact
  nearest-rank percentile summaries, scheduler-independent by construction;
* :mod:`~repro.telemetry.loadgen` — the ``repro load`` open-loop load
  generator: seeded arrival processes, offered-vs-achieved FPS, SLO
  verdicts, and FINN-style latency-throughput sweeps.

Telemetry is strictly opt-in and never hooks the engine: a telemetered
run is solved whole, and each metric is written once from the op times
after the solve, so a run without a collector pays nothing for it.
"""

from .attribution import (
    AttributionReport,
    attribute_run,
    deadlock_root_edge,
    run_attributed,
)
from .collector import DEFAULT_SAMPLE_EVERY, OCCUPANCY_BUCKETS, Telemetry
from .dashboard import render_frame
from .exporters import (
    Histogram,
    MetricFamily,
    render_prometheus,
    snapshot_registry,
    validate_exposition,
)
from .latency import (
    LATENCY_BUCKETS,
    ImageRecord,
    LatencyReport,
    LatencySummary,
    exact_quantile,
    image_records,
    latency_report,
    reconcile,
    tail_attribution,
)
from .loadgen import (
    ArrivalSchedule,
    LoadResult,
    fixed_rate_schedule,
    make_schedule,
    poisson_schedule,
    run_load,
    spawn_poisson_schedules,
    sweep,
)
from .manifest import host_manifest, run_manifest

__all__ = [
    "ArrivalSchedule",
    "AttributionReport",
    "DEFAULT_SAMPLE_EVERY",
    "Histogram",
    "ImageRecord",
    "LATENCY_BUCKETS",
    "LatencyReport",
    "LatencySummary",
    "LoadResult",
    "MetricFamily",
    "OCCUPANCY_BUCKETS",
    "Telemetry",
    "attribute_run",
    "deadlock_root_edge",
    "exact_quantile",
    "fixed_rate_schedule",
    "host_manifest",
    "image_records",
    "latency_report",
    "make_schedule",
    "poisson_schedule",
    "reconcile",
    "render_frame",
    "render_prometheus",
    "run_attributed",
    "run_load",
    "run_manifest",
    "snapshot_registry",
    "spawn_poisson_schedules",
    "sweep",
    "tail_attribution",
    "validate_exposition",
]
