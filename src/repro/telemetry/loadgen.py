"""Open-loop load generation: arrival processes, offered-vs-achieved FPS.

The paper evaluates its accelerator the way FINN and Blott et al.'s scaling
study do — latency/throughput trade-off curves under a sustained request
stream — while a plain ``simulate`` call streams images back-to-back (a
closed loop that can never expose queueing).  This module injects images at
a **target rate** instead: a deterministic arrival schedule (fixed-rate or
Poisson via an injected seeded RNG) feeds the host source's open-loop mode,
and the run reports offered vs achieved FPS, host-queue depth, and the full
per-image latency distribution from :mod:`repro.telemetry.latency`.

:func:`sweep` runs a ladder of rates and emits the FINN-style
latency-throughput curve as JSON (schema ``repro-load-sweep/1``): as the
offered rate approaches the pipeline's steady-state capacity, achieved FPS
saturates and tail latency grows without bound — the knee of that curve is
the serving capacity the ROADMAP's north star cares about.

Everything is deterministic given (images, rate, seed): the schedule is
pure arithmetic over a seeded RNG and the simulator is cycle-exact, so two
runs produce bit-identical percentiles — a CI-testable property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..dataflow.engine import DEFAULT_MAX_CYCLES, CycleBudgetExceeded
from ..dataflow.interval import achieved_fps
from ..dataflow.links import MAX4_FABRIC_MHZ
from .latency import LatencyReport, latency_report

if TYPE_CHECKING:
    from ..nn.graph import LayerGraph

__all__ = [
    "ArrivalSchedule",
    "LoadResult",
    "cycles_per_image",
    "fixed_rate_schedule",
    "make_schedule",
    "poisson_schedule",
    "run_load",
    "spawn_poisson_schedules",
    "sweep",
]

# The last arrival cycle a schedule may hold: the host source, the router
# and the latency report keep cycles in 64-bit integers.
MAX_ARRIVAL_CYCLE = 2**63 - 1


def cycles_per_image(rate_fps: float) -> float:
    """Mean inter-arrival gap in fabric cycles for a target FPS."""
    if not 0 < rate_fps < float("inf"):
        raise ValueError(f"rate must be a finite FPS > 0, got {rate_fps!r}")
    return MAX4_FABRIC_MHZ * 1e6 / rate_fps


def _check_last_arrival(last: float, rate_fps: float) -> None:
    if not last <= MAX_ARRIVAL_CYCLE:
        raise ValueError(
            f"rate {rate_fps!r} FPS puts arrivals past cycle 2**63 - 1, the 64-bit cycle count"
        )


@dataclass(slots=True)
class ArrivalSchedule:
    """A deterministic open-loop arrival process."""

    kind: str  # "fixed" | "poisson"
    rate_fps: float  # offered rate
    seed: int | None  # None for the (seedless) fixed process
    cycles: list[int]  # non-decreasing arrival cycle per image

    @property
    def n_images(self) -> int:
        return len(self.cycles)

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "rate_fps": self.rate_fps,
            "fclk_mhz": MAX4_FABRIC_MHZ,
            "seed": self.seed,
            "cycles": list(self.cycles),
        }


def fixed_rate_schedule(n_images: int, rate_fps: float) -> ArrivalSchedule:
    """Image *i* arrives at ``round(i * gap)`` — a metronome at the target rate.

    A rate whose last arrival would pass :data:`MAX_ARRIVAL_CYCLE` raises
    ``ValueError``.
    """
    gap = cycles_per_image(rate_fps)
    _check_last_arrival(max(0, n_images - 1) * gap, rate_fps)
    cycles = [round(i * gap) for i in range(n_images)]
    return ArrivalSchedule("fixed", float(rate_fps), None, cycles)


def poisson_schedule(
    n_images: int,
    rate_fps: float,
    seed: int,
    rng: np.random.Generator | None = None,
) -> ArrivalSchedule:
    """Exponential inter-arrival gaps from a seeded (or injected) RNG.

    The first image arrives at cycle 0; subsequent gaps are drawn from
    ``Exp(mean = gap cycles)``.  Passing ``rng`` overrides the seed (for
    property tests that want to drive the process directly).  Draws whose
    sum passes :data:`MAX_ARRIVAL_CYCLE` raise ``ValueError``.
    """
    gap = cycles_per_image(rate_fps)
    generator = rng if rng is not None else np.random.default_rng(seed)
    gaps = generator.exponential(gap, size=max(0, n_images - 1))
    times = [0.0]
    at = 0.0
    for g in gaps:
        at += float(g)
        times.append(at)
    _check_last_arrival(at, rate_fps)
    cycles = [round(t) for t in times[:n_images]]
    return ArrivalSchedule("poisson", float(rate_fps), seed, cycles)


def spawn_poisson_schedules(
    n_replicas: int,
    n_images: int,
    rate_fps: float,
    seed: int,
) -> list[ArrivalSchedule]:
    """One *independent* Poisson arrival stream per replica, from one seed.

    Seeding N replicas with the same integer (``poisson_schedule(..,
    seed)`` N times) replays the identical exponential gap sequence on
    every replica: all queues fill and drain in lockstep, which understates
    queueing relative to genuinely independent traffic — exactly the bias a
    fleet capacity answer must not carry.  This helper derives one child
    stream per replica via :meth:`numpy.random.SeedSequence.spawn`, the
    construction NumPy guarantees to be statistically independent, while
    staying fully deterministic given ``(n_replicas, n_images, rate, seed)``.

    ``rate_fps`` is the *per-replica* offered rate; the returned schedules
    are indexed by replica.
    """
    if n_replicas < 1:
        raise ValueError(f"need at least one replica, got {n_replicas!r}")
    children = np.random.SeedSequence(seed).spawn(n_replicas)
    schedules = []
    for child in children:
        sched = poisson_schedule(n_images, rate_fps, seed, rng=np.random.default_rng(child))
        schedules.append(sched)
    return schedules


def make_schedule(
    n_images: int,
    rate_fps: float,
    process: str = "fixed",
    seed: int = 0,
) -> ArrivalSchedule:
    """Dispatch on the process name (``fixed`` | ``poisson``)."""
    if process == "fixed":
        return fixed_rate_schedule(n_images, rate_fps)
    if process == "poisson":
        return poisson_schedule(n_images, rate_fps, seed)
    raise ValueError(f"arrival process must be 'fixed' or 'poisson', got {process!r}")


@dataclass(slots=True)
class LoadResult:
    """One open-loop run at one offered rate."""

    schedule: ArrivalSchedule
    cycles: int
    report: LatencyReport
    offered_fps: float
    achieved_fps: float | None  # None with < 2 completions
    queue_depth_peak: int
    aborted: bool
    abort_message: str | None

    def slo_violated(self, p99_cycles: int) -> bool:
        """True when the run misses a p99 *sojourn*-latency SLO (or aborted).

        Sojourn (arrival to completion) is what a client experiences: under
        overload the fabric back-pressures admission, so service latency
        stays flat while the host queue absorbs the excess — only sojourn
        exposes an undersized topology.  A run with no completed images
        cannot demonstrate SLO compliance, so it counts as a violation
        rather than a vacuous pass.
        """
        p99 = self.report.sojourn.p99
        return self.aborted or p99 is None or p99 > p99_cycles

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro-load/1",
            "schedule": self.schedule.as_dict(),
            "cycles": self.cycles,
            "offered_fps": self.offered_fps,
            "achieved_fps": self.achieved_fps,
            "queue_depth_peak": self.queue_depth_peak,
            "aborted": self.aborted,
            "abort_message": self.abort_message,
            "latency": self.report.as_dict(),
        }

    def render(self) -> str:
        achieved = f"{self.achieved_fps:,.1f}" if self.achieved_fps is not None else "n/a"
        status = " ABORTED" if self.aborted else ""
        lines = [
            f"load {self.report.graph_name}:{status} offered {self.offered_fps:,.1f} FPS "
            f"({self.schedule.kind}), achieved {achieved} FPS, "
            f"peak host queue {self.queue_depth_peak} image(s)"
        ]
        lines.append(self.report.render())
        return "\n".join(lines)


def _queue_depth_peak(schedule: ArrivalSchedule, admissions: list[int]) -> int:
    """Peak count of images arrived but not yet admitted, over all admissions.

    Arrivals are non-decreasing, so the images arrived by an admission are
    one binary search away.
    """
    if not admissions:
        return 0
    arrived = np.searchsorted(schedule.cycles, admissions, side="right")
    waiting = arrived - np.arange(1, len(admissions) + 1)  # image i just left the queue
    return max(0, int(waiting.max()))


def run_load(
    graph: "LayerGraph",
    images: np.ndarray,
    *,
    rate_fps: float,
    process: str = "fixed",
    seed: int = 0,
    mode: str = "leap",
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> LoadResult:
    """Stream ``images`` through ``graph`` at a target offered rate.

    A run that exhausts its cycle budget (deadlock, or a rate so far beyond
    capacity the budget runs out) does not propagate: the per-image records
    of the images that *did* complete are exactly what the latency report
    needs, and the result carries the abort message and an SLO-violating
    verdict.  Any other error propagates.
    """
    from ..dataflow.manager import simulate

    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]
    schedule = make_schedule(int(images.shape[0]), rate_fps, process, seed)
    abort_message: str | None = None
    try:
        run = simulate(
            graph, images, max_cycles=max_cycles, arrival_cycles=schedule.cycles, mode=mode
        )
    except CycleBudgetExceeded as err:
        abort_message = str(err)
        pipeline, cycles = err.pipeline, max_cycles
    else:
        pipeline, cycles = run.pipeline, run.cycles
    return LoadResult(
        schedule=schedule,
        cycles=cycles,
        report=latency_report(pipeline, cycles),
        offered_fps=float(rate_fps),
        achieved_fps=achieved_fps(pipeline.sink.completion_cycles),
        queue_depth_peak=_queue_depth_peak(schedule, pipeline.source.admission_cycles),
        aborted=abort_message is not None,
        abort_message=abort_message,
    )


def sweep(
    graph: "LayerGraph",
    images: np.ndarray,
    rates: list[float],
    *,
    process: str = "fixed",
    seed: int = 0,
    mode: str = "leap",
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> dict[str, Any]:
    """The FINN-style latency-throughput curve: one open-loop run per rate.

    Returns a JSON-serialisable object (schema ``repro-load-sweep/1``) with
    one point per offered rate: achieved FPS, exact p50/p95/p99/max service
    latency, host-queue peak, and the abort flag for rates beyond capacity.
    """
    if not rates:
        raise ValueError("sweep needs at least one offered rate")
    from .manifest import run_manifest

    points: list[dict[str, Any]] = []
    for rate in rates:
        result = run_load(
            graph,
            images,
            rate_fps=rate,
            process=process,
            seed=seed,
            mode=mode,
            max_cycles=max_cycles,
        )
        service = result.report.service
        points.append(
            {
                "offered_fps": result.offered_fps,
                "achieved_fps": result.achieved_fps,
                "images_completed": result.report.n_images,
                "p50_cycles": service.p50,
                "p95_cycles": service.p95,
                "p99_cycles": service.p99,
                "max_cycles": service.max,
                "queue_wait_p99_cycles": result.report.queue_wait.p99,
                "queue_depth_peak": result.queue_depth_peak,
                "run_cycles": result.cycles,
                "aborted": result.aborted,
            }
        )
    return {
        "schema": "repro-load-sweep/1",
        "graph": graph.name,
        "process": process,
        "seed": seed,
        "fclk_mhz": MAX4_FABRIC_MHZ,
        "images": int(np.asarray(images).shape[0] if np.asarray(images).ndim == 4 else 1),
        "manifest": run_manifest(graph, seed=seed),
        "points": points,
    }
