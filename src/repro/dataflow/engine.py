"""The cycle-driven dataflow engine.

An :class:`Engine` owns a set of kernels and the streams between them and
advances them clock by clock.  Kernels tick in topological order; since a
stream element pushed at cycle *t* only becomes visible at *t + 1* (plus
link latency), tick order cannot create same-cycle combinational paths —
the model is a registered pipeline, like the synthesized fabric.

The engine is where the paper's overlap claim becomes measurable: "due to
this computation overlap, the latency is pretty small, and after the
initiation interval, computations are performed by all layers
simultaneously."  :meth:`Engine.run` reports per-kernel activity windows
and per-image completion cycles so that claim can be tested, not assumed.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .interval import mean_completion_interval
from .kernel import STALL_BLOCKED, STALL_STARVED, WAKE_NEVER, Kernel, KernelStats
from .stream import Stream, StreamStats
from .trace import Tracer

if TYPE_CHECKING:
    from ..telemetry.collector import Telemetry
    from .manager import Pipeline

__all__ = ["CycleBudgetExceeded", "Engine", "RunResult"]


class CycleBudgetExceeded(RuntimeError):
    """A run that did not finish within its cycle budget (deadlock or too small a budget).

    :func:`repro.dataflow.manager.simulate` attaches the partly run
    ``pipeline`` so callers that report on aborted runs (load generation,
    bottleneck attribution, fleet replicas) can read its settled state.
    """

    pipeline: "Pipeline | None" = None


@dataclass
class RunResult:
    """Outcome of an engine run."""

    cycles: int
    completion_cycles: list[int]
    output: np.ndarray | None
    kernel_stats: dict[str, KernelStats]
    stream_stats: dict[str, StreamStats]
    converged: bool

    @property
    def latency_cycles(self) -> int:
        """Cycles until the first image fully emerged."""
        if not self.completion_cycles:
            raise ValueError("no image completed")
        return self.completion_cycles[0]

    @property
    def steady_state_interval(self) -> float | None:
        """Mean cycles between completions (throughput⁻¹); ``None`` under two."""
        return mean_completion_interval(self.completion_cycles)

    def overlap_fraction(self, kernels: list[str]) -> float:
        """Fraction of the run during which all named kernels were concurrently live.

        A kernel is "live" between its first and last active cycle; full
        pipelining means every layer's live window covers nearly the whole
        run after the initiation interval.
        """
        windows = []
        for name in kernels:
            st = self.kernel_stats[name]
            if st.first_active_cycle is None:
                return 0.0
            windows.append((st.first_active_cycle, st.last_active_cycle))
        start = max(w[0] for w in windows)
        end = min(w[1] for w in windows)
        if end <= start:
            return 0.0
        return (end - start) / max(1, self.cycles)


class Engine:
    """A single simulated DFE (or a chain of them when links have latency)."""

    def __init__(self, name: str = "dfe") -> None:
        self.name = name
        self.kernels: list[Kernel] = []
        self.streams: list[Stream] = []
        # Active tracer for the current run (None = tracing off).  Held on
        # the engine so the bulk stall accounting can synthesize the spans
        # the fast path never ticked.
        self._tracer: Tracer | None = None
        # Active telemetry collector (None = telemetry off).  The run loops
        # pay one `is not None` test per cycle for it — no per-event hooks.
        self._telemetry: Telemetry | None = None

    def add_kernel(self, kernel: Kernel) -> Kernel:
        self.kernels.append(kernel)
        return kernel

    def add_stream(self, stream: Stream) -> Stream:
        self.streams.append(stream)
        return stream

    def connect(self, producer: Kernel, consumer: Kernel, stream: Stream) -> Stream:
        self.add_stream(stream)
        producer.connect_output(stream)
        consumer.connect_input(stream)
        stream.writer = producer
        stream.reader = consumer
        return stream

    def run(
        self,
        done: Callable[[], bool],
        max_cycles: int = 50_000_000,
        fast: bool = True,
        trace: Tracer | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> int:
        """Tick kernels until ``done()`` is true; returns the cycle count.

        ``fast=True`` (the default) runs the runnable-set scheduler: kernels
        that report a stall (starved / blocked / idle) are parked and woken
        by stream push/pop events, with the skipped cycles bulk-accounted so
        every counter matches the exhaustive loop bit for bit.  When no
        kernel is runnable the engine fast-forwards straight to the next
        scheduled wake-up.  ``fast=False`` keeps the original
        tick-everything loop as the executable reference semantics.

        ``trace`` accepts a fresh :class:`~repro.dataflow.trace.Tracer`;
        the engine installs its hooks on every kernel and stream for the
        duration of the run, so the tracer sees every tick classification,
        push/pop/reject, link transit, and image completion with exact
        cycle timestamps.  Both schedulers produce the identical event log
        (the fast path synthesizes stall spans for the cycles it skipped);
        tracing changes no observable behaviour, only records it.

        ``telemetry`` accepts a fresh
        :class:`~repro.telemetry.collector.Telemetry`; the run loops sample
        it every ``telemetry.sample_every`` simulated cycles (mirroring the
        aggregate counters into its metrics registry) and seal it with a
        final sample at the run's cycle count, which therefore reconciles
        exactly with :meth:`collect_stats`.  A run that exhausts its budget
        raises :class:`CycleBudgetExceeded` and leaves the collector
        unsealed.
        """
        if max_cycles <= 0:
            raise ValueError(
                f"engine {self.name!r}: max_cycles must be a positive cycle budget, "
                f"got {max_cycles!r}"
            )
        if trace is not None:
            trace.attach(self)
        if telemetry is not None:
            telemetry.attach(self)
        self._tracer = trace
        self._telemetry = telemetry
        try:
            if fast:
                cycles = self._run_fast(done, max_cycles)
            else:
                cycles = self._run_exhaustive(done, max_cycles)
            if trace is not None:
                trace.finish(cycles)
            if telemetry is not None:
                telemetry.finish(cycles)
            return cycles
        finally:
            self._tracer = None
            self._telemetry = None
            if trace is not None:
                trace.detach(self)

    def _run_exhaustive(self, done: Callable[[], bool], max_cycles: int) -> int:
        """The reference loop: every kernel ticks every cycle."""
        tracer = self._tracer
        if tracer is not None:
            return self._run_exhaustive_traced(done, max_cycles, tracer)
        telemetry = self._telemetry
        cycle = 0
        kernels = self.kernels
        while not done():
            for kernel in kernels:
                kernel.tick(cycle)
            cycle += 1
            if telemetry is not None and cycle >= telemetry.next_sample_at:
                telemetry.sample(cycle)
            if cycle >= max_cycles:
                raise self._no_convergence(max_cycles)
        return cycle

    def _run_exhaustive_traced(
        self, done: Callable[[], bool], max_cycles: int, tracer: Tracer
    ) -> int:
        """The reference loop with every tick classification recorded."""
        telemetry = self._telemetry
        cycle = 0
        kernels = self.kernels
        on_tick = tracer.on_tick
        while not done():
            for kernel in kernels:
                on_tick(kernel.name, cycle, kernel.tick(cycle))
            cycle += 1
            if telemetry is not None and cycle >= telemetry.next_sample_at:
                telemetry.sample(cycle)
            if cycle >= max_cycles:
                raise self._no_convergence(max_cycles)
        return cycle

    # -- fast path -------------------------------------------------------
    #
    # Invariants that make event-skipping exact (see DESIGN.md):
    #
    # * A kernel that reported STARVED cannot unstall until an input stream
    #   gains a ready element — either a pending element's ready cycle
    #   passes (timed wake scheduled at park time) or a new push arrives
    #   (push hook fires with the exact ready cycle).
    # * A kernel that reported BLOCKED cannot unstall until an output pop
    #   frees space (pop hook).
    # * An IDLE kernel (host endpoints after their data is exhausted) never
    #   unstalls; its idle cycles are settled when the run ends.
    # * Stall ticks are side-effect-free except for their counters: one
    #   stall counter per cycle, plus one ``full_rejections`` per cycle on
    #   ``outputs[0]`` for kernels whose blocked tick attempts a push
    #   (``blocked_rejects_output``).  Parked cycles replay exactly those
    #   increments, so stats are bit-identical to the exhaustive loop.
    # * Kernels whose tick reports no classification are never parked and
    #   tick every cycle, so arbitrary user kernels degrade to the
    #   exhaustive semantics rather than to wrong schedules.

    def _run_fast(self, done: Callable[[], bool], max_cycles: int) -> int:
        kernels = self.kernels
        tracer = self._tracer
        telemetry = self._telemetry
        for kernel in kernels:
            kernel._parked = False
            kernel._wake_at = WAKE_NEVER
        n = len(kernels)
        n_parked = 0
        cycle = 0
        while not done():
            if n_parked == n:
                # Nothing runnable: fast-forward straight to the earliest
                # wake-up (pending stream latency, usually a link in flight).
                # The clamp matters: a pop hook can leave a parked writer
                # with a _wake_at in the *past* (the pop's cycle, when the
                # writer's sweep slot had already gone by), and jumping to
                # it would rewind the clock and replay cycles the exhaustive
                # loop ran exactly once.  Stale wake-ups are instead served
                # by the ``_wake_at <= cycle`` test in the sweep below.
                target = min(k._wake_at for k in kernels)
                if target >= max_cycles:
                    self._settle(max_cycles)
                if target > cycle:
                    cycle = target
            for kernel in kernels:
                if kernel._parked:
                    if kernel._wake_at > cycle:
                        continue
                    # Wake: replay the stall counters for the skipped cycles.
                    skipped = cycle - kernel._park_cycle - 1
                    if skipped > 0:
                        self._account(kernel, skipped)
                    kernel._parked = False
                    kernel._wake_at = WAKE_NEVER
                    n_parked -= 1
                status = kernel.tick(cycle)
                if tracer is not None:
                    tracer.on_tick(kernel.name, cycle, status)
                if status is not None:
                    kernel._parked = True
                    kernel._park_cycle = cycle
                    kernel._park_kind = status
                    n_parked += 1
                    if status == STALL_STARVED:
                        # Timed wake at the earliest not-yet-ready input
                        # element; inputs that are already ready cannot
                        # change this kernel's state (only a new push on
                        # another input can, via the push hook).
                        best = WAKE_NEVER
                        for stream in kernel.inputs:
                            fifo = stream._fifo
                            if fifo:
                                ready = fifo[0][1]
                                if cycle < ready < best:
                                    best = ready
                        kernel._wake_at = best
                    elif status == STALL_BLOCKED:
                        # Defensive: with a non-topological tick order a
                        # consumer may pop before this kernel ticks; re-check
                        # next cycle if space already exists.
                        if all(s.can_push() for s in kernel.outputs):
                            kernel._wake_at = cycle + 1
                    elif kernel._wake_hint > cycle:
                        # An idle park with a self-scheduled wake-up: the
                        # open-loop host source knows the exact cycle its
                        # next image arrives.  Other STALL_IDLE kernels never
                        # wake and are settled at end of run.
                        kernel._wake_at = kernel._wake_hint
            cycle += 1
            if telemetry is not None and cycle >= telemetry.next_sample_at:
                # Mid-run samples virtually account parked kernels' pending
                # stall cycles (see Telemetry.sample), so sampled counters
                # match the exhaustive loop's at this very cycle.
                telemetry.sample(cycle)
            if cycle >= max_cycles:
                self._settle(max_cycles)
        # The exhaustive loop ticked still-parked kernels through the final
        # cycle (cycle - 1); settle their stall counters to match.
        for kernel in kernels:
            if kernel._parked:
                skipped = cycle - kernel._park_cycle - 1
                if skipped > 0:
                    self._account(kernel, skipped)
                kernel._parked = False
                kernel._wake_at = WAKE_NEVER
        return cycle

    def _settle(self, max_cycles: int) -> None:
        """Account parked kernels up to ``max_cycles`` and raise (no convergence)."""
        for kernel in self.kernels:
            if kernel._parked:
                skipped = max_cycles - kernel._park_cycle - 1
                if skipped > 0:
                    self._account(kernel, skipped)
                kernel._parked = False
                kernel._wake_at = WAKE_NEVER
        raise self._no_convergence(max_cycles)

    def _no_convergence(self, max_cycles: int) -> CycleBudgetExceeded:
        """Build the abort error, naming the starved/blocked edges at abort.

        A deadlocked pipeline shows a cycle of blame: some kernel blocked on
        a full stream (usually an undersized skip FIFO) starves everything
        downstream of it.  Reporting each stalled kernel with the offending
        stream's occupancy turns "no convergence" into a pointer at the
        exact edge; the static verifier can then name the minimum safe
        capacity without re-running anything.
        """
        cycle = max_cycles  # visibility at the abort point (all pushes settled)
        lines: list[str] = []
        for kernel in self.kernels:
            full = [s for s in kernel.outputs if len(s._fifo) >= s.capacity]
            if full:
                detail = ", ".join(
                    f"full {s.name!r} (occupancy {len(s._fifo)}/{s.capacity})" for s in full
                )
                lines.append(f"    {kernel.name}: blocked on {detail}")
                continue
            starved = [s for s in kernel.inputs if s.ready_count(cycle) == 0]
            if kernel.inputs and starved:
                detail = ", ".join(
                    f"{s.name!r} (occupancy {len(s._fifo)}/{s.capacity}, 0 ready)"
                    for s in starved
                )
                lines.append(f"    {kernel.name}: starved on empty {detail}")
        message = (
            f"engine {self.name!r}: no convergence after {max_cycles} cycles "
            "(deadlock or undersized run budget)"
        )
        if lines:
            shown = lines[:8]
            if len(lines) > len(shown):
                shown.append(f"    ... and {len(lines) - len(shown)} more stalled kernels")
            message += (
                "\n  stalled kernels at abort:\n"
                + "\n".join(shown)
                + "\n  hint: `python -m repro check` statically verifies FIFO sizing, "
                "bitwidths and partition feasibility before any cycle is simulated"
            )
        return CycleBudgetExceeded(message)

    def _account(self, kernel: Kernel, skipped: int) -> None:
        """Replay ``skipped`` stall cycles' worth of counters on a parked kernel."""
        stats = kernel.stats
        kind = kernel._park_kind
        if kind == STALL_STARVED:
            stats.input_starved_cycles += skipped
        elif kind == STALL_BLOCKED:
            stats.output_blocked_cycles += skipped
            if kernel.blocked_rejects_output:
                kernel.outputs[0].stats.full_rejections += skipped
        else:
            stats.idle_cycles += skipped
        tracer = self._tracer
        if tracer is not None:
            # Synthesize the stall span the fast path never ticked so the
            # event trace is identical to the exhaustive loop's: the span
            # extends the live park tick through the cycle before the wake.
            start = kernel._park_cycle + 1
            end = kernel._park_cycle + skipped
            tracer.on_stall_span(kernel.name, kind, start, end)
            if kind == STALL_BLOCKED and kernel.blocked_rejects_output:
                tracer.on_reject_span(kernel.outputs[0].name, start, end)

    def reset(self) -> None:
        for kernel in self.kernels:
            kernel.reset()
        for stream in self.streams:
            stream.reset()

    def collect_stats(self) -> tuple[dict[str, KernelStats], dict[str, StreamStats]]:
        return (
            {k.name: k.stats for k in self.kernels},
            {s.name: s.stats for s in self.streams},
        )
