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

The loop has no hooks.  Event traces and telemetry samples are written
from the solved schedule (:mod:`repro.dataflow.schedule`) in every mode;
the loop is the oracle they are tested against.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .interval import mean_completion_interval
from .kernel import Kernel, KernelStats
from .stream import Stream, StreamStats

if TYPE_CHECKING:
    from .manager import Pipeline

__all__ = ["CycleBudgetExceeded", "DEFAULT_MAX_CYCLES", "Engine", "RunResult"]

# The cycle budget of a run whose caller names none (`simulate`, the CLI).
DEFAULT_MAX_CYCLES = 50_000_000


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


class Engine:
    """A single simulated DFE (or a chain of them when links have latency)."""

    def __init__(self, name: str = "dfe") -> None:
        self.name = name
        self.kernels: list[Kernel] = []
        self.streams: list[Stream] = []

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

    def run(self, done: Callable[[], bool], max_cycles: int = DEFAULT_MAX_CYCLES) -> int:
        """Tick every kernel every cycle until ``done()`` is true; returns the cycle count.

        This is the reference semantics the schedule solver
        (:func:`repro.dataflow.schedule.solve_run`) is tested against.
        ``simulate`` ticks it only for ``mode="exhaustive"`` and for
        pipelines the solver cannot read.  ``done`` is called once per
        cycle, before that cycle's ticks, so it can read the live state a
        test oracle compares with a solved run's trace and samples.  A run
        that exhausts its budget raises :class:`CycleBudgetExceeded`.
        """
        if max_cycles <= 0:
            raise ValueError(
                f"engine {self.name!r}: max_cycles must be a positive cycle budget, "
                f"got {max_cycles!r}"
            )
        cycle = 0
        ticks = [kernel.tick for kernel in self.kernels]
        while not done():
            for tick in ticks:
                tick(cycle)
            cycle += 1
            if cycle >= max_cycles:
                raise self._no_convergence(max_cycles)
        return cycle

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

    def collect_stats(self) -> tuple[dict[str, KernelStats], dict[str, StreamStats]]:
        return (
            {k.name: k.stats for k in self.kernels},
            {s.name: s.stats for s in self.streams},
        )
