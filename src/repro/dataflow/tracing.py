"""The per-kernel layer table: one account of a run's pipeline activity.

Turns a run's pipeline into the quantities the paper's architecture
narrative is built on, one row per kernel in engine order:

* each kernel's **live window** (first to last active cycle) — the visual
  "waterfall" of a streaming pipeline filling up;
* where every cycle went — **busy / starved / blocked / idle** — with the
  **duty cycle** (busy share of the live window), the **stall-adjusted
  utilization** (``busy / (busy + starved + blocked)``), the dominant
  **verdict**, and the starving input or back-pressuring output stream;
* the **initiation interval** — how long until the last kernel wakes up,
  after which "computations are performed by all layers simultaneously"
  (§IV-B4) — and the **overlap**, the share of the run every kernel was
  live at once;
* a plain-text waterfall rendering for reports and examples.

The `repro simulate` and `repro trace` waterfalls, the `repro stats`
bottleneck report, the latency tail blame and the telemetry collector's
derived gauges all read this table.  The Tracer's span log is its
oracle: the tests hold each row equal to the summed ``compute`` /
``starved`` / ``blocked`` / ``idle`` spans.

Kernels that never became active (e.g. a host sink in an aborted run)
carry ``first_active = last_active = None``; they stay in the table, are
drawn as ``idle``, and are left out of initiation-interval and overlap
math rather than being fabricated into a ``[0, 0]`` window that would
silently corrupt both.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .kernel import Kernel
    from .manager import Pipeline

__all__ = ["LayerRow", "LayerTable"]

_VERDICTS = ("busy", "starved", "blocked", "idle")
_EDGE_ROLES = {"starved": "starving", "blocked": "backpressure"}


@dataclass(frozen=True, slots=True)
class LayerRow:
    """One kernel's account over a run."""

    name: str
    first_active: int | None  # None: the kernel never did any work
    last_active: int | None
    busy: int
    starved: int
    blocked: int
    idle: int
    edge: str | None = None  # the starving input / back-pressuring output stream

    @property
    def is_idle(self) -> bool:
        """True when the kernel never became active during the run."""
        return self.first_active is None

    @property
    def duty(self) -> float:
        """Fraction of the live window the kernel actually did work (0 when idle)."""
        if self.first_active is None or self.last_active is None:
            return 0.0
        return self.busy / (self.last_active - self.first_active + 1)

    @property
    def utilization(self) -> float:
        """Stall-adjusted utilization: ``busy / (busy + starved + blocked)``."""
        stalls = self.busy + self.starved + self.blocked
        return self.busy / stalls if stalls else 0.0

    @property
    def verdict(self) -> str:
        """The dominant account: ``busy``, ``starved``, ``blocked`` or ``idle`` (the first on a tie)."""
        counts = (self.busy, self.starved, self.blocked, self.idle)
        return max(zip(_VERDICTS, counts), key=lambda pair: pair[1])[0]

    @property
    def edge_role(self) -> str | None:
        """``starving`` or ``backpressure``: how :attr:`edge` stalled the kernel."""
        return _EDGE_ROLES.get(self.verdict) if self.edge is not None else None


def _starving_edge(kernel: Kernel) -> str | None:
    """The input FIFO that chronically ran dry (lowest high-water mark)."""
    if not kernel.inputs:
        return None
    return min(kernel.inputs, key=lambda s: (s.stats.max_occupancy, s.name)).name


def _backpressure_edge(kernel: Kernel) -> str | None:
    """The output FIFO that pushed back (most rejections, then fullest)."""
    if not kernel.outputs:
        return None
    return max(
        kernel.outputs,
        key=lambda s: (s.stats.full_rejections, s.occupancy / s.capacity, s.name),
    ).name


@dataclass(frozen=True)
class LayerTable:
    """One row per kernel, in engine order, over the first ``cycles`` cycles of a run."""

    rows: list[LayerRow]
    cycles: int

    @classmethod
    def of(cls, pipeline: Pipeline) -> LayerTable:
        """The table of a run's pipeline, finished or cut at its cycle budget.

        An aborted run's pipeline is :attr:`CycleBudgetExceeded.pipeline
        <repro.dataflow.engine.CycleBudgetExceeded.pipeline>`.  Every kernel
        accounts each cycle once, as busy, starved, blocked or idle, so any
        row's four counts sum to the cycles run.
        """
        rows: list[LayerRow] = []
        for kernel in pipeline.engine.kernels:
            stats = kernel.stats
            row = LayerRow(
                kernel.name,
                stats.first_active_cycle,
                stats.last_active_cycle,
                stats.active_cycles,
                stats.input_starved_cycles,
                stats.output_blocked_cycles,
                stats.idle_cycles,
            )
            if row.verdict == "starved":
                row = replace(row, edge=_starving_edge(kernel))
            elif row.verdict == "blocked":
                row = replace(row, edge=_backpressure_edge(kernel))
            rows.append(row)
        first = rows[0]
        return cls(rows, first.busy + first.starved + first.blocked + first.idle)

    @property
    def initiation_interval(self) -> int | None:
        """Cycles until every active kernel had worked once; ``None`` when none did.

        Idle rows are left out: they have no wake-up cycle, and counting
        them as cycle 0 would shrink the interval arbitrarily.
        """
        firsts = [row.first_active for row in self.rows if row.first_active is not None]
        return max(firsts) if firsts else None

    def overlap(self, names: Iterable[str] | None = None) -> float:
        """Fraction of the run during which the named kernels were all live at once.

        Without ``names``, every active kernel; a named idle kernel makes
        the overlap 0.  Full pipelining means every layer's live window
        covers nearly the whole run after the initiation interval.
        """
        if names is None:
            rows = [row for row in self.rows if not row.is_idle]
        else:
            by_name = {row.name: row for row in self.rows}
            rows = [by_name[name] for name in names]
        windows = [
            (row.first_active, row.last_active)
            for row in rows
            if row.first_active is not None and row.last_active is not None
        ]
        if not windows or len(windows) < len(rows):
            return 0.0
        start = max(first for first, _ in windows)
        end = min(last for _, last in windows)
        return (end - start) / max(1, self.cycles) if end > start else 0.0

    def waterfall(self, width: int = 60) -> str:
        """ASCII waterfall: one row per kernel, '=' spans its live window.

        The stair-step left edge *is* the paper's pipeline-fill story: each
        kernel starts as soon as enough data accumulated in its buffer.
        Never-active kernels render an empty bar tagged ``idle``.
        """
        initiation = self.initiation_interval
        if initiation is None:
            raise ValueError("no kernel was ever active; nothing to draw")
        total = max(self.cycles, 1)
        lines = [f"{'kernel':24s} |{'pipeline activity':<{width}s}| duty"]
        for row in self.rows:
            if row.first_active is None or row.last_active is None:
                lines.append(f"{row.name[:24]:24s} |{' ' * width}| idle")
                continue
            start = int(row.first_active / total * width)
            end = max(start + 1, int(row.last_active / total * width))
            bar = " " * start + "=" * (end - start) + " " * (width - end)
            lines.append(f"{row.name[:24]:24s} |{bar}| {row.duty:4.0%}")
        lines.append(
            f"{'':24s}  initiation interval: {initiation} cycles; "
            f"steady-state fraction: {self.overlap():.0%}"
        )
        return "\n".join(lines)
