"""Streams: the FIFO channels connecting dataflow kernels.

A :class:`Stream` models the configurable routing + FMem buffering the
Maxeler fabric provides between kernels: bounded capacity, one-cycle
register delay (an element pushed at cycle *t* is visible at *t + 1*), and
optional extra latency for off-chip links (MaxRing / PCIe).  Streams count
their own backpressure events so experiments can verify claims like "the
skip buffer never creates delays by itself" (§III-B5).  A stream has no
trace hooks: a traced run's push, pop and reject events are written from
the solved schedule, and the test oracle reads these counters and FIFOs
between the reference loop's cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .kernel import Kernel

__all__ = ["Stream", "StreamStats"]


@dataclass(slots=True)
class StreamStats:
    """Counters a stream accumulates over a run."""

    pushes: int = 0
    pops: int = 0
    full_rejections: int = 0
    max_occupancy: int = 0


class Stream:
    """A bounded FIFO with cycle-tagged availability.

    Parameters
    ----------
    name:
        Identifier used in traces and error messages.
    capacity:
        Maximum elements buffered.  The small default models the flip-flop
        FIFOs between adjacent kernels; skip-connection delay buffers get
        their exact §III-B5 size from the manager.
    latency:
        Extra cycles before a pushed element becomes visible (0 for on-chip
        streams; link models add their transport latency here).
    bits:
        Width of one element in bits; used by link-bandwidth accounting.
    """

    __slots__ = (
        "name",
        "capacity",
        "latency",
        "bits",
        "_fifo",
        "stats",
        "reader",
        "writer",
        "mark_every",
        "mark_cycles",
    )

    def __init__(self, name: str, capacity: int = 4, latency: int = 0, bits: int = 2) -> None:
        if capacity < 1:
            raise ValueError(f"stream {name!r}: capacity must be >= 1")
        if latency < 0:
            raise ValueError(f"stream {name!r}: latency must be >= 0")
        self.name = name
        self.capacity = capacity
        self.latency = latency
        self.bits = bits
        self._fifo: deque[tuple[int, int]] = deque()  # (value, ready_cycle)
        self.stats = StreamStats()
        # Endpoint kernels (set by Engine.connect); the schedule solver
        # reads the writer and reader of every stream.
        self.reader: Kernel | None = None
        self.writer: Kernel | None = None
        # Image-boundary marks: with ``mark_every`` set to the per-image
        # element count of the producing node, the push cycle of every
        # image's first element is recorded in ``mark_cycles`` — the
        # "first-pixel-out" instant the per-image lifecycle records use at
        # partition boundaries and the sink edge.  0 disables marking (one
        # int test per push when off).
        self.mark_every: int = 0
        self.mark_cycles: list[int] = []

    def __repr__(self) -> str:
        return f"Stream({self.name!r}, occ={len(self._fifo)}/{self.capacity})"

    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    def can_push(self) -> bool:
        return len(self._fifo) < self.capacity

    def push(self, value: int, cycle: int) -> bool:
        """Append ``value``; returns False (and counts a rejection) when full."""
        fifo = self._fifo
        stats = self.stats
        occ = len(fifo)
        if occ >= self.capacity:
            stats.full_rejections += 1
            return False
        fifo.append((int(value), cycle + 1 + self.latency))
        stats.pushes += 1
        if self.mark_every and (stats.pushes - 1) % self.mark_every == 0:
            self.mark_cycles.append(cycle)
        if occ >= stats.max_occupancy:
            stats.max_occupancy = occ + 1
        return True

    def can_pop(self, cycle: int) -> bool:
        return bool(self._fifo) and self._fifo[0][1] <= cycle

    def ready_count(self, cycle: int) -> int:
        """Number of elements visible at ``cycle`` (cheap scan from the head)."""
        count = 0
        for _, ready in self._fifo:
            if ready <= cycle:
                count += 1
            else:
                break
        return count

    def pop(self, cycle: int) -> int:
        """Remove and return the head element; caller must check :meth:`can_pop`."""
        fifo = self._fifo
        if not (fifo and fifo[0][1] <= cycle):
            raise RuntimeError(f"stream {self.name!r}: pop on empty/unready stream")
        value, _ = fifo.popleft()
        self.stats.pops += 1
        return value

    def peek(self, cycle: int) -> int:
        if not self.can_pop(cycle):
            raise RuntimeError(f"stream {self.name!r}: peek on empty/unready stream")
        return self._fifo[0][0]
