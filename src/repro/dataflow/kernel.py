"""Kernel base class: the unit of functional decomposition.

Each NN layer becomes one kernel (§III: "each layer is represented in the
DFE Manager by a single function call").  A kernel owns input and output
streams and implements :meth:`tick`, which the engine calls once per clock
cycle.  The contract mirrors the paper's hardware model:

* at most one element consumed per input stream per cycle,
* at most one element produced per output stream per cycle,
* a kernel starts computing as soon as enough data has accumulated in its
  internal buffer — there is no layer-level barrier.

Kernels accumulate activity statistics so runs can quantify pipeline
overlap, initiation intervals, and stall causes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .stream import Stream

__all__ = [
    "Kernel",
    "KernelStats",
    "OpProgram",
    "STALL_STARVED",
    "STALL_BLOCKED",
    "STALL_IDLE",
]

# Stall classifications a tick reports through the helpers below, and the
# classes the schedule path derives for every cycle a kernel waits (traces
# name them starved / blocked / idle).
STALL_STARVED = 1
STALL_BLOCKED = 2
STALL_IDLE = 3


@dataclass(slots=True)
class KernelStats:
    """Per-kernel activity counters."""

    active_cycles: int = 0
    input_starved_cycles: int = 0
    output_blocked_cycles: int = 0
    idle_cycles: int = 0
    first_active_cycle: int | None = None
    last_active_cycle: int | None = None
    elements_in: int = 0
    elements_out: int = 0

    def mark_active(self, cycle: int) -> None:
        self.active_cycles += 1
        if self.first_active_cycle is None:
            self.first_active_cycle = cycle
        self.last_active_cycle = cycle


@dataclass(frozen=True, slots=True)
class OpProgram:
    """One image's ops of a kernel, from geometry alone.

    An *op* is one active cycle.  ``pops[p][j]`` is the op that pops
    element ``j`` of input port ``p`` and ``pushes[q][j]`` the op that
    pushes element ``j`` of output port ``q`` (both ascending); an op may
    pop and push several ports at once, or none (a padding feed).  Image
    ``m``'s ops follow image ``m - 1``'s with no gap in numbering, so op
    ``i`` of image ``m`` is op ``m * ops + i`` of the run.
    """

    ops: int
    pops: tuple[np.ndarray, ...]
    pushes: tuple[np.ndarray, ...]


class Kernel:
    """Base dataflow kernel."""

    # True for kernels whose blocked cycles attempt a push (and therefore
    # count a full_rejection on outputs[0] every blocked cycle); the
    # schedule path derives those rejections from the blocked cycles.
    blocked_rejects_output: ClassVar[bool] = False

    # -- schedule-path contract (see dataflow/schedule.py) ---------------
    # The order in which tick() checks an op's readiness, named by the
    # stall class each failing check reports: STALL_IDLE waits for an
    # open-loop arrival, STALL_STARVED for an input element, STALL_BLOCKED
    # for an output slot.  The schedule path gives every cycle a kernel
    # waits the class of the first check that still fails there, so this
    # must mirror tick() (lint KC007).  Empty: undeclared, the engine ticks.
    stall_order: ClassVar[tuple[int, ...]] = ()
    # True when tick() reports idle once the kernel's images are done (the
    # host endpoints).  Other kernels wrap into the next image's scan: they
    # run its leading ops that need no input (padding feeds), then wait.
    idles_when_done: ClassVar[bool] = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: list[Stream] = []
        self.outputs: list[Stream] = []
        self.stats = KernelStats()

    def connect_input(self, stream: Stream) -> None:
        self.inputs.append(stream)

    def connect_output(self, stream: Stream) -> None:
        self.outputs.append(stream)

    def tick(self, cycle: int) -> int | None:  # pragma: no cover - abstract
        """Advance one clock cycle; return a STALL_* code when stalled."""
        raise NotImplementedError

    def op_program(self) -> OpProgram:
        """The per-image op sequence :meth:`tick` walks, for the schedule solver.

        Must agree with :meth:`tick` op for op: the timing replay
        (:func:`repro.dataflow.schedule.replay_schedule`) computes every
        op's cycle from these tables instead of ticking (tested against
        the engine on every kernel class).
        """
        raise NotImplementedError(f"{type(self).__name__} has no op program")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    # convenience helpers ------------------------------------------------
    # Each counts one live stall cycle and returns the classification so a
    # tick can report it with ``return self._starved(cycle)``.
    def _starved(self, cycle: int) -> int:
        self.stats.input_starved_cycles += 1
        return STALL_STARVED

    def _blocked(self, cycle: int) -> int:
        self.stats.output_blocked_cycles += 1
        return STALL_BLOCKED

    def _idle(self, cycle: int) -> int:
        self.stats.idle_cycles += 1
        return STALL_IDLE
