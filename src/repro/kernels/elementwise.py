"""Element-wise streaming kernels: the residual adder and the stream fork.

The paper's skip-connection infrastructure (§III-B5, Figure 2) is exactly
these two pieces plus a delay buffer: the convolution output is *forked*
into the regular path and the skip path, and a later *adder* sums the
delayed skip stream with the next convolution's output.  "The addition of a
skip connection requires a minimal amount of resources — one adder and the
buffer."
"""

from __future__ import annotations

import numpy as np

from ..dataflow.kernel import STALL_BLOCKED, STALL_STARVED, Kernel, OpProgram

__all__ = ["AddKernel", "ForkKernel"]


class AddKernel(Kernel):
    """Sum two integer streams element-wise (the residual adder).

    Consumes one element from each input when both are available and the
    output has space; the skip path carries 16-bit integers in hardware.
    """

    stall_order = (STALL_STARVED, STALL_BLOCKED)

    def __init__(self, name: str, per_image_elements: int) -> None:
        super().__init__(name)
        self._per_image = per_image_elements
        self._count = 0
        self.images_done = 0

    def op_program(self) -> OpProgram:
        """Each op pops both inputs and pushes their sum."""
        ops = np.arange(self._per_image)
        return OpProgram(ops=self._per_image, pops=(ops, ops), pushes=(ops,))

    def batch_compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched functional residual add over ``(N, H, W, C)`` tensors, in int64.

        The operands may be narrow level tensors whose sum outgrows them.
        """
        return np.add(a, b, dtype=np.int64)

    def tick(self, cycle: int) -> None:
        a, b = self.inputs
        fa, fb = a._fifo, b._fifo
        if not (fa and fa[0][1] <= cycle and fb and fb[0][1] <= cycle):
            return self._starved(cycle)
        out = self.outputs[0]
        if len(out._fifo) >= out.capacity:
            return self._blocked(cycle)
        va = a.pop(cycle)
        vb = b.pop(cycle)
        stats = self.stats
        stats.elements_in += 2
        out.push(va + vb, cycle)
        stats.elements_out += 1
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        self._count += 1
        if self._count >= self._per_image:
            self._count = 0
            self.images_done += 1


class ForkKernel(Kernel):
    """Duplicate a stream to N consumers (the skip-path split of Figure 2).

    An element advances only when *every* output has space — a wire fork
    has no storage of its own.
    """

    stall_order = (STALL_STARVED, STALL_BLOCKED)

    def __init__(self, name: str, per_image_elements: int) -> None:
        super().__init__(name)
        self._per_image = per_image_elements
        self._count = 0
        self.images_done = 0

    def op_program(self) -> OpProgram:
        """Each op pops one element and pushes it to every output."""
        ops = np.arange(self._per_image)
        return OpProgram(ops=self._per_image, pops=(ops,), pushes=tuple(ops for _ in self.outputs))

    def tick(self, cycle: int) -> None:
        inp = self.inputs[0]
        fifo = inp._fifo
        if not (fifo and fifo[0][1] <= cycle):
            return self._starved(cycle)
        outputs = self.outputs
        for o in outputs:
            if len(o._fifo) >= o.capacity:
                return self._blocked(cycle)
        value = inp.pop(cycle)
        stats = self.stats
        stats.elements_in += 1
        for o in outputs:
            o.push(value, cycle)
        stats.elements_out += len(outputs)
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        self._count += 1
        if self._count >= self._per_image:
            self._count = 0
            self.images_done += 1
