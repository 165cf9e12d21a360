"""Standalone BatchNorm + activation threshold kernel (§III-B3).

In the common case the threshold unit is fused into the convolution kernel
(no extra cycles).  After a residual add, however, BatchNorm + activation
run as their own streaming stage: one element in, one level out per clock,
evaluated as the paper describes — a comparison cascade (binary search)
over the ``2**n − 1`` pre-computed endpoints of the element's channel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from ..dataflow.kernel import STALL_BLOCKED, STALL_STARVED, Kernel, OpProgram
from ..nn.graph import TensorSpec, ThresholdNode
from ..quantization.thresholds import ThresholdCuts

__all__ = ["ThresholdKernel"]


class ThresholdKernel(Kernel):
    """Streaming fused BatchNorm + n-bit activation."""

    stall_order = (STALL_STARVED, STALL_BLOCKED)

    def __init__(self, name: str, node: ThresholdNode, in_spec: TensorSpec) -> None:
        super().__init__(name)
        self.unit = node.unit
        self.channels = in_spec.channels
        if self.unit.channels != self.channels:
            raise ValueError(f"{name}: threshold channels != stream channels")
        # Pre-compute per-channel endpoint tables once (the normalization
        # cache of the paper: two parameters per channel, expanded here).
        ends = self.unit.endpoints()
        self._signs = [int(s) for s in self.unit.slope_sign]
        self._const = [int(v) for v in self.unit.const_level]
        # Ascending per-channel endpoint lists for the hot path: plain
        # Python bisect beats an np.searchsorted call per element by ~5x.
        # Negative-slope channels store the reversed (ascending) endpoints.
        self._asc: list[list[float]] = [
            ends[c][::-1].tolist() if self._signs[c] < 0 else ends[c].tolist()
            for c in range(self.channels)
        ]
        self._n_ends = ends.shape[1]
        self._cuts = ThresholdCuts(self.unit, np.int64)
        self._chan = 0
        self.images_done = 0
        self._count = 0
        self._per_image = in_spec.elements

    def op_program(self) -> OpProgram:
        ops = np.arange(self._per_image)
        return OpProgram(ops=self._per_image, pops=(ops,), pushes=(ops,))

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """Batched threshold pass over ``(N, H, W, C)`` integer levels or sums.

        Counts each element's integer cuts level by level through the
        unit's cut table (:class:`ThresholdCuts`), built once in int64: the
        same count as the per-element bisect of :meth:`tick` for every input
        below 2**62 in magnitude, far past the adder's 16-bit skip width.
        The levels come back in the table's count dtype.
        """
        return self._cuts(x)

    def tick(self, cycle: int) -> None:
        inp = self.inputs[0]
        out = self.outputs[0]
        fifo = inp._fifo
        if not (fifo and fifo[0][1] <= cycle):
            return self._starved(cycle)
        if len(out._fifo) >= out.capacity:
            return self._blocked(cycle)
        value = inp.pop(cycle)
        chan = self._chan
        sign = self._signs[chan]
        if sign == 0:
            level = self._const[chan]
        elif sign > 0:
            level = bisect_right(self._asc[chan], value)
        else:
            level = self._n_ends - bisect_left(self._asc[chan], value)
        out.push(level, cycle)
        stats = self.stats
        stats.elements_in += 1
        stats.elements_out += 1
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        self._chan = chan + 1 if chan + 1 < self.channels else 0
        self._count += 1
        if self._count >= self._per_image:
            self._count = 0
            self.images_done += 1
