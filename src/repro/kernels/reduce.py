"""Global average pooling as a streaming integer reduction.

ResNet-18's final pooling (the only non-max pooling in the paper's
networks) is exported as an exact integer *sum* per channel; the divisor is
folded into the output affine.  The kernel consumes the whole feature map
(one element per cycle) and then drains one channel sum per cycle.
"""

from __future__ import annotations

import numpy as np

from ..dataflow.kernel import STALL_BLOCKED, STALL_STARVED, Kernel, OpProgram
from ..nn.graph import TensorSpec

__all__ = ["GlobalAvgSumKernel"]


class GlobalAvgSumKernel(Kernel):
    """Per-channel integer sum over the full spatial extent."""

    blocked_rejects_output = True
    stall_order = (STALL_STARVED, STALL_BLOCKED)  # each op checks one port

    def __init__(self, name: str, in_spec: TensorSpec) -> None:
        super().__init__(name)
        self.channels = in_spec.channels
        self._per_image = in_spec.elements
        self._sums = [0] * self.channels
        self._count = 0
        self._emit_chan: int | None = None
        self.images_done = 0

    def op_program(self) -> OpProgram:
        """Pop every element, then push the C channel sums."""
        return OpProgram(
            ops=self._per_image + self.channels,
            pops=(np.arange(self._per_image),),
            pushes=(self._per_image + np.arange(self.channels),),
        )

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """Batched exact integer channel sums, ``(N, H, W, C)`` -> ``(N, 1, 1, C)``."""
        return x.sum(axis=(1, 2), keepdims=True, dtype=np.int64)

    def tick(self, cycle: int) -> None:
        out = self.outputs[0]
        if self._emit_chan is not None:
            if out.push(self._sums[self._emit_chan], cycle):
                self.stats.elements_out += 1
                self.stats.mark_active(cycle)
                self._emit_chan += 1
                if self._emit_chan >= self.channels:
                    self._emit_chan = None
                    self._sums = [0] * self.channels
                    self.images_done += 1
                return None
            return self._blocked(cycle)
        inp = self.inputs[0]
        fifo = inp._fifo
        if not (fifo and fifo[0][1] <= cycle):
            return self._starved(cycle)
        value = inp.pop(cycle)
        self.stats.elements_in += 1
        self._sums[self._count % self.channels] += value
        self._count += 1
        self.stats.mark_active(cycle)
        if self._count >= self._per_image:
            self._count = 0
            self._emit_chan = 0
