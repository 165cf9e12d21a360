"""Streaming pooling kernels (paper §III-B2).

"The pooling kernel is built similarly to the convolutional one.  Since the
pooling has no parameters, output pixels are calculated as soon as enough
data is accumulated inside the internal buffers.  In addition, since each
output pixel depends only on its own feature map, we do not need to wait
until input is finished, but can produce output at the same clock cycle at
which the input is received."

Concretely: with depth-first streaming, the K x K window of channel ``i``
completes exactly when element ``(r, c, i)`` of the window's bottom-right
pixel arrives — so the kernel can emit channel ``i``'s max in that same
cycle, never stalling the input (output rate ≤ input rate because pooling
is contractive).
"""

from __future__ import annotations

import numpy as np

from ..dataflow.kernel import STALL_BLOCKED, STALL_STARVED, Kernel, OpProgram
from ..nn.graph import MaxPoolNode, TensorSpec

__all__ = ["MaxPoolKernel"]


class MaxPoolKernel(Kernel):
    """Max pooling over a depth-first pixel stream, one in / up to one out per cycle."""

    stall_order = (STALL_BLOCKED, STALL_STARVED)  # an emit pixel checks its slot first

    def __init__(self, name: str, node: MaxPoolNode, in_spec: TensorSpec) -> None:
        super().__init__(name)
        self.k = node.kernel_size
        self.stride = node.stride
        self.pad = node.pad
        self.h = in_spec.height + 2 * node.pad
        self.w = in_spec.width + 2 * node.pad
        self.channels = in_spec.channels
        # Flat Python-int grid: element (r, c, i) lives at (r*w + c)*C + i.
        # Plain list indexing beats per-cycle numpy scalar access.
        self._grid = [0] * (self.h * self.w * self.channels)
        self._total = self.h * self.w * self.channels
        self._pos = 0
        self._pixel = 0
        self._i = 0
        self.images_done = 0
        # Per-pixel geometry tables and the flat offsets of the K x K window
        # (relative to the bottom-right element, same channel).
        self._emit_px = [
            self._emits_at(r, c) for r in range(self.h) for c in range(self.w)
        ]
        self._pad_px = [
            self._is_pad(r, c) for r in range(self.h) for c in range(self.w)
        ]
        self._win_offsets = [
            (dr * self.w + dc) * self.channels
            for dr in range(self.k)
            for dc in range(self.k)
        ]

    def op_program(self) -> OpProgram:
        """One op per padded-grid element: pops unless padding, pushes at emit pixels."""
        ops = np.arange(self._total).reshape(-1, self.channels)
        return OpProgram(
            ops=self._total,
            pops=(ops[~np.asarray(self._pad_px)].ravel(),),
            pushes=(ops[np.asarray(self._emit_px)].ravel(),),
        )

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """Batched functional max pool, ``(N, H, W, C)`` -> ``(N, Ho, Wo, C)``.

        Mirrors the streaming kernel exactly: the grid is padded with level 0
        (neutral under max for non-negative levels) and outputs appear at the
        stride-valid window positions.  The result is the running maximum
        of the k*k strided taps, one in-place ``np.maximum`` per tap, in
        the input's dtype.
        """
        k, stride, p = self.k, self.stride, self.pad
        grid = x
        if p:
            grid = np.zeros((x.shape[0], self.h, self.w, self.channels), dtype=x.dtype)
            grid[:, p : self.h - p, p : self.w - p, :] = x
        span_r = (self.h - k) // stride * stride + 1
        span_c = (self.w - k) // stride * stride + 1
        taps = [
            grid[:, dr : dr + span_r : stride, dc : dc + span_c : stride]
            for dr in range(k)
            for dc in range(k)
        ]
        out = taps[0].copy()
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        return out

    def _emits_at(self, r: int, c: int) -> bool:
        if r < self.k - 1 or c < self.k - 1:
            return False
        return (r - (self.k - 1)) % self.stride == 0 and (c - (self.k - 1)) % self.stride == 0

    def _is_pad(self, r: int, c: int) -> bool:
        p = self.pad
        return p > 0 and (r < p or r >= self.h - p or c < p or c >= self.w - p)

    def tick(self, cycle: int) -> None:
        if self._pos >= self._total:
            self._finish_image()
        pixel = self._pixel
        emits = self._emit_px[pixel]
        out = self.outputs[0]
        if emits and len(out._fifo) >= out.capacity:
            # Must emit this cycle but there is no space: stall the input too
            # (the value cannot be consumed without producing).
            return self._blocked(cycle)
        stats = self.stats
        if self._pad_px[pixel]:
            value = 0  # level 0: neutral under max for non-negative levels
        else:
            inp = self.inputs[0]
            fifo = inp._fifo
            if not (fifo and fifo[0][1] <= cycle):
                return self._starved(cycle)
            value = inp.pop(cycle)
            stats.elements_in += 1
        i = self._i
        base = pixel * self.channels + i
        grid = self._grid
        grid[base] = value
        self._pos += 1
        if i + 1 < self.channels:
            self._i = i + 1
        else:
            self._i = 0
            self._pixel = pixel + 1
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        if emits:
            out.push(max(grid[base - off] for off in self._win_offsets), cycle)
            stats.elements_out += 1
        if self._pos >= self._total:
            self._finish_image()

    def _finish_image(self) -> None:
        if self._pos >= self._total:
            self.images_done += 1
            self._pos = 0
            self._pixel = 0
            self._i = 0
