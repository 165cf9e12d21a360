"""The streaming convolution kernel (paper Figure 3, §III-B1).

Behaviour per clock cycle, exactly as the paper describes:

* the kernel scans the (padded) input grid depth-first, consuming one
  stream element per cycle; at padding positions it "stops the input stream
  and inputs padding values into the buffer instead";
* every time the shift-register window completes at a valid output position
  (stride-aligned, inside the border), the kernel **halts the input** and
  emits one output pixel per clock until all ``O`` filters have been applied
  at this position;
* positions that produce no output (borders, stride-skipped pixels) consume
  input without an emit phase — the source of the ~13x first-layer speedup
  the paper reports for stride 4;
* the XNOR-popcount dot product, BatchNorm and activation all happen inside
  the kernel's pipeline and cost no extra cycles (they add pipeline depth,
  not initiation-interval cycles).

Fully connected layers reuse this kernel with ``K`` equal to the feature
map size (§III-B4).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from ..dataflow.kernel import STALL_BLOCKED, STALL_STARVED, Kernel, OpProgram
from ..dataflow.window import ScanWindow
from ..nn.graph import SKIP_DTYPE_BITS, ConvNode, TensorSpec
from ..quantization.thresholds import ThresholdCuts

__all__ = ["ConvKernel"]

# float32 represents every integer below 2**24 exactly.
_FLOAT32_EXACT = 1 << 24


class ConvKernel(Kernel):
    """Streaming convolution of one IR :class:`ConvNode`.

    Parameters
    ----------
    name:
        Kernel name (usually the IR node name).
    node:
        The convolution node carrying ±1 weights, stride/pad and the
        optional fused threshold unit.
    in_spec:
        Input tensor spec (unpadded).
    """

    blocked_rejects_output = True
    # Each op checks one port: a feed its input, an emit its output slot.
    stall_order = (STALL_STARVED, STALL_BLOCKED)

    def __init__(self, name: str, node: ConvNode, in_spec: TensorSpec) -> None:
        super().__init__(name)
        self.node = node
        self.in_spec = in_spec
        self.k = node.kernel_size
        self.stride = node.stride
        self.pad = node.pad
        self.hp = in_spec.height + 2 * node.pad
        self.wp = in_spec.width + 2 * node.pad
        self.channels = in_spec.channels
        self.out_channels = node.out_channels
        # Largest accumulator magnitude: k*k*C taps of ±1 weights times the
        # largest input level, the pad level included.  Every partial sum of
        # a GEMM is an integer no larger than this, so a float type that
        # holds all integers up to it is exact in any BLAS summation order:
        # float32 below 2**24, float64 (exact below 2**53) otherwise.  An
        # input spec at SKIP_DTYPE_BITS may be clipped there (a raw conv's
        # accumulators), so it bounds nothing: such a conv runs in float64.
        max_level = max((1 << in_spec.bits) - 1, abs(int(node.pad_level)))
        self.acc_bound = self.k * self.k * self.channels * max_level
        exact32 = self.acc_bound < _FLOAT32_EXACT and in_spec.bits != SKIP_DTYPE_BITS
        gemm_dtype = np.float32 if exact32 else np.float64
        self._wmat = node.weights.reshape(-1, node.out_channels).astype(gemm_dtype)
        # The fused threshold unit as one integer cut table in the GEMM
        # dtype, built once (the paper's normalization cache).  The GEMM
        # weights carry its slope signs, so their accumulators come out
        # sign-folded and are counted as they are.
        self._levels: Callable[[np.ndarray], np.ndarray] | None = None
        if node.threshold is not None:
            cuts = ThresholdCuts(node.threshold, gemm_dtype)
            if cuts.sign is not None:
                self._wmat *= cuts.sign
            self._levels = cuts.count
        self._window = ScanWindow(self.hp, self.wp, self.channels, self.k)
        self._pending: deque[int] = deque()
        self.images_done = 0
        self._pad_value = int(node.pad_level)
        # Per-pixel geometry tables: padding membership and emit validity,
        # indexed by the scan pixel ``r * wp + c``.
        self._pad_px = [
            self._is_pad(r, c) for r in range(self.hp) for c in range(self.wp)
        ]
        self._valid_px = [
            self._is_valid_position(r, c) for r in range(self.hp) for c in range(self.wp)
        ]

    # -- geometry ------------------------------------------------------
    def _is_pad(self, r: int, c: int) -> bool:
        p = self.pad
        return r < p or r >= self.hp - p or c < p or c >= self.wp - p

    def _is_valid_position(self, r: int, c: int) -> bool:
        return (r - (self.k - 1)) % self.stride == 0 and (c - (self.k - 1)) % self.stride == 0

    def op_program(self) -> OpProgram:
        """C feed ops per scan pixel (pad pixels pop nothing), then O emits per valid window."""
        channels, out_channels = self.channels, self.out_channels
        pixel = np.arange(self.hp * self.wp)
        r, c = np.divmod(pixel, self.wp)
        emits = np.asarray(self._valid_px) & (r >= self.k - 1) & (c >= self.k - 1)
        start = pixel * channels + out_channels * (np.cumsum(emits) - emits)
        feeds = start[:, None] + np.arange(channels)
        return OpProgram(
            ops=pixel.size * channels + out_channels * int(emits.sum()),
            pops=(feeds[~np.asarray(self._pad_px)].ravel(),),
            pushes=((start[emits, None] + channels + np.arange(out_channels)).ravel(),),
        )

    # -- per-position math ----------------------------------------------
    def _compute_outputs(self, window: np.ndarray) -> list[int]:
        """All ``O`` filter outputs of one completed window, as one batch.

        One GEMM plus one vectorized threshold pass replaces the
        per-filter loop; the results are then replayed onto the output
        stream one element per clock, so cycle accounting is untouched.
        """
        acc = window.reshape(-1).astype(self._wmat.dtype) @ self._wmat
        if self._levels is None:
            return acc.astype(np.int64).tolist()
        return self._levels(acc).tolist()

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """All output pixels of a batch of images as one blocked GEMM.

        ``x`` is ``(N, H, W, C)`` integers: levels in their cut table's
        count dtype, or int64 sums.  The result is ``(N, Ho, Wo, O)``
        levels in this layer's count dtype, or int64 accumulators without a
        threshold.  The taps go through the same weight
        matrix and threshold cut table as the streaming per-window path.
        The GEMM runs in float32 when :attr:`acc_bound` is below 2**24 and
        in float64 otherwise, so every product and partial sum is an exact
        integer and the result is bit-identical regardless of BLAS blocking
        (and to the packed AND-popcount route of
        :meth:`~repro.nn.graph.ConvNode.accumulate_bitpacked`, a tested
        property).  The weights carry the fused threshold's slope signs, so
        it counts each sign-folded accumulator's integer cuts level by level
        in that dtype (:meth:`ThresholdCuts.count`).  A solved run, which
        streams no values, takes its outputs from this.
        """
        acc = self._accumulate_gemm(x)
        if self._levels is None:
            return acc.astype(np.int64)
        return self._levels(acc)

    def _accumulate_gemm(self, x: np.ndarray) -> np.ndarray:
        """The batch's accumulators, ``(N, Ho, Wo, O)`` in the GEMM dtype."""
        n = x.shape[0]
        k, stride = self.k, self.stride
        wmat = self._wmat
        grid = np.full((n, self.hp, self.wp, self.channels), self._pad_value, dtype=wmat.dtype)
        p = self.pad
        grid[:, p : self.hp - p, p : self.wp - p, :] = x
        n_out_r = (self.hp - k) // stride + 1
        n_out_c = (self.wp - k) // stride + 1
        # One (C_in, O) GEMM per window tap, accumulated over the k*k taps:
        # im2col would gather the same data into one giant matrix, but the
        # strided 6D copy dwarfs the GEMM itself at batch scale.  The weight
        # matrix unflattens back to (k, k, C, O) — the ScanWindow tap order.
        taps = wmat.reshape(k, k, self.channels, self.out_channels)
        acc = np.zeros((n, n_out_r, n_out_c, self.out_channels), dtype=wmat.dtype)
        for dr in range(k):
            for dc in range(k):
                rows = grid[:, dr : dr + (n_out_r - 1) * stride + 1 : stride,
                            dc : dc + (n_out_c - 1) * stride + 1 : stride, :]
                acc += rows @ taps[dr, dc]
        return acc

    # -- cycle behaviour --------------------------------------------------
    def tick(self, cycle: int) -> None:
        pending = self._pending
        if pending:
            # Emit phase: input halted, one output pixel (channel) per clock.
            if self.outputs[0].push(pending[0], cycle):
                pending.popleft()
                stats = self.stats
                stats.active_cycles += 1
                if stats.first_active_cycle is None:
                    stats.first_active_cycle = cycle
                stats.last_active_cycle = cycle
                stats.elements_out += 1
                window = self._window
                if not pending and window._pos >= window._total:
                    self._finish_image()
                return None
            return self._blocked(cycle)

        window = self._window
        if window._pos >= window._total:
            self._finish_image()

        if self._pad_px[window._pixel]:
            self._feed(self._pad_value, cycle)
            return
        inp = self.inputs[0]
        fifo = inp._fifo
        if fifo and fifo[0][1] <= cycle:
            value = inp.pop(cycle)
            self.stats.elements_in += 1
            self._feed(value, cycle)
        else:
            return self._starved(cycle)

    def _feed(self, value: int, cycle: int) -> None:
        window = self._window
        completed = window.feed(value)
        stats = self.stats
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        if completed is not None:
            r, c, win = completed
            if self._valid_px[r * self.wp + c]:
                self._pending.extend(self._compute_outputs(win))
        if window._pos >= window._total and not self._pending:
            self._finish_image()

    def _finish_image(self) -> None:
        self.images_done += 1
        self._window.reset()
