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

import numpy as np

from ..dataflow.kernel import Kernel
from ..dataflow.window import ScanWindow, depth_first_buffer_elements
from ..nn.graph import ConvNode, TensorSpec

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
    use_bitops:
        Compute each output position through the packed XNOR/AND-popcount
        route instead of a dense ±1 matmul.  Bit-identical; slower in
        NumPy, faithful to the hardware datapath.
    """

    blocked_rejects_output = True
    supports_leap = True
    leap_counters = ("images_done",)

    def __init__(
        self, name: str, node: ConvNode, in_spec: TensorSpec, use_bitops: bool = False
    ) -> None:
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
        self.use_bitops = use_bitops
        # Largest accumulator magnitude: k*k*C taps of ±1 weights times the
        # largest input level, the pad level included.  Every partial sum of
        # a GEMM is an integer no larger than this, so a float type that
        # holds all integers up to it is exact in any BLAS summation order:
        # float32 below 2**24, float64 (exact below 2**53) otherwise.
        max_level = max((1 << in_spec.bits) - 1, abs(int(node.pad_level)))
        self.acc_bound = self.k * self.k * self.channels * max_level
        gemm_dtype = np.float32 if self.acc_bound < _FLOAT32_EXACT else np.float64
        self._wmat = node.weights.reshape(-1, node.out_channels).astype(gemm_dtype)
        # Bitops operands hoisted out of the per-position path: the packed
        # weight words, activation bit width, and a reusable plane-packing
        # buffer sized to the window vector (tail bits stay zero).
        self._in_bits = in_spec.bits
        if use_bitops:
            self._packed_words = node.packed_weights().words
            n_taps = self.k * self.k * self.channels
            n_words = (n_taps + 63) // 64
            self._pack_buf = np.zeros((self._in_bits, n_words * 64), dtype=np.uint8)
            self._plane_shifts = np.arange(self._in_bits, dtype=np.int64)[:, None]
        else:
            self._packed_words = None
        # Fused-threshold tables, precomputed once (the paper's
        # normalization cache): per-output-channel endpoints, slope signs
        # and constant levels for the vectorized comparison cascade.
        if node.threshold is not None:
            unit = node.threshold
            ends = unit.endpoints()  # (O, 2**n - 1)
            sign = np.asarray(unit.slope_sign)
            # Fold the slope sign into the endpoints so one >= comparison
            # covers both polarities: count(acc <= e) == count(-acc >= -e).
            sv = np.where(sign < 0, -1.0, 1.0)
            self._th_ends = ends * sv[:, None]
            self._th_sv = sv
            self._th_is_const = sign == 0
            self._th_const = np.asarray(unit.const_level)
        else:
            self._th_ends = None
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
        # Parameter-fetch cost (paper: weights + normalization parameters are
        # streamed in depth-first once, before inference starts).
        self.param_load_cycles = node.weight_count // max(1, self.k * self.k * self.channels) + (
            node.out_channels if node.threshold is not None else 0
        )

    # -- geometry ------------------------------------------------------
    def _is_pad(self, r: int, c: int) -> bool:
        p = self.pad
        return r < p or r >= self.hp - p or c < p or c >= self.wp - p

    def _is_valid_position(self, r: int, c: int) -> bool:
        return (r - (self.k - 1)) % self.stride == 0 and (c - (self.k - 1)) % self.stride == 0

    def hardware_buffer_elements(self) -> int:
        """Shift-register footprint: ``I·L·(K−1) + I·K`` over the padded line."""
        return depth_first_buffer_elements(self.wp, self.channels, self.k)

    def expected_cycles_per_image(self) -> int:
        """Closed-form per-image cycles: scan elements + per-position emits.

        This is the quantity the paper's §IV-B4 "theoretical estimation of
        the number of clocks per picture" sums over layers; the cycle
        simulator is tested to match it exactly in steady state.
        """
        scan = self.hp * self.wp * self.channels
        n_out_r = (self.hp - self.k) // self.stride + 1
        n_out_c = (self.wp - self.k) // self.stride + 1
        return scan + n_out_r * n_out_c * self.out_channels

    # -- per-position math ----------------------------------------------
    def _compute_outputs(self, window: np.ndarray) -> list[int]:
        """All ``O`` filter outputs of one completed window, as one batch.

        One GEMM (or one bitplane GEMM in bitops mode) plus one vectorized
        threshold pass replaces the per-filter loop; the results are then
        replayed onto the output stream one element per clock, so cycle
        accounting is untouched.
        """
        if self.use_bitops:
            acc = self._accumulate_bitpacked(window.reshape(-1))
            acc_f = acc.astype(np.float64)
        else:
            acc_f = window.reshape(-1).astype(self._wmat.dtype) @ self._wmat
        ends = self._th_ends
        if ends is None:
            return acc_f.astype(np.int64).tolist()
        # Vectorized equivalent of ThresholdUnit.apply for a (O,) vector:
        # the level is the count of sign-folded endpoints at-or-below the
        # accumulator, constant level where the slope is zero.
        out = ((acc_f * self._th_sv)[:, None] >= ends).sum(axis=-1, dtype=np.int64)
        out = np.where(self._th_is_const, self._th_const, out)
        return out.tolist()

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        # Scan position and emit backlog fully determine the next tick's
        # control flow; window *contents* are data and never steer it.
        return (self._window._pos, len(self._pending))

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """All output pixels of a batch of images as one blocked GEMM.

        ``x`` is ``(N, H, W, C)`` level-space int64; the result is
        ``(N, Ho, Wo, O)``.  The taps go through the same weight matrix and
        threshold endpoints as the streaming per-window path.  The GEMM runs
        in float32 when :attr:`acc_bound` is below 2**24 and in float64
        otherwise, so every product and partial sum is an exact integer and
        the result is bit-identical regardless of BLAS blocking (and to the
        bitops route, a tested property).  The leap scheduler uses this to
        synthesize the outputs of images whose cycles it fast-forwarded over.
        """
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
        ends = self._th_ends
        if ends is None:
            return acc.astype(np.int64)
        # The streaming path's cascade, one level at a time: count the
        # sign-folded endpoints at-or-below each accumulator, in float64.
        folded = acc * self._th_sv
        out = np.zeros(folded.shape, dtype=np.int64)
        for level_ends in ends.T:
            out += folded >= level_ends
        return np.where(self._th_is_const, self._th_const, out)

    def _accumulate_bitpacked(self, vec: np.ndarray) -> np.ndarray:
        """One AND-popcount GEMM for a single window vector.

        Equivalent to ``bitplane_gemm(packed_weights, pack_bitplanes(vec))``
        but packs into a reusable buffer and skips the (1, O, W) broadcast
        shape, since the conv hot loop always computes one position.
        """
        buf = self._pack_buf
        buf[:, : vec.shape[0]] = (vec >> self._plane_shifts) & 1
        planes = np.packbits(buf, axis=-1, bitorder="little").view(np.uint64)
        w_words = self._packed_words
        acc = None
        for b in range(self._in_bits):
            plane = planes[b]
            and_pc = np.bitwise_count(w_words & plane).sum(axis=-1, dtype=np.int64)
            mask_pc = int(np.bitwise_count(plane).sum())
            term = (2 * and_pc - mask_pc) << b
            acc = term if acc is None else acc + term
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

    def reset(self) -> None:
        super().reset()
        self._window.reset()
        self._pending.clear()
        self.images_done = 0
