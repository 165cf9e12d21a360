"""Fused BatchNorm + n-bit activation as a threshold unit (paper §III-B3).

FINN showed that BatchNorm followed by a 1-bit activation collapses into a
single threshold comparison.  The paper extends this to multi-bit
activations: with BatchNorm

    BatchNorm(a_k, Θ_k) = γ_k · (a_k − µ_k) · i_k + B_k

and an n-bit uniform activation of range width ``d``, solving
``BatchNorm(τ_k) = 0`` gives ``τ_k = µ_k − B_k / (γ_k · i_k)`` and solving
``BatchNorm(t_k) = α · d`` gives

    t_k(α) = τ_k + α · [d / (γ_k · i_k)].

So per channel only **two parameters** — ``τ_k`` and ``step_k = d / (γ_k ·
i_k)`` — generate every range endpoint, and the activation level is found by
a binary search over the ``2**n − 1`` interior endpoints (an n-input
comparator feeding a ``2**n -> 1`` multiplexer in hardware).

This module implements the parameter folding and the level evaluation,
exactly mirroring the paper's two stored 32-bit parameters per channel
(packed as one 64-bit word in the normalization cache).  The literal
comparator cascade runs in the streaming threshold kernel's ``tick``
(:class:`~repro.kernels.threshold.ThresholdKernel`), held to
:meth:`ThresholdUnit.apply` by the streaming tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizers import UniformQuantizer

__all__ = ["BatchNormParams", "ThresholdCuts", "ThresholdUnit", "fold_batchnorm", "fold_batchnorm_sign"]


@dataclass(frozen=True)
class BatchNormParams:
    """Per-channel inference-time BatchNorm parameters Θ_k = (γ, µ, i, B).

    ``i`` is the reciprocal standard deviation ``1 / sqrt(var + eps)``
    (the paper's ``i_k``); all arrays share one shape ``(channels,)``.
    """

    gamma: np.ndarray
    mu: np.ndarray
    inv_std: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        shapes = {np.shape(self.gamma), np.shape(self.mu), np.shape(self.inv_std), np.shape(self.beta)}
        if len(shapes) != 1:
            raise ValueError(f"BatchNorm parameter shapes differ: {shapes}")

    @property
    def channels(self) -> int:
        return int(np.shape(self.gamma)[0])

    @property
    def slope(self) -> np.ndarray:
        """The affine slope ``γ_k · i_k`` of the folded BatchNorm."""
        return np.asarray(self.gamma, dtype=np.float64) * np.asarray(self.inv_std, dtype=np.float64)

    def apply(self, a: np.ndarray, channel_axis: int = -1) -> np.ndarray:
        """Reference floating-point BatchNorm along ``channel_axis``."""
        a = np.asarray(a, dtype=np.float64)
        shape = [1] * a.ndim
        shape[channel_axis] = self.channels
        gamma = np.asarray(self.gamma, dtype=np.float64).reshape(shape)
        mu = np.asarray(self.mu, dtype=np.float64).reshape(shape)
        inv_std = np.asarray(self.inv_std, dtype=np.float64).reshape(shape)
        beta = np.asarray(self.beta, dtype=np.float64).reshape(shape)
        return gamma * (a - mu) * inv_std + beta

    @classmethod
    def from_moments(
        cls,
        gamma: np.ndarray,
        beta: np.ndarray,
        running_mean: np.ndarray,
        running_var: np.ndarray,
        eps: float = 1e-5,
    ) -> "BatchNormParams":
        """Build Θ_k from trained BatchNorm statistics."""
        inv_std = 1.0 / np.sqrt(np.asarray(running_var, dtype=np.float64) + eps)
        return cls(
            gamma=np.asarray(gamma, dtype=np.float64),
            mu=np.asarray(running_mean, dtype=np.float64),
            inv_std=inv_std,
            beta=np.asarray(beta, dtype=np.float64),
        )


@dataclass(frozen=True)
class ThresholdUnit:
    """Per-channel threshold evaluator for fused BatchNorm + n-bit activation.

    Stores, per channel, the paper's two parameters: ``tau`` (the input at
    which the normalized output crosses zero) and ``step = d / (γ·i)``
    (spacing between consecutive pre-activation endpoints).  ``slope_sign``
    records the sign of ``γ·i``: with a negative slope the BatchNorm output
    *decreases* in ``a`` and the comparison direction flips; with a zero
    slope the output is the constant ``B_k`` and so is the level.
    """

    tau: np.ndarray
    step: np.ndarray
    slope_sign: np.ndarray
    const_level: np.ndarray
    bits: int

    @property
    def channels(self) -> int:
        return int(np.shape(self.tau)[0])

    @property
    def levels(self) -> int:
        return 1 << self.bits

    def endpoints(self) -> np.ndarray:
        """Pre-activation endpoints ``t_k(α) = τ_k + α·step_k``; shape (channels, 2**n − 1).

        For channels with zero slope the endpoints are meaningless (NaN).
        """
        alphas = np.arange(1, self.levels, dtype=np.float64)
        return self.tau[:, None] + alphas[None, :] * self.step[:, None]

    def apply(self, a: np.ndarray, channel_axis: int = -1) -> np.ndarray:
        """Evaluate activation levels for pre-BatchNorm values ``a``.

        Equivalent to a per-channel binary search over the sorted endpoints:
        the returned level is the number of endpoints at or below ``a``
        (slope > 0) or at or above ``a`` (slope < 0), i.e. exactly which of
        the ``2**n`` ranges ``BatchNorm(a)`` falls into.
        """
        a = np.asarray(a, dtype=np.float64)
        a_moved = np.moveaxis(a, channel_axis, -1)
        if a_moved.shape[-1] != self.channels:
            raise ValueError(
                f"channel axis has size {a_moved.shape[-1]}, expected {self.channels}"
            )
        ends = self.endpoints()  # (C, L-1)
        # level = #{alpha : BN(a) >= alpha * d}.  BN(a) >= alpha*d  <=>
        # a >= t(alpha) for positive slope, a <= t(alpha) for negative slope.
        pos = (a_moved[..., None] >= ends).sum(axis=-1, dtype=np.int64)
        neg = (a_moved[..., None] <= ends).sum(axis=-1, dtype=np.int64)
        out = np.where(self.slope_sign > 0, pos, neg)
        out = np.where(self.slope_sign == 0, self.const_level, out)
        return np.moveaxis(out, -1, channel_axis)

    def cache_words(self) -> np.ndarray:
        """The normalization cache contents: one 64-bit word per channel.

        The paper stores the two per-channel parameters as 32-bit values
        packed into a single 64-bit cache word; we mirror that layout with
        two float32 halves.
        """
        lo = np.asarray(self.tau, dtype=np.float32).view(np.uint32).astype(np.uint64)
        hi = np.asarray(self.step, dtype=np.float32).view(np.uint32).astype(np.uint64)
        return (hi << np.uint64(32)) | lo

    @classmethod
    def from_cache_words(cls, words: np.ndarray, bits: int) -> "ThresholdUnit":
        """Rebuild a (float32-rounded) unit from packed normalization-cache words."""
        words = np.asarray(words, dtype=np.uint64)
        tau = (words & np.uint64(0xFFFFFFFF)).astype(np.uint32).view(np.float32).astype(np.float64)
        step = (words >> np.uint64(32)).astype(np.uint32).view(np.float32).astype(np.float64)
        sign = np.sign(step).astype(np.int64)
        return cls(
            tau=tau,
            step=step,
            slope_sign=sign,
            const_level=np.zeros_like(sign),
            bits=bits,
        )


class ThresholdCuts:
    """A :class:`ThresholdUnit` compiled to integer cuts in ``dtype``.

    The hardware compares an integer accumulator against the endpoints.
    Folding the slope sign in (``a <= e`` is ``-a >= -e``), the level is
    the count of folded endpoints at or below the folded input, and for an
    integer ``x`` the test ``x >= e`` is the test ``x >= ceil(e)``.  So
    each endpoint becomes one integer cut ``ceil(sign · e)`` per level and
    channel.  The cuts are clipped to ``±limit``, the dtype's exact-integer
    limit (2**24 in float32, 2**53 in float64, 2**62 in int64): against an
    input of smaller magnitude a clipped cut tests the same as the cut, and
    every clipped cut is exact in ``dtype``.  A NaN endpoint never counts
    (``x >= nan`` is false), so its cut is ``limit``.  Calling the table on
    integer inputs below the limit, channels last, gives exactly
    :meth:`ThresholdUnit.apply`, in the table's count dtype: the narrowest
    unsigned type that holds ``levels - 1`` (``uint8`` up to 8-bit
    activations), so a level tensor moves one byte per value.
    """

    __slots__ = ("cuts", "sign", "const_mask", "const_level", "_count_dtype")

    def __init__(self, unit: ThresholdUnit, dtype: np.dtype) -> None:
        dtype = np.dtype(dtype)
        exact_bits = np.finfo(dtype).nmant + 1 if dtype.kind == "f" else 8 * dtype.itemsize - 2
        limit = float(1 << exact_bits)
        slope_sign = np.asarray(unit.slope_sign)
        sign = np.where(slope_sign < 0, -1.0, 1.0)
        with np.errstate(invalid="ignore"):
            cuts = np.ceil(unit.endpoints() * sign[:, None])
        cuts = np.where(np.isnan(cuts), limit, np.clip(cuts, -limit, limit))
        self.cuts = np.ascontiguousarray(cuts.T, dtype=dtype)  # (levels - 1, channels)
        self.sign = sign.astype(dtype) if (slope_sign < 0).any() else None
        const = slope_sign == 0
        self.const_mask = const if const.any() else None
        self._count_dtype = np.min_scalar_type(self.cuts.shape[0])
        self.const_level = np.asarray(unit.const_level).astype(self._count_dtype)

    def __call__(self, acc: np.ndarray) -> np.ndarray:
        """Levels (in the count dtype) of integer inputs ``acc`` whose last axis is the channel."""
        return self.count(acc if self.sign is None else acc * self.sign)

    def count(self, folded: np.ndarray) -> np.ndarray:
        """Levels of inputs already multiplied by :attr:`sign`: the cuts at or below each."""
        if folded.ndim == 1:
            # One streamed window: a single broadcast compare beats the loop.
            out = (folded >= self.cuts).sum(axis=0, dtype=self._count_dtype)
        else:
            # Compare along the last two axes merged, against cuts tiled to
            # match: one long inner loop per row instead of one per pixel.
            shape = folded.shape
            folded = folded.reshape(*shape[:-2], -1)
            out = np.zeros(folded.shape, dtype=self._count_dtype)
            for cut in np.tile(self.cuts, shape[-2]):
                out += folded >= cut
            out = out.reshape(shape)
        if self.const_mask is not None:
            return np.where(self.const_mask, self.const_level, out)
        return out


def fold_batchnorm(params: BatchNormParams, quantizer: UniformQuantizer) -> ThresholdUnit:
    """Fold BatchNorm parameters + an n-bit uniform activation into thresholds.

    Implements the paper's derivation: ``τ_k = µ_k − B_k / (γ_k · i_k)`` and
    ``step_k = d / (γ_k · i_k)``.  The paper anchors the activation at
    ``lo = 0`` (ranges ``[α·d, (α+1)·d)``); an arbitrary anchor shifts every
    BatchNorm-domain endpoint by ``lo``, i.e. shifts ``τ`` by
    ``lo / (γ_k · i_k)`` in the pre-activation domain.
    """
    slope = params.slope
    beta = np.asarray(params.beta, dtype=np.float64)
    mu = np.asarray(params.mu, dtype=np.float64)
    d = quantizer.d
    lo = quantizer.lo

    sign = np.sign(slope).astype(np.int64)
    safe = np.where(slope == 0, 1.0, slope)
    tau = np.where(sign == 0, 0.0, mu - (beta - lo) / safe)
    step = np.where(sign == 0, 0.0, d / safe)
    # Zero slope: BatchNorm output is the constant B_k; its level is fixed.
    const_level = np.clip(np.floor((beta - lo) / d), 0, quantizer.levels - 1).astype(np.int64)
    return ThresholdUnit(
        tau=tau, step=step, slope_sign=sign, const_level=const_level, bits=quantizer.bits
    )


def fold_batchnorm_sign(params: BatchNormParams) -> ThresholdUnit:
    """Fold BatchNorm + a 1-bit *sign* activation (the FINN/BNN case).

    The output level is ``1`` iff ``BatchNorm(a) >= 0``, i.e. a single
    comparison against ``τ_k`` whose direction follows the sign of the
    slope.  Represented as a 1-bit :class:`ThresholdUnit` whose single
    endpoint sits exactly at ``τ_k`` (``tau_eff = τ − step``, ``step``
    carries the slope sign).
    """
    slope = params.slope
    beta = np.asarray(params.beta, dtype=np.float64)
    mu = np.asarray(params.mu, dtype=np.float64)

    sign = np.sign(slope).astype(np.int64)
    safe = np.where(slope == 0, 1.0, slope)
    tau_true = mu - beta / safe
    step = np.where(sign == 0, 0.0, 1.0 / safe)
    tau = np.where(sign == 0, 0.0, tau_true - step)
    const_level = (beta >= 0).astype(np.int64)
    return ThresholdUnit(tau=tau, step=step, slope_sign=sign, const_level=const_level, bits=1)
