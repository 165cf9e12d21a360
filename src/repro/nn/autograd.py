"""A small reverse-mode autograd engine over NumPy arrays.

This is the training substrate for quantization-aware training (QAT): the
paper's networks are trained with full-precision shadow weights whose
forward pass uses the Sign function (1-bit weights) and an n-bit uniform
activation, with **straight-through estimators** (STE) carrying gradients
through the non-differentiable quantizers (Hubara et al.).

The engine is deliberately minimal — tensors, a handful of fused ops with
hand-written backward passes, and topological-order backprop — but fully
vectorised: convolution backward is K² shifted scatter-adds, never a Python
loop over pixels.
"""

from __future__ import annotations

import numpy as np

from ..quantization.quantizers import UniformQuantizer
from . import functional as F

__all__ = [
    "Tensor",
    "add",
    "matmul",
    "conv2d",
    "maxpool2d",
    "global_avgpool",
    "batchnorm",
    "sign_ste",
    "uniform_quant_ste",
    "relu",
    "reshape",
    "cross_entropy",
]


class Tensor:
    """A NumPy array with an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        _prev: tuple["Tensor", ...] = (),
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = lambda: None
        self._prev = _prev
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}, name={self.name!r})"

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Accumulate a gradient contribution, un-broadcasting as needed."""
        g = _unbroadcast(np.asarray(g, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self.accumulate_grad(grad)
        for node in reversed(topo):
            node._backward()

    # Operator sugar -------------------------------------------------
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, scalar: float) -> "Tensor":
        return scale(self, scalar)

    __rmul__ = __mul__


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` (inverse of NumPy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _needs_grad(*ts: Tensor) -> bool:
    return any(t.requires_grad for t in ts)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, _needs_grad(a, b), (a, b))

    def backward() -> None:
        if a.requires_grad:
            a.accumulate_grad(out.grad)
        if b.requires_grad:
            b.accumulate_grad(out.grad)

    out._backward = backward
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, a.requires_grad, (a,))

    def backward() -> None:
        if a.requires_grad:
            a.accumulate_grad(out.grad * s)

    out._backward = backward
    return out


def matmul(x: Tensor, w: Tensor) -> Tensor:
    out = Tensor(x.data @ w.data, _needs_grad(x, w), (x, w))

    def backward() -> None:
        if x.requires_grad:
            x.accumulate_grad(out.grad @ w.data.T)
        if w.requires_grad:
            xd = x.data.reshape(-1, x.data.shape[-1])
            gd = out.grad.reshape(-1, out.grad.shape[-1])
            w.accumulate_grad(xd.T @ gd)

    out._backward = backward
    return out


def _col2im(
    gcols: np.ndarray, x_shape: tuple[int, ...], k: int, stride: int, pad: int
) -> np.ndarray:
    """Scatter-add patch gradients back to the (padded-then-cropped) input.

    ``gcols`` has shape ``(N, Ho, Wo, K*K*C)`` in (row, col, channel) patch
    order.  Runs K² vectorised adds.
    """
    n, h, w_, c = x_shape
    hp, wp = h + 2 * pad, w_ + 2 * pad
    gx = np.zeros((n, hp, wp, c), dtype=np.float64)
    _, ho, wo, _ = gcols.shape
    g6 = gcols.reshape(n, ho, wo, k, k, c)
    for di in range(k):
        for dj in range(k):
            gx[:, di : di + ho * stride : stride, dj : dj + wo * stride : stride, :] += g6[
                :, :, :, di, dj, :
            ]
    if pad:
        gx = gx[:, pad:-pad, pad:-pad, :]
    return gx


def conv2d(
    x: Tensor, w: Tensor, stride: int = 1, pad: int = 0, pad_value: float = 0.0
) -> Tensor:
    """Convolution of NHWC ``x`` with (K, K, I, O) filters ``w``."""
    k, _, _, co = w.data.shape
    xp = F.pad2d(x.data, pad, pad_value)
    cols = F.im2col(xp, k, stride)
    wmat = w.data.reshape(-1, co)
    out_data = cols @ wmat
    out = Tensor(out_data, _needs_grad(x, w), (x, w))

    def backward() -> None:
        g = out.grad
        if w.requires_grad:
            gw = cols.reshape(-1, cols.shape[-1]).T @ g.reshape(-1, co)
            w.accumulate_grad(gw.reshape(w.data.shape))
        if x.requires_grad:
            gcols = g @ wmat.T
            x.accumulate_grad(_col2im(gcols, x.data.shape, k, stride, pad))

    out._backward = backward
    return out


def maxpool2d(
    x: Tensor, k: int, stride: int | None = None, pad: int = 0, pad_value: float = 0.0
) -> Tensor:
    stride = k if stride is None else stride
    xb = F.pad2d(x.data, pad, pad_value) if pad else x.data
    from numpy.lib.stride_tricks import sliding_window_view

    windows = sliding_window_view(xb, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    n, ho, wo, c = windows.shape[:4]
    flat = windows.reshape(n, ho, wo, c, k * k)
    arg = flat.argmax(axis=-1)
    out = Tensor(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], x.requires_grad, (x,))

    def backward() -> None:
        if not x.requires_grad:
            return
        gx = np.zeros_like(xb)
        di, dj = np.divmod(arg, k)
        ii, jj, cc = np.meshgrid(np.arange(ho), np.arange(wo), np.arange(c), indexing="ij")
        for b in range(n):
            np.add.at(
                gx[b],
                (ii * stride + di[b], jj * stride + dj[b], cc),
                out.grad[b],
            )
        if pad:
            gx = gx[:, pad:-pad, pad:-pad, :]
        x.accumulate_grad(gx)

    out._backward = backward
    return out


def global_avgpool(x: Tensor) -> Tensor:
    n, h, w_, c = x.data.shape
    out = Tensor(x.data.mean(axis=(1, 2)), x.requires_grad, (x,))

    def backward() -> None:
        if x.requires_grad:
            g = out.grad[:, None, None, :] / (h * w_)
            x.accumulate_grad(np.broadcast_to(g, x.data.shape))

    out._backward = backward
    return out


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over all axes but the last (channel) axis.

    In training mode batch statistics are used and the running buffers are
    updated in place; in eval mode the running buffers are used.
    """
    axes = tuple(range(x.data.ndim - 1))
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = x.data.size // x.data.shape[-1]
        running_mean *= 1 - momentum
        running_mean += momentum * mean
        running_var *= 1 - momentum
        # unbiased variance for the running buffer, as torch does
        running_var += momentum * var * (m / max(m - 1, 1))
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    out = Tensor(gamma.data * xhat + beta.data, _needs_grad(x, gamma, beta), (x, gamma, beta))

    def backward() -> None:
        g = out.grad
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).sum(axis=axes))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=axes))
        if x.requires_grad:
            if training:
                gxhat = g * gamma.data
                gx = (
                    gxhat
                    - gxhat.mean(axis=axes)
                    - xhat * (gxhat * xhat).mean(axis=axes)
                ) * inv_std
                x.accumulate_grad(gx)
            else:
                x.accumulate_grad(g * gamma.data * inv_std)

    out._backward = backward
    return out


def sign_ste(w: Tensor, clip: float = 1.0) -> Tensor:
    """Sign with straight-through gradient, clipped where |w| > clip.

    This is the BinaryConnect/Hubara estimator: the forward pass binarizes,
    the backward pass is the identity inside the clipping region and zero
    outside (so saturated weights stop receiving gradient).
    """
    out = Tensor(np.where(w.data >= 0, 1.0, -1.0), w.requires_grad, (w,))

    def backward() -> None:
        if w.requires_grad:
            w.accumulate_grad(out.grad * (np.abs(w.data) <= clip))

    out._backward = backward
    return out


def uniform_quant_ste(x: Tensor, quantizer: UniformQuantizer) -> Tensor:
    """n-bit uniform quantization with a clipped straight-through gradient.

    Forward: quantize-dequantize through ``quantizer``.  Backward: identity
    for inputs inside the representable range ``[lo, hi)``, zero outside —
    the standard clipped STE used by DoReFa/QNN training.
    """
    out = Tensor(quantizer.quantize(x.data), x.requires_grad, (x,))

    def backward() -> None:
        if x.requires_grad:
            inside = (x.data >= quantizer.lo) & (x.data < quantizer.hi)
            x.accumulate_grad(out.grad * inside)

    out._backward = backward
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), x.requires_grad, (x,))

    def backward() -> None:
        if x.requires_grad:
            x.accumulate_grad(out.grad * (x.data > 0))

    out._backward = backward
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape), x.requires_grad, (x,))

    def backward() -> None:
        if x.requires_grad:
            x.accumulate_grad(out.grad.reshape(x.data.shape))

    out._backward = backward
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of (N, C) logits against integer labels."""
    labels = np.asarray(labels)
    n = logits.data.shape[0]
    logp = F.log_softmax(logits.data, axis=-1)
    loss = -logp[np.arange(n), labels].mean()
    out = Tensor(loss, logits.requires_grad, (logits,))

    def backward() -> None:
        if logits.requires_grad:
            p = np.exp(logp)
            p[np.arange(n), labels] -= 1.0
            logits.accumulate_grad(out.grad * p / n)

    out._backward = backward
    return out
