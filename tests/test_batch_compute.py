"""Property tests: each kernel's batched path equals its IR node's ``compute``.

``ConvKernel`` and ``ThresholdKernel`` count a threshold unit's integer
cuts (``ThresholdCuts``); ``MaxPoolKernel`` takes a running maximum over
strided taps.  The oracle is the node's ``compute``, which is what
``run_graph`` runs: ``ThresholdUnit.apply`` compares in float64 against
the fractional endpoints.  The units are drawn so that endpoints sit
exactly on accumulator values, half a step off them, and on each side of
``±acc_bound`` and of the dtype's exact-integer limit where the cuts are
clipped; slopes of every sign share one layer; and the inputs and weights
include the extremes that reach ``±acc_bound`` itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import simulate  # first: repro.kernels before repro.dataflow is an import cycle
from repro.kernels import ConvKernel, MaxPoolKernel, ThresholdKernel
from repro.nn import functional as F
from repro.nn import run_graph
from repro.nn.graph import ConvNode, InputNode, LayerGraph, MaxPoolNode, TensorSpec, ThresholdNode
from repro.quantization.thresholds import ThresholdUnit

_OFFSETS = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1e-9, -1e-9]),
    st.floats(-3.0, 3.0),
)


def _draw_unit(data, channels: int, bits: int, anchors: list[float]) -> ThresholdUnit:
    """Each channel's slope sign drawn from {-1, 0, +1}, its endpoints near ``anchors``."""
    levels = 1 << bits
    signs, taus, steps, consts = [], [], [], []
    for _ in range(channels):
        sign = data.draw(st.sampled_from([-1, 0, 1]))
        const = data.draw(st.integers(0, levels - 1))
        if sign == 0:
            # Zero slope as BatchNorm folds it (zero endpoints) or as NaN endpoints.
            tau = step = data.draw(st.sampled_from([0.0, float("nan")]))
        else:
            step = sign * data.draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.25, 8.0)))
            # The first endpoint tau + step lands on or next to an anchor.
            tau = data.draw(st.sampled_from(anchors)) + data.draw(_OFFSETS) - step
        signs.append(sign)
        taus.append(tau)
        steps.append(step)
        consts.append(const)
    return ThresholdUnit(
        tau=np.array(taus),
        step=np.array(steps),
        slope_sign=np.array(signs, dtype=np.int64),
        const_level=np.array(consts, dtype=np.int64),
        bits=bits,
    )


def _anchors(data, values: np.ndarray, *bounds: int) -> list[float]:
    """Values the endpoints aim at: some seen inputs, and each side of ``±bound``."""
    seen = data.draw(st.lists(st.sampled_from(values.ravel().tolist()), min_size=1, max_size=4))
    edges = [s * (b + d) for b in bounds for d in (-1, 0, 1) for s in (1, -1)]
    return [float(v) for v in seen + edges + [1e30, -1e30]]


def _draw_conv(data, in_bits: int, channels: tuple[int, int], kernel_sizes: tuple[int, int]):
    """A conv geometry, its ±1 weights (all +1 or all -1 at times) and an input batch."""
    k = data.draw(st.integers(*kernel_sizes))
    stride = data.draw(st.integers(1, 2))
    pad = data.draw(st.integers(0, 1))
    c_in = data.draw(st.integers(*channels))
    c_out = data.draw(st.integers(1, 5))
    h = data.draw(st.integers(max(1, k - 2 * pad), 6))
    w = data.draw(st.integers(max(1, k - 2 * pad), 6))
    n = data.draw(st.integers(1, 3))
    top = (1 << in_bits) - 1
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weight_kind = data.draw(st.sampled_from(["random", "plus", "minus"]))
    if weight_kind == "random":
        weights = rng.choice([-1, 1], size=(k, k, c_in, c_out))
    else:
        weights = np.full((k, k, c_in, c_out), 1 if weight_kind == "plus" else -1)
    input_kind = data.draw(st.sampled_from(["random", "top", "zero"]))
    if input_kind == "random":
        x = rng.integers(0, top + 1, size=(n, h, w, c_in))
    else:
        x = np.full((n, h, w, c_in), top if input_kind == "top" else 0)
    pad_level = data.draw(st.sampled_from([0, top]))
    spec = TensorSpec(h, w, c_in, "levels", in_bits)
    return weights, stride, pad, pad_level, spec, x.astype(np.int64)


def _check_conv(data, in_bits, channels=(1, 4), kernel_sizes=(1, 3)) -> ConvKernel:
    weights, stride, pad, pad_level, spec, x = _draw_conv(data, in_bits, channels, kernel_sizes)
    raw = ConvNode("conv", weights, stride=stride, pad=pad, pad_level=pad_level)
    acc = raw.accumulate(x)
    raw_kernel = ConvKernel("conv", raw, spec)
    assert np.abs(acc).max() <= raw_kernel.acc_bound
    # The cut table is clipped at the GEMM dtype's exact-integer limit.
    limit = 1 << (np.finfo(raw_kernel._wmat.dtype).nmant + 1)
    bits = data.draw(st.sampled_from([1, 2]))
    anchors = _anchors(data, acc, raw_kernel.acc_bound, limit)
    unit = _draw_unit(data, weights.shape[3], bits, anchors)
    node = ConvNode("conv", weights, stride=stride, pad=pad, pad_level=pad_level, threshold=unit)
    kernel = ConvKernel("conv", node, spec)
    want = node.compute([x])
    np.testing.assert_array_equal(kernel.batch_compute(x), want)
    # The streamed per-window path counts the same table, one window at a time.
    cols = F.im2col(F.pad2d(x, pad, pad_level), weights.shape[0], stride)
    streamed = [kernel._compute_outputs(col) for col in cols.reshape(-1, cols.shape[-1])]
    np.testing.assert_array_equal(np.reshape(streamed, want.shape), want)
    return kernel


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_conv_float32_path_equals_compute(data):
    kernel = _check_conv(data, data.draw(st.integers(1, 3)))
    assert kernel._wmat.dtype == np.float32


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_conv_float64_path_equals_compute(data):
    # 24-bit inputs put the accumulator bound past 2**24: the GEMM runs in float64.
    kernel = _check_conv(data, 24, channels=(2, 3))
    assert kernel.acc_bound >= 1 << 24
    assert kernel._wmat.dtype == np.float64


@given(st.data())
@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize(("in_bits", "dtype"), [(24, np.float32), (53, np.float64)])
def test_conv_accumulators_at_the_dtype_limit(in_bits, dtype, data):
    # One 1x1 tap: accumulators reach ±(2**in_bits − 1), the largest
    # integer magnitude the GEMM dtype holds below its exact limit.
    kernel = _check_conv(data, in_bits, channels=(1, 1), kernel_sizes=(1, 1))
    assert kernel.acc_bound == (1 << in_bits) - 1
    assert kernel._wmat.dtype == dtype


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_threshold_kernel_equals_compute(data):
    h, w, c = (data.draw(st.integers(1, 5)) for _ in range(3))
    n = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-(1 << 15), 1 << 15, size=(n, h, w, c))
    bits = data.draw(st.sampled_from([1, 2]))
    unit = _draw_unit(data, c, bits, _anchors(data, x, 1 << 15, 1 << 62))
    node = ThresholdNode("bnact", unit)
    kernel = ThresholdKernel("bnact", node, TensorSpec(h, w, c, "acc", 16))
    np.testing.assert_array_equal(kernel.batch_compute(x), node.compute([x]))


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(1, 4),
    st.sampled_from([np.int64, np.int32, np.uint8]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_maxpool_equals_compute(k, stride, pad, channels, dtype, seed):
    pad = min(pad, k - 1)
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(max(1, k - 2 * pad), 8, size=2))
    x = rng.integers(0, 4, size=(int(rng.integers(1, 4)), h, w, channels)).astype(dtype)
    node = MaxPoolNode("pool", k, stride=stride, pad=pad)
    kernel = MaxPoolKernel("pool", node, TensorSpec(h, w, channels, "levels", 2))
    got = kernel.batch_compute(x)
    assert got.dtype == x.dtype
    np.testing.assert_array_equal(got, node.compute([x]))


def test_cuts_do_not_trust_a_capped_accumulator_spec():
    # A raw conv's accumulator spec is capped at the 16-bit skip width, so
    # the next conv's acc_bound (4,194,240) is below its real accumulators
    # (9,400,320).  Cuts clipped at acc_bound + 1 would pass endpoints near
    # 9.5M; cuts clipped at the GEMM dtype's limit keep the levels exact.
    graph = LayerGraph(name="capped-spec")
    graph.add(InputNode("input", 4, 4, 64, 8))
    graph.add(ConvNode("raw", np.ones((3, 3, 64, 64), np.int8), pad=1), ["input"])
    unit = ThresholdUnit(
        tau=np.full(2, 9.0e6),
        step=np.full(2, 0.5e6),
        slope_sign=np.ones(2, dtype=np.int64),
        const_level=np.zeros(2, dtype=np.int64),
        bits=2,
    )
    graph.add(ConvNode("th", np.ones((1, 1, 64, 2), np.int8), threshold=unit), ["raw"])
    images = np.full((1, 4, 4, 64), 255)
    run = simulate(graph, images)
    assert run.pipeline.kernels_by_node["th"].acc_bound < 9_400_320
    np.testing.assert_array_equal(run.output, run_graph(graph, images).output)
