"""The batched output pass keeps level tensors in their cut table's count dtype.

``ThresholdCuts`` counts levels in the narrowest unsigned type that holds
``levels - 1``; ``batch_reference_outputs`` carries those narrow tensors
from kernel to kernel and widens only sums (the residual adder, raw
accumulators, channel sums).  A sum computed in the narrow dtype would
wrap, so the residual graph here adds two 8-bit threshold outputs whose
sums reach 510 and compares the batched outputs with ``run_graph`` and
the ticked reference loop.
"""

import numpy as np
import pytest

from repro.dataflow import batch_reference_outputs, build_pipeline, simulate
from repro.kernels import ConvKernel, ThresholdKernel
from repro.nn import run_graph
from repro.nn.graph import (
    SKIP_DTYPE_BITS,
    AddNode,
    ConvNode,
    InputNode,
    LayerGraph,
    TensorSpec,
    ThresholdNode,
)
from repro.quantization.thresholds import ThresholdCuts, ThresholdUnit


def _signs(rng, shape):
    return (rng.integers(0, 2, size=shape) * 2 - 1).astype(np.int8)


def _unit(channels, bits, tau, step=1.0, sign=None):
    """Per-channel ``tau`` and a shared step; ``sign`` 0 marks a zero-slope channel."""
    sign = np.ones(channels, dtype=np.int64) if sign is None else np.asarray(sign, dtype=np.int64)
    return ThresholdUnit(
        tau=np.where(sign == 0, 0.0, np.asarray(tau, dtype=np.float64)),
        step=np.where(sign == 0, 0.0, step * sign),
        slope_sign=sign,
        const_level=np.full(channels, (1 << bits) - 1, dtype=np.int64),
        bits=bits,
    )


def _residual_8bit_graph():
    """Two 8-bit thresholded convs summed by a residual adder, then a standalone threshold.

    Both units start counting far below every accumulator, so most levels
    sit at 255 and most sums at 510.
    """
    rng = np.random.default_rng(3)
    graph = LayerGraph(name="residual-8bit")
    graph.add(InputNode("input", 5, 5, 2, 8))
    graph.add(ConvNode("a", _signs(rng, (3, 3, 2, 3)), pad=1, threshold=_unit(3, 8, [-400, -300, -50])), ["input"])
    graph.add(ConvNode("b", _signs(rng, (1, 1, 3, 3)), threshold=_unit(3, 8, [-800, -700, -100])), ["a"])
    graph.add(AddNode("add"), ["a", "b"])
    return graph


def test_residual_sum_of_8bit_levels_does_not_wrap():
    graph = _residual_8bit_graph()
    images = np.random.default_rng(4).integers(0, 256, size=(3, 5, 5, 2))
    want = run_graph(graph, images).output
    assert want.max() == 510
    solved = simulate(graph, images)
    assert solved.leap_report.cycles is not None  # outputs from the batched pass
    assert solved.output.dtype == np.int64
    np.testing.assert_array_equal(solved.output, want)
    np.testing.assert_array_equal(simulate(graph, images, mode="exhaustive").output, want)


def test_residual_sum_feeds_a_standalone_threshold():
    graph = _residual_8bit_graph()
    # Endpoints between 255 and 510: a wrapped sum lands in the wrong level.
    graph.add(ThresholdNode("th", _unit(3, 2, [250.0, 300.0, 400.0], step=40.0)), ["add"])
    images = np.random.default_rng(5).integers(0, 256, size=(2, 5, 5, 2))
    want = run_graph(graph, images).output
    assert len(np.unique(want)) > 1
    np.testing.assert_array_equal(simulate(graph, images).output, want)
    np.testing.assert_array_equal(simulate(graph, images, mode="exhaustive").output, want)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.float64])
def test_batch_reference_outputs_returns_int64(dtype):
    # The graph's output is a thresholded conv: narrow levels widen only into ``out``.
    rng = np.random.default_rng(6)
    graph = LayerGraph(name="levels-out")
    graph.add(InputNode("input", 4, 4, 2, 2))
    graph.add(ConvNode("conv", _signs(rng, (3, 3, 2, 4)), pad=1, threshold=_unit(4, 2, rng.normal(0, 4, 4))), ["input"])
    images = rng.integers(0, 4, size=(2, 4, 4, 2)).astype(dtype)
    pipeline = build_pipeline(graph, images)
    got = batch_reference_outputs(pipeline, images)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, run_graph(graph, images.astype(np.int64)).output)


@pytest.mark.parametrize(("bits", "dtype"), [(1, np.uint8), (2, np.uint8), (8, np.uint8), (9, np.uint16)])
@pytest.mark.parametrize("const", [False, True])
def test_cut_table_counts_in_its_count_dtype(bits, dtype, const):
    rng = np.random.default_rng(bits)
    sign = [1, -1, 0] if const else [1, -1, 1]
    unit = _unit(3, bits, rng.normal(0, 50, 3), sign=sign)
    x = rng.integers(-600, 600, size=(2, 3, 4, 3))
    want = unit.apply(x)
    cuts = ThresholdCuts(unit, np.int64)
    assert (cuts.const_mask is not None) == const
    got, one = cuts(x), cuts(x[0, 0, 0])  # the cascade and the 1-D path
    assert got.dtype == one.dtype == dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(one, want[0, 0, 0])
    # The standalone kernel and the fused conv path return the same dtype.
    kernel = ThresholdKernel("th", ThresholdNode("th", unit), TensorSpec(3, 4, 3, "acc", 11))
    assert kernel.batch_compute(x).dtype == dtype
    node = ConvNode("conv", _signs(rng, (1, 1, 2, 3)), threshold=unit)
    conv = ConvKernel("conv", node, TensorSpec(3, 4, 2, "levels", 2))
    assert conv.batch_compute(rng.integers(0, 4, size=(2, 3, 4, 2)).astype(np.uint8)).dtype == dtype


def _capped_spec_graph():
    """The raw conv's accumulators (up to 9,400,320) pass its 16-bit capped spec."""
    graph = LayerGraph(name="capped-spec")
    graph.add(InputNode("input", 4, 4, 64, 8))
    graph.add(ConvNode("raw", np.ones((3, 3, 64, 64), np.int8), pad=1), ["input"])
    # Endpoints at 4.5M, 6.5M and 8.5M: corner, edge and centre pixels
    # (4,177,920, 6,266,880 and 9,400,320) land in levels 0, 1 and 3.
    unit = _unit(2, 2, [2.5e6, 2.5e6], step=2.0e6)
    graph.add(ConvNode("th", np.ones((1, 1, 64, 2), np.int8), threshold=unit), ["raw"])
    return graph


def test_conv_fed_by_a_capped_spec_runs_in_float64():
    graph = _capped_spec_graph()
    assert graph.specs["raw"].bits == SKIP_DTYPE_BITS
    images = np.full((1, 4, 4, 64), 255)
    run = simulate(graph, images)
    kernels = run.pipeline.kernels_by_node
    assert kernels["raw"]._wmat.dtype == np.float32
    assert kernels["th"]._wmat.dtype == np.float64
    want = run_graph(graph, images).output
    assert set(np.unique(want).tolist()) == {0, 1, 3}
    np.testing.assert_array_equal(run.output, want)
