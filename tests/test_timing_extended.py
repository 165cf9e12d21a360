"""Extended timing-model tests: parameter load, fills, edge shapes."""

import numpy as np
import pytest

from repro.hardware import estimate_network_timing, kernel_timing
from repro.models import direct_resnet18_graph, direct_vgg_graph, random_threshold_unit
from repro.nn.graph import ConvNode, InputNode, LayerGraph, ThresholdNode

RNG = np.random.default_rng(11)


def signs(shape):
    return (RNG.integers(0, 2, size=shape) * 2 - 1).astype(np.int8)


class TestParameterLoad:
    def test_counts_weight_and_norm_entries(self):
        g = LayerGraph(name="t")
        g.add(InputNode("in", 8, 8, 2, 2))
        g.add(
            ConvNode("c1", signs((3, 3, 2, 4)), pad=1, threshold=random_threshold_unit(RNG, 4, 2)),
            ["in"],
        )
        g.add(ConvNode("c2", signs((1, 1, 4, 6))), ["c1"])
        g.add(ThresholdNode("t1", random_threshold_unit(RNG, 6, 2)), ["c2"])
        t = estimate_network_timing(g)
        # c1: 4 weight entries + 4 norm words; c2: 6 weight entries; t1: 6 norm words
        assert t.parameter_load_cycles == 4 + 4 + 6 + 6

    def test_load_is_once_not_per_image(self):
        """§III-B1a: parameters load once; per-image latency excludes them."""
        g = direct_vgg_graph(32, pool_to=4)
        t = estimate_network_timing(g)
        assert t.parameter_load_cycles > 0
        assert t.parameter_load_cycles < 0.1 * t.latency_cycles

    def test_resnet_load_small(self):
        t = estimate_network_timing(direct_resnet18_graph())
        assert t.parameter_load_ms < 0.2  # a fraction of a millisecond

    def test_load_preserved_at_clock(self):
        t = estimate_network_timing(direct_vgg_graph(32, pool_to=4))
        assert t.at_clock(525.0).parameter_load_cycles == t.parameter_load_cycles


class TestFillCycles:
    def test_conv_fill_is_buffer_plus_emits(self):
        g = LayerGraph(name="t")
        g.add(InputNode("in", 10, 10, 2, 2))
        g.add(ConvNode("c", signs((3, 3, 2, 4)), pad=1), ["in"])
        t = kernel_timing(g, "c")
        # (K-1) padded lines + K pixels, times I channels, plus O emits
        assert t.fill_cycles == (2 * 12 + 3) * 2 + 4

    def test_threshold_fill_minimal(self):
        g = LayerGraph(name="t")
        g.add(InputNode("in", 4, 4, 2, 2))
        g.add(ConvNode("c", signs((1, 1, 2, 2))), ["in"])
        g.add(ThresholdNode("th", random_threshold_unit(RNG, 2, 2)), ["c"])
        assert kernel_timing(g, "th").fill_cycles == 1

    def test_unknown_node_type_raises(self):
        from repro.hardware.timing import kernel_timing as kt

        class _FakeGraph:
            nodes = {"weird": object()}

            @staticmethod
            def parents(_name):
                return []

        with pytest.raises(TypeError):
            kt(_FakeGraph(), "weird")


class TestSweepShapes:
    def test_latency_superlinear_in_input_size(self):
        """Runtime grows faster than linearly with image side (Fig. 5)."""
        t32 = estimate_network_timing(direct_vgg_graph(32, pool_to=4)).latency_cycles
        t96 = estimate_network_timing(direct_vgg_graph(96, pool_to=4)).latency_cycles
        assert t96 / t32 > (96 / 32)

    def test_first_layer_stride_speedup(self):
        """§III-B1: 'given the stride S = 4, we acquire around 13x speedup'
        in the first layer — emit stalls drop by roughly S^2."""
        from repro.nn.graph import TensorSpec

        in_spec = TensorSpec(224, 224, 3, "levels", 2)
        node_s1 = ConvNode("s1", signs((11, 11, 3, 96)), stride=1, pad=2)
        node_s4 = ConvNode("s4", signs((11, 11, 3, 96)), stride=4, pad=2)
        spec1 = node_s1.infer([in_spec])
        spec4 = node_s4.infer([in_spec])
        emits1 = spec1.pixels * 96
        emits4 = spec4.pixels * 96
        assert 12 < emits1 / emits4 < 18
