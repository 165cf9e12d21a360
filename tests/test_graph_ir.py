"""Tests for the integer inference IR (nodes, specs, graph mechanics)."""

import numpy as np
import pytest

from repro.models import random_threshold_unit
from repro.nn.graph import (
    AddNode,
    Affine,
    ConvNode,
    GlobalAvgSumNode,
    InputNode,
    LayerGraph,
    MaxPoolNode,
    TensorSpec,
    ThresholdNode,
)

RNG = np.random.default_rng(6)


def signs(shape):
    return (RNG.integers(0, 2, size=shape) * 2 - 1).astype(np.int8)


class TestTensorSpec:
    def test_counts(self):
        s = TensorSpec(4, 5, 3, "levels", 2)
        assert s.pixels == 20 and s.elements == 60 and s.stream_bits == 2

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            TensorSpec(1, 1, 1, "float", 32)


class TestAffine:
    def test_apply(self):
        a = Affine(scale=0.5, offset=1.0)
        assert np.allclose(a.apply(np.array([0, 2])), [1.0, 2.0])

    def test_offset_vector_scalar(self):
        assert Affine(1.0, 2.0).offset_vector(3).tolist() == [2.0, 2.0, 2.0]

    def test_offset_vector_mismatch(self):
        with pytest.raises(ValueError):
            Affine(1.0, np.zeros(2)).offset_vector(3)


class TestConvNode:
    def test_spec_inference_fused(self):
        unit = random_threshold_unit(RNG, 8, 2)
        node = ConvNode("c", signs((3, 3, 4, 8)), stride=1, pad=1, threshold=unit)
        spec = node.infer([TensorSpec(10, 10, 4, "levels", 2)])
        assert (spec.height, spec.width, spec.channels) == (10, 10, 8)
        assert spec.kind == "levels" and spec.bits == 2

    def test_spec_inference_raw(self):
        node = ConvNode("c", signs((3, 3, 4, 8)))
        spec = node.infer([TensorSpec(10, 10, 4, "levels", 2)])
        assert spec.kind == "acc"
        # worst case |acc| = 9*4*3 = 108 -> 8 bits
        assert spec.bits == 8

    def test_channel_mismatch(self):
        node = ConvNode("c", signs((3, 3, 4, 8)))
        with pytest.raises(ValueError):
            node.infer([TensorSpec(10, 10, 5, "levels", 2)])

    def test_rejects_non_sign_weights(self):
        with pytest.raises(ValueError):
            ConvNode("c", np.zeros((3, 3, 1, 1)))

    def test_accumulate_matches_manual(self):
        node = ConvNode("c", signs((3, 3, 2, 4)), stride=2, pad=1)
        x = RNG.integers(0, 4, size=(6, 6, 2))
        acc = node.accumulate(x)
        from repro.nn import functional as F

        ref = F.conv2d(
            x.astype(float), node.weights.astype(float), stride=2, pad=1, pad_value=0.0
        )
        assert np.allclose(acc, ref)

    def test_bitpacked_equals_dense(self):
        node = ConvNode("c", signs((3, 3, 3, 5)), stride=1, pad=1)
        x = RNG.integers(0, 4, size=(8, 8, 3))
        assert (node.accumulate_bitpacked(x, 2) == node.accumulate(x)).all()

    def test_packed_weights_cache_layout(self):
        """§III-B1a: O entries of K*K*I bits each."""
        node = ConvNode("c", signs((3, 3, 4, 8)))
        packed = node.packed_weights()
        assert packed.rows == 8 and packed.cols == 36

    def test_pad_level_out_of_range(self):
        node = ConvNode("c", signs((3, 3, 1, 1)), pad=1, pad_level=7)
        with pytest.raises(ValueError):
            node.infer([TensorSpec(5, 5, 1, "levels", 2)])


class TestOtherNodes:
    def test_maxpool_spec(self):
        node = MaxPoolNode("p", 2)
        spec = node.infer([TensorSpec(8, 8, 3, "levels", 2)])
        assert (spec.height, spec.width) == (4, 4)

    def test_maxpool_padded_spec(self):
        node = MaxPoolNode("p", 3, 2, pad=1)
        spec = node.infer([TensorSpec(112, 112, 64, "levels", 2)])
        assert (spec.height, spec.width) == (56, 56)

    def test_maxpool_pad_requires_levels(self):
        node = MaxPoolNode("p", 3, 2, pad=1)
        with pytest.raises(ValueError):
            node.infer([TensorSpec(8, 8, 3, "acc", 12)])

    def test_maxpool_too_large(self):
        with pytest.raises(ValueError):
            MaxPoolNode("p", 9).infer([TensorSpec(4, 4, 1, "levels", 2)])

    def test_threshold_spec(self):
        unit = random_threshold_unit(RNG, 4, 2)
        node = ThresholdNode("t", unit)
        spec = node.infer([TensorSpec(5, 5, 4, "acc", 12)])
        assert spec.kind == "levels" and spec.bits == 2

    def test_threshold_channel_mismatch(self):
        unit = random_threshold_unit(RNG, 4, 2)
        with pytest.raises(ValueError):
            ThresholdNode("t", unit).infer([TensorSpec(5, 5, 3, "acc", 12)])

    def test_avgsum_compute_is_sum(self):
        node = GlobalAvgSumNode("a")
        x = RNG.integers(0, 4, size=(3, 3, 2))
        out = node.compute([x])
        assert out.shape == (1, 1, 2)
        assert (out[0, 0] == x.sum(axis=(0, 1))).all()

    def test_add_shape_check(self):
        node = AddNode("add")
        with pytest.raises(ValueError):
            node.infer([TensorSpec(2, 2, 2, "acc", 8), TensorSpec(2, 2, 3, "acc", 8)])

    def test_add_overflow_guard(self):
        """§III-B5: skip data is 16-bit; overflow must be loud, not silent."""
        node = AddNode("add")
        big = np.full((1, 1, 1), 40000, dtype=np.int64)
        with pytest.raises(OverflowError):
            node.compute([big, big])

    def test_add_tracks_high_water(self):
        node = AddNode("add")
        node.compute([np.full((1, 1, 1), 100), np.full((1, 1, 1), 23)])
        assert node.max_abs_seen == 123


class TestLayerGraph:
    def make_chain(self):
        g = LayerGraph(name="t")
        g.add(InputNode("in", 8, 8, 2, 2))
        g.add(ConvNode("c1", signs((3, 3, 2, 4)), pad=1, threshold=random_threshold_unit(RNG, 4, 2)), ["in"])
        g.add(MaxPoolNode("p1", 2), ["c1"])
        return g

    def test_duplicate_name_rejected(self):
        g = self.make_chain()
        with pytest.raises(ValueError):
            g.add(MaxPoolNode("p1", 2), ["c1"])

    def test_unknown_input_rejected(self):
        g = self.make_chain()
        with pytest.raises(ValueError):
            g.add(MaxPoolNode("p2", 2), ["nope"])

    def test_arity_check(self):
        g = self.make_chain()
        with pytest.raises(ValueError):
            g.add(AddNode("a"), ["c1"])

    def test_two_inputs_rejected(self):
        g = self.make_chain()
        with pytest.raises(ValueError):
            g.add(InputNode("in2", 8, 8, 2, 2))

    def test_refused_input_leaves_the_graph_unchanged(self):
        g = self.make_chain()
        before = (list(g.order), dict(g.nodes), dict(g.specs), dict(g.producers))
        fanout = {name: list(consumers) for name, consumers in g.fanout.items()}
        with pytest.raises(ValueError, match="single input node"):
            g.add(InputNode("in2", 8, 8, 2, 2))
        assert (g.order, g.nodes, g.specs, g.producers) == before
        assert g.fanout == fanout
        g.validate()

    def test_repeated_input_rejected(self):
        g = self.make_chain()
        with pytest.raises(ValueError, match=r"^a: input 'p1' is repeated$"):
            g.add(AddNode("a"), ["p1", "p1"])
        assert "a" not in g.nodes and g.fanout["p1"] == []

    def test_parents_in_port_order(self):
        g = self.make_chain()
        g.add(ConvNode("c2", signs((1, 1, 4, 4))), ["p1"])
        g.add(AddNode("a"), ["c2", "p1"])
        assert g.parents("a") == ["c2", "p1"]

    def test_specs_and_topology(self):
        g = self.make_chain()
        assert g.input_spec.elements == 8 * 8 * 2
        assert g.output_spec.height == 4
        assert g.topological()[0] == "in"

    def test_total_weight_bits(self):
        g = self.make_chain()
        assert g.total_weight_bits() == 3 * 3 * 2 * 4

    def test_validate_ok(self):
        self.make_chain().validate()

    def test_validate_empty(self):
        with pytest.raises(ValueError):
            LayerGraph().validate()


def _networkx_twin(graph):
    """The graph's edges in a ``networkx.DiGraph``, added as ``add`` adds them."""
    nx = pytest.importorskip("networkx")
    twin = nx.DiGraph()
    for name in graph.order:
        twin.add_node(name)
        for port, parent in enumerate(graph.producers[name]):
            twin.add_edge(parent, name, port=port)
    return twin


def _oracle_graphs():
    from repro.models import direct_alexnet_graph, direct_resnet18_graph, direct_vgg_graph

    from .test_random_topologies import build_random_graph

    # The edges do not depend on width, so the 224 graphs stay narrow.
    yield direct_vgg_graph(32, width=0.25, classes=10, seed=11)
    yield direct_resnet18_graph(64, width=0.125, classes=10)
    yield direct_alexnet_graph(64, width=0.125, classes=10, fc_features=256)
    yield direct_vgg_graph(224, width=0.0625)
    yield direct_alexnet_graph(224, width=0.0625, fc_features=64)
    yield direct_resnet18_graph(224, width=0.0625)
    for seed in range(12):
        yield build_random_graph(seed, 16, 6, True)


def test_tables_match_networkx():
    """Topological order, consumers, parents and the edge walk equal networkx's."""
    from repro.hardware.partition import partition_crossings

    nx = pytest.importorskip("networkx")
    for graph in _oracle_graphs():
        twin = _networkx_twin(graph)
        assert graph.topological() == list(nx.topological_sort(twin)), graph.name
        for name in graph.order:
            assert graph.consumers(name) == list(twin.successors(name)), (graph.name, name)
            ports = sorted((twin.edges[p, name]["port"], p) for p in twin.predecessors(name))
            assert graph.parents(name) == [p for _, p in ports], (graph.name, name)
        # One node per DFE: every edge crosses, in the order the walk visits them.
        alone = [[name] for name in graph.order]
        crossings = [crossing.edge for crossing in partition_crossings(graph, alone)]
        assert crossings == list(twin.edges), graph.name
