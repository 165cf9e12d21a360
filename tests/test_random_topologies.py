"""Random-topology property tests: the streaming substrate must be bit-exact
with the functional executor for *any* valid network, not just the zoo."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import random_threshold_unit
from repro.nn.graph import (
    AddNode,
    ConvNode,
    GlobalAvgSumNode,
    InputNode,
    LayerGraph,
    MaxPoolNode,
    ThresholdNode,
)
from repro.dataflow import simulate
from repro.nn.verify import verify_backends


def _signs(rng, shape):
    return (rng.integers(0, 2, size=shape) * 2 - 1).astype(np.int8)


def build_random_graph(seed: int, size: int, depth: int, with_residual: bool) -> LayerGraph:
    """A random but always-valid network: conv/pool stages, optional residual."""
    rng = np.random.default_rng(seed)
    g = LayerGraph(name=f"rand-{seed}")
    g.add(InputNode("input", size, size, int(rng.integers(1, 4)), 2))
    prev = "input"

    def spec():
        return g.specs[prev]

    for i in range(depth):
        s = spec()
        choice = rng.integers(0, 3)
        if choice == 0 and min(s.height, s.width) >= 4 and s.kind == "levels":
            node = MaxPoolNode(f"pool{i}", 2)
            g.add(node, [prev])
            prev = node.name
            continue
        k = int(rng.choice([1, 3]))
        pad = 1 if (k == 3 and rng.integers(0, 2)) else 0
        stride = int(rng.choice([1, 2])) if min(s.height, s.width) >= k + 2 else 1
        if s.height + 2 * pad < k or s.width + 2 * pad < k:
            k, pad, stride = 1, 0, 1
        out_ch = int(rng.integers(1, 5))
        node = ConvNode(
            f"conv{i}",
            _signs(rng, (k, k, s.channels, out_ch)),
            stride=stride,
            pad=pad,
            threshold=random_threshold_unit(rng, out_ch, 2),
        )
        g.add(node, [prev])
        prev = node.name

    if with_residual:
        s = spec()
        if s.kind == "levels" and min(s.height, s.width) >= 3:
            c = s.channels
            conv1 = ConvNode("res.conv1", _signs(rng, (3, 3, c, c)), stride=1, pad=1)
            g.add(conv1, [prev])
            add1 = AddNode("res.add1")
            g.add(add1, [conv1.name, prev])
            th1 = ThresholdNode("res.bnact1", random_threshold_unit(rng, c, 2))
            g.add(th1, [add1.name])
            conv2 = ConvNode("res.conv2", _signs(rng, (3, 3, c, c)), stride=1, pad=1)
            g.add(conv2, [th1.name])
            add2 = AddNode("res.add2")
            g.add(add2, [conv2.name, add1.name])
            th2 = ThresholdNode("res.bnact2", random_threshold_unit(rng, c, 2))
            g.add(th2, [add2.name])
            prev = th2.name

    s = spec()
    if s.kind == "levels":
        g.add(GlobalAvgSumNode("avg"), [prev])
        prev = "avg"
        g.add(ConvNode("head", _signs(rng, (1, 1, s.channels, 3))), [prev])
    g.validate()
    return g


@given(
    st.integers(0, 2**31 - 1),
    st.integers(6, 12),
    st.integers(1, 4),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_random_network_backends_agree(seed, size, depth, with_residual):
    """Invariant: functional == bitops == streaming for random topologies."""
    graph = build_random_graph(seed, size, depth, with_residual)
    rng = np.random.default_rng(seed ^ 0xABCDEF)
    levels = rng.integers(0, 4, size=(1, size, size, graph.input_spec.channels))
    report = verify_backends(graph, levels, max_cycles=5_000_000)
    assert report.all_agree, report.summary()
    # The schedule path's outputs (the batched pass) equal the streamed ones.
    streamed = simulate(graph, levels, mode="exhaustive").output
    np.testing.assert_array_equal(simulate(graph, levels).output, streamed)


class TestVerifyBackendsAPI:
    def test_report_fields(self, tiny_chain_model, tiny_chain_graph, images16):
        from repro.nn import input_to_levels

        lv = input_to_levels(images16[:1], tiny_chain_model.layers[0].quantizer)
        report = verify_backends(tiny_chain_graph, lv)
        assert report.all_agree
        assert report.streaming_latency_cycles > 0
        assert "OK" in report.summary()

    def test_skip_bitops(self, tiny_chain_model, tiny_chain_graph, images16):
        from repro.nn import input_to_levels

        lv = input_to_levels(images16[:1], tiny_chain_model.layers[0].quantizer)
        report = verify_backends(tiny_chain_graph, lv, check_bitops=False)
        assert report.functional_vs_streaming
