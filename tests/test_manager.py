"""Tests for the DFE manager: graph -> pipeline lowering details."""

import numpy as np
import pytest

from repro.dataflow import build_pipeline, skip_formula_bound, solve_skip_capacities
from repro.kernels import AddKernel, ForkKernel
from repro.nn import input_to_levels


@pytest.fixture()
def chain_pipeline(tiny_chain_model, tiny_chain_graph, images16):
    lv = input_to_levels(images16[:1], tiny_chain_model.layers[0].quantizer)
    return build_pipeline(tiny_chain_graph, lv)


@pytest.fixture()
def resnet_pipeline(tiny_resnet_model, tiny_resnet_graph, images16):
    lv = input_to_levels(images16[:1], tiny_resnet_model.layers[0].quantizer)
    return build_pipeline(tiny_resnet_graph, lv)


class TestKernelMapping:
    def test_one_kernel_per_compute_node(self, chain_pipeline):
        g = chain_pipeline.graph
        compute_nodes = [n for n in g.nodes if n != g.input_name]
        assert set(chain_pipeline.kernels_by_node) == set(compute_nodes)

    def test_kernel_types(self, resnet_pipeline):
        kinds = {type(k).__name__ for k in resnet_pipeline.kernels_by_node.values()}
        assert {"ConvKernel", "ThresholdKernel", "AddKernel"} <= kinds

    def test_host_endpoints_present(self, chain_pipeline):
        names = [k.name for k in chain_pipeline.engine.kernels]
        assert names[0] == "host_source" and names[-1] == "host_sink"


class TestForks:
    def test_forks_inserted_for_fanout(self, resnet_pipeline):
        forks = [k for k in resnet_pipeline.engine.kernels if isinstance(k, ForkKernel)]
        # each residual block forks twice: the block input and add1's output
        assert len(forks) >= 4

    def test_no_forks_in_plain_chain(self, chain_pipeline):
        forks = [k for k in chain_pipeline.engine.kernels if isinstance(k, ForkKernel)]
        assert not forks

    def test_fork_has_all_outputs(self, resnet_pipeline):
        for k in resnet_pipeline.engine.kernels:
            if isinstance(k, ForkKernel):
                assert len(k.outputs) >= 2


class TestStreams:
    def test_skip_streams_sized_by_exact_solver(self, resnet_pipeline, tiny_resnet_graph):
        assert resnet_pipeline.skip_streams
        assert resnet_pipeline.skip_sizing == "exact"
        exact = solve_skip_capacities(tiny_resnet_graph)
        for add_name, stream in resnet_pipeline.skip_streams.items():
            assert stream.capacity == exact[add_name]
            # the exact size never exceeds the closed-form §III-B5 bound
            assert stream.capacity <= skip_formula_bound(tiny_resnet_graph, add_name)

    def test_regular_streams_small(self, chain_pipeline):
        for stream in chain_pipeline.engine.streams:
            assert stream.capacity <= 16

    def test_stream_bits_follow_specs(self, chain_pipeline):
        g = chain_pipeline.graph
        for stream in chain_pipeline.engine.streams:
            # streams are named "<producer>-><consumer>[port]" or "<n>->fork"
            producer = stream.name.split("->")[0]
            if producer in g.specs:
                assert stream.bits == g.specs[producer].stream_bits

    def test_add_kernels_have_two_inputs(self, resnet_pipeline):
        for k in resnet_pipeline.engine.kernels:
            if isinstance(k, AddKernel):
                assert len(k.inputs) == 2


class TestPartitionWiring:
    def test_no_crossings_single_dfe(self, chain_pipeline):
        assert chain_pipeline.crossings == []

    def test_crossing_latency_applied(self, tiny_chain_model, tiny_chain_graph, images16):
        lv = input_to_levels(images16[:1], tiny_chain_model.layers[0].quantizer)
        names = [n for n in tiny_chain_graph.order if n != tiny_chain_graph.input_name]
        half = len(names) // 2
        pipeline = build_pipeline(tiny_chain_graph, lv, partition=[names[:half], names[half:]])
        assert len(pipeline.crossings) == 1
        crossing_streams = [
            s for s in pipeline.engine.streams if s.latency > 0
        ]
        assert len(crossing_streams) == 1
        assert crossing_streams[0].capacity > 16  # covers link round-trip

    def test_sink_never_counts_as_crossing(self, tiny_chain_model, tiny_chain_graph, images16):
        lv = input_to_levels(images16[:1], tiny_chain_model.layers[0].quantizer)
        names = [n for n in tiny_chain_graph.order if n != tiny_chain_graph.input_name]
        pipeline = build_pipeline(tiny_chain_graph, lv, partition=[names])
        assert pipeline.crossings == []

    def test_image_shape_validation(self, tiny_chain_graph):
        with pytest.raises(ValueError):
            build_pipeline(tiny_chain_graph, np.zeros((1, 4, 4, 3), dtype=np.int64))
