"""End-to-end streaming tests: whole networks through the cycle simulator."""

import pytest

from repro.dataflow import MAXRING, LayerTable, simulate
from repro.dataflow.window import skip_buffer_elements
from repro.hardware import estimate_network_timing
from repro.nn import input_to_levels, run_graph


def levels_for(model, images):
    return input_to_levels(images, model.layers[0].quantizer)


class TestBitExactness:
    # The streamed datapath is the subject, so these pin the exhaustive loop:
    # a solved ("leap") run takes its values from the batched functional
    # pass instead.  That path must agree too.
    def test_chain_network(self, tiny_chain_model, tiny_chain_graph, images16):
        lv = levels_for(tiny_chain_model, images16)
        ref = run_graph(tiny_chain_graph, lv)
        sr = simulate(tiny_chain_graph, lv, mode="exhaustive")
        assert (sr.output == ref.output).all()
        assert (simulate(tiny_chain_graph, lv).output == sr.output).all()

    def test_residual_network(self, tiny_resnet_model, tiny_resnet_graph, images16):
        lv = levels_for(tiny_resnet_model, images16)
        ref = run_graph(tiny_resnet_graph, lv)
        sr = simulate(tiny_resnet_graph, lv, mode="exhaustive")
        assert (sr.output == ref.output.reshape(sr.output.shape)).all()
        assert (simulate(tiny_resnet_graph, lv).output == sr.output).all()

    def test_bitops_route(self, tiny_chain_model, tiny_chain_graph, images16):
        """The streamed outputs equal the packed AND-popcount route's."""
        lv = levels_for(tiny_chain_model, images16[:1])
        packed = run_graph(tiny_chain_graph, lv, use_bitops=True)
        sr = simulate(tiny_chain_graph, lv)
        assert (sr.output == packed.output).all()


class TestPipelineBehaviour:
    def test_steady_state_interval_matches_bottleneck(self, tiny_chain_model, tiny_chain_graph, rng):
        """Pipelined throughput equals the slowest kernel's per-image cycles."""
        images = rng.uniform(0, 1, size=(4, 16, 16, 3))
        lv = levels_for(tiny_chain_model, images)
        sr = simulate(tiny_chain_graph, lv)
        timing = estimate_network_timing(tiny_chain_graph)
        interval = sr.run.steady_state_interval
        assert abs(interval - timing.interval_cycles) / timing.interval_cycles < 0.05

    def test_analytic_latency_close_to_simulated(self, tiny_chain_model, tiny_chain_graph, images16):
        lv = levels_for(tiny_chain_model, images16[:1])
        sr = simulate(tiny_chain_graph, lv)
        timing = estimate_network_timing(tiny_chain_graph)
        rel = abs(sr.latency_cycles - timing.latency_cycles) / sr.latency_cycles
        assert rel < 0.25, f"analytic {timing.latency_cycles} vs sim {sr.latency_cycles}"

    def test_analytic_latency_residual(self, tiny_resnet_model, tiny_resnet_graph, images16):
        lv = levels_for(tiny_resnet_model, images16[:1])
        sr = simulate(tiny_resnet_graph, lv)
        timing = estimate_network_timing(tiny_resnet_graph)
        rel = abs(sr.latency_cycles - timing.latency_cycles) / sr.latency_cycles
        assert rel < 0.25, f"analytic {timing.latency_cycles} vs sim {sr.latency_cycles}"

    def test_layers_overlap(self, tiny_chain_model, tiny_chain_graph, rng):
        """The paper's core premise: after the initiation interval all layers
        compute simultaneously."""
        images = rng.uniform(0, 1, size=(3, 16, 16, 3))
        lv = levels_for(tiny_chain_model, images)
        sr = simulate(tiny_chain_graph, lv)
        conv_kernels = [n for n in tiny_chain_graph.order if "conv" in n]
        table = LayerTable.of(sr.pipeline)
        overlap = table.overlap(conv_kernels)
        assert overlap > 0.5, f"pipeline overlap only {overlap:.2f}"
        # and including the late FC stages it is still substantial
        all_compute = [n for n in tiny_chain_graph.order if "conv" in n or "fc" in n]
        assert table.overlap(all_compute) > 0.35

    def test_latency_much_less_than_sequential(self, tiny_chain_model, tiny_chain_graph, images16):
        lv = levels_for(tiny_chain_model, images16[:1])
        sr = simulate(tiny_chain_graph, lv)
        timing = estimate_network_timing(tiny_chain_graph)
        assert sr.latency_cycles < 0.6 * timing.sequential_cycles


class TestSkipConnections:
    def test_skip_buffer_bounded_by_formula(self, tiny_resnet_model, tiny_resnet_graph, images16):
        """§III-B5: the delay buffer needs at most the conv-buffer size."""
        lv = levels_for(tiny_resnet_model, images16[:1])
        sr = simulate(tiny_resnet_graph, lv)
        g = tiny_resnet_graph
        for add_name, stream in sr.pipeline.skip_streams.items():
            conv_name = g.parents(add_name)[0]
            conv = g.nodes[conv_name]
            if not hasattr(conv, "kernel_size"):
                continue
            in_spec = g.specs[g.parents(conv_name)[0]]
            bound = skip_buffer_elements(in_spec.width + 2 * conv.pad, conv.in_channels, conv.kernel_size)
            assert stream.stats.max_occupancy <= bound + 8, (
                f"{add_name}: occupancy {stream.stats.max_occupancy} > bound {bound}"
            )

    def test_skip_stream_never_backpressures(self, tiny_resnet_model, tiny_resnet_graph, images16):
        """§III-B5: 'the skip buffer ... never creates delays by itself'."""
        lv = levels_for(tiny_resnet_model, images16[:1])
        sr = simulate(tiny_resnet_graph, lv)
        for stream in sr.pipeline.skip_streams.values():
            assert stream.stats.full_rejections == 0


class TestMultiDFE:
    def _partition(self, graph, n):
        names = [nm for nm in graph.order if nm != graph.input_name]
        chunk = (len(names) + n - 1) // n
        return [names[i : i + chunk] for i in range(0, len(names), chunk)]

    def test_outputs_identical_across_partitions(self, tiny_chain_model, tiny_chain_graph, images16):
        lv = levels_for(tiny_chain_model, images16[:1])
        single = simulate(tiny_chain_graph, lv)
        double = simulate(tiny_chain_graph, lv, partition=self._partition(tiny_chain_graph, 2))
        triple = simulate(tiny_chain_graph, lv, partition=self._partition(tiny_chain_graph, 3))
        assert (single.output == double.output).all()
        assert (single.output == triple.output).all()

    def test_crossings_recorded_with_bandwidth(self, tiny_chain_model, tiny_chain_graph, images16):
        lv = levels_for(tiny_chain_model, images16[:1])
        sr = simulate(tiny_chain_graph, lv, partition=self._partition(tiny_chain_graph, 2))
        assert len(sr.pipeline.crossings) >= 1
        for crossing in sr.pipeline.crossings:
            assert crossing.required_mbps <= MAXRING.bandwidth_gbps * 1000

    def test_performance_degradation_is_small(self, tiny_chain_model, tiny_chain_graph, images16):
        """§III-B6: splitting across DFEs costs only link latency."""
        lv = levels_for(tiny_chain_model, images16[:1])
        single = simulate(tiny_chain_graph, lv)
        double = simulate(tiny_chain_graph, lv, partition=self._partition(tiny_chain_graph, 2))
        extra = double.latency_cycles - single.latency_cycles
        assert 0 <= extra <= 8 * MAXRING.latency_cycles

    def test_partition_rejects_duplicates(self, tiny_chain_graph, tiny_chain_model, images16):
        lv = levels_for(tiny_chain_model, images16[:1])
        names = [nm for nm in tiny_chain_graph.order if nm != tiny_chain_graph.input_name]
        with pytest.raises(ValueError):
            simulate(tiny_chain_graph, lv, partition=[names, names[:1]])

    def test_partition_rejects_missing(self, tiny_chain_graph, tiny_chain_model, images16):
        lv = levels_for(tiny_chain_model, images16[:1])
        names = [nm for nm in tiny_chain_graph.order if nm != tiny_chain_graph.input_name]
        with pytest.raises(ValueError):
            simulate(tiny_chain_graph, lv, partition=[names[:2]])
