"""Failure-injection and robustness tests: backpressure, tiny FIFOs, odd configs."""

import numpy as np
import pytest

from repro.dataflow import DEFAULT_STREAM_CAPACITY, simulate
from repro.dataflow.manager import build_pipeline
from repro.models import build_vgg_like, randomize_batchnorm
from repro.nn import Tensor, export_model, input_to_levels, run_graph


class TestBackpressure:
    """Correctness must survive arbitrary stream starvation/backpressure."""

    def _run_with_capacity(self, graph, levels, capacity):
        pipeline = build_pipeline(graph, levels)
        # shrink every non-skip stream to the target capacity
        for stream in pipeline.engine.streams:
            if stream.capacity <= DEFAULT_STREAM_CAPACITY * 4:
                stream.capacity = capacity
        pipeline.engine.run(lambda: pipeline.sink.done, max_cycles=20_000_000)
        return pipeline.sink.output_tensor()

    def test_capacity_one_still_correct(self, tiny_chain_model, tiny_chain_graph, images16):
        lv = input_to_levels(images16[:1], tiny_chain_model.layers[0].quantizer)
        ref = run_graph(tiny_chain_graph, lv).output
        out = self._run_with_capacity(tiny_chain_graph, lv, capacity=1)
        assert (out == ref.reshape(out.shape)).all()

    def test_capacity_two_residual_correct(self, tiny_resnet_model, tiny_resnet_graph, images16):
        lv = input_to_levels(images16[:1], tiny_resnet_model.layers[0].quantizer)
        ref = run_graph(tiny_resnet_graph, lv).output
        out = self._run_with_capacity(tiny_resnet_graph, lv, capacity=2)
        assert (out == ref.reshape(out.shape)).all()

    def test_small_capacity_costs_cycles_not_correctness(
        self, tiny_chain_model, tiny_chain_graph, images16
    ):
        lv = input_to_levels(images16[:1], tiny_chain_model.layers[0].quantizer)
        normal = simulate(tiny_chain_graph, lv)

        pipeline = build_pipeline(tiny_chain_graph, lv)
        for stream in pipeline.engine.streams:
            if stream.capacity <= DEFAULT_STREAM_CAPACITY * 4:
                stream.capacity = 1
        cycles = pipeline.engine.run(lambda: pipeline.sink.done, max_cycles=20_000_000)
        assert cycles >= normal.cycles
        assert (pipeline.sink.output_tensor() == normal.output).all()


class TestEngineLimits:
    def test_max_cycles_enforced(self, tiny_chain_model, tiny_chain_graph, images16):
        lv = input_to_levels(images16[:1], tiny_chain_model.layers[0].quantizer)
        with pytest.raises(RuntimeError, match="no convergence"):
            simulate(tiny_chain_graph, lv, max_cycles=10)


class TestOddConfigurations:
    def test_three_bit_activations_export_exactly(self):
        model = build_vgg_like(input_size=16, width=0.0625, classes=4, act_bits=3, seed=21)
        randomize_batchnorm(model, np.random.default_rng(22))
        model.eval()
        graph = export_model(model, (16, 16, 3))
        rng = np.random.default_rng(23)
        x = rng.uniform(0, 1, size=(2, 16, 16, 3))
        levels = input_to_levels(x, model.layers[0].quantizer)
        got = run_graph(graph, levels).logits(graph)
        ref = model(Tensor(x)).data
        assert np.allclose(got, ref, atol=1e-9)

    def test_three_bit_streams_are_three_bit(self):
        model = build_vgg_like(input_size=16, width=0.0625, classes=4, act_bits=3, seed=21)
        model.eval()
        graph = export_model(model, (16, 16, 3))
        post_act = [s for n, s in graph.specs.items() if s.kind == "levels" and n != "input"]
        assert all(s.bits == 3 for s in post_act)

    def test_single_channel_input(self):
        model = build_vgg_like(input_size=16, in_channels=1, width=0.0625, classes=3, seed=24)
        randomize_batchnorm(model, np.random.default_rng(25))
        model.eval()
        graph = export_model(model, (16, 16, 1))
        rng = np.random.default_rng(26)
        x = rng.uniform(0, 1, size=(1, 16, 16, 1))
        levels = input_to_levels(x, model.layers[0].quantizer)
        sr = simulate(graph, levels, mode="exhaustive")  # the streamed datapath
        ref = run_graph(graph, levels)
        assert (sr.output == ref.output.reshape(sr.output.shape)).all()
        assert (simulate(graph, levels).output == sr.output).all()

    def test_wide_quantizer_range_export(self):
        """Unusually coarse activation quantizer still exports exactly."""
        from repro.models.common import ACT_D

        model = build_vgg_like(input_size=16, width=0.0625, classes=3, seed=27)
        # coarsen every activation
        from repro.nn.modules import QActivation

        for m in model.modules():
            if isinstance(m, QActivation) and m.quantizer.d == ACT_D:
                m.quantizer = type(m.quantizer)(bits=2, lo=0.0, d=2.0)
        # pad values must match the new level-0 value (lo + d/2 = 1.0)
        from repro.nn.modules import QConv2d

        for m in model.modules():
            if isinstance(m, QConv2d) and m.pad > 0 and m.name != "conv1_1":
                m.pad_value = 1.0
        randomize_batchnorm(model, np.random.default_rng(28))
        model.eval()
        graph = export_model(model, (16, 16, 3))
        rng = np.random.default_rng(29)
        x = rng.uniform(0, 1, size=(1, 16, 16, 3))
        levels = input_to_levels(x, model.layers[0].quantizer)
        got = run_graph(graph, levels).logits(graph)
        ref = model(Tensor(x)).data
        assert np.allclose(got, ref, atol=1e-9)
