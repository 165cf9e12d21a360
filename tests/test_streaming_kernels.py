"""Per-kernel streaming tests: each kernel against its functional reference."""

import numpy as np
import pytest

from repro.dataflow import Engine, Stream, depth_first_buffer_elements
from repro.kernels import (
    AddKernel,
    ConvKernel,
    ForkKernel,
    GlobalAvgSumKernel,
    HostSink,
    HostSource,
    MaxPoolKernel,
    ThresholdKernel,
)
from repro.models import random_threshold_unit
from repro.nn.graph import ConvNode, MaxPoolNode, TensorSpec, ThresholdNode

RNG = np.random.default_rng(8)


def signs(shape):
    return (RNG.integers(0, 2, size=shape) * 2 - 1).astype(np.int8)


def run_single_kernel(kernel, in_values_list, out_spec, n_images=1):
    """Drive one kernel with raw element streams; return collected output."""
    eng = Engine()
    sources = []
    for i, vals in enumerate(in_values_list):
        src = _RawSource(f"src{i}", vals)
        sources.append(src)
        eng.add_kernel(src)
    eng.add_kernel(kernel)
    sink = _RawSink("sink", out_spec.elements * n_images)
    for src in sources:
        eng.connect(src, kernel, Stream(f"{src.name}->k", capacity=8, bits=2))
    eng.add_kernel(sink)
    eng.connect(kernel, sink, Stream("k->sink", capacity=8))
    cycles = eng.run(lambda: sink.done, max_cycles=2_000_000)
    return np.array(sink.received), cycles


from repro.dataflow.kernel import Kernel


class _RawSource(Kernel):
    def __init__(self, name, values):
        super().__init__(name)
        self.values = list(int(v) for v in values)
        self.pos = 0

    def tick(self, cycle):
        if self.pos < len(self.values) and self.outputs[0].push(self.values[self.pos], cycle):
            self.pos += 1


class _RawSink(Kernel):
    def __init__(self, name, expected):
        super().__init__(name)
        self.received = []
        self.expected = expected

    @property
    def done(self):
        return len(self.received) >= self.expected

    def tick(self, cycle):
        if self.inputs[0].can_pop(cycle):
            self.received.append(self.inputs[0].pop(cycle))


class TestConvKernel:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_node_compute(self, stride, pad):
        node = ConvNode("c", signs((3, 3, 2, 4)), stride=stride, pad=pad,
                        threshold=random_threshold_unit(RNG, 4, 2))
        in_spec = TensorSpec(7, 7, 2, "levels", 2)
        out_spec = node.infer([in_spec])
        x = RNG.integers(0, 4, size=(7, 7, 2))
        kernel = ConvKernel("c", node, in_spec)
        out, _ = run_single_kernel(kernel, [x.reshape(-1)], out_spec)
        ref = node.compute([x])
        assert (out.reshape(ref.shape) == ref).all()

    def test_raw_accumulator_output(self):
        node = ConvNode("c", signs((3, 3, 2, 3)), stride=1, pad=0)
        in_spec = TensorSpec(5, 5, 2, "levels", 2)
        out_spec = node.infer([in_spec])
        x = RNG.integers(0, 4, size=(5, 5, 2))
        out, _ = run_single_kernel(ConvKernel("c", node, in_spec), [x.reshape(-1)], out_spec)
        assert (out.reshape(3, 3, 3) == node.compute([x])).all()

    def test_bitops_route(self):
        """The streamed kernel equals the paper's packed AND-popcount arithmetic."""
        unit = random_threshold_unit(RNG, 3, 2)
        node = ConvNode("c", signs((3, 3, 2, 3)), pad=1, threshold=unit)
        in_spec = TensorSpec(6, 6, 2, "levels", 2)
        out_spec = node.infer([in_spec])
        x = RNG.integers(0, 4, size=(6, 6, 2))
        out, _ = run_single_kernel(ConvKernel("c", node, in_spec), [x.reshape(-1)], out_spec)
        packed = unit.apply(node.accumulate_bitpacked(x, in_spec.bits))
        assert (out.reshape(packed.shape) == packed).all()

    def test_multi_image(self):
        node = ConvNode("c", signs((2, 2, 1, 2)), threshold=random_threshold_unit(RNG, 2, 2))
        in_spec = TensorSpec(4, 4, 1, "levels", 2)
        out_spec = node.infer([in_spec])
        xs = RNG.integers(0, 4, size=(3, 4, 4, 1))
        kernel = ConvKernel("c", node, in_spec)
        out, _ = run_single_kernel(kernel, [xs.reshape(-1)], out_spec, n_images=3)
        refs = np.stack([node.compute([x]) for x in xs])
        assert (out.reshape(refs.shape) == refs).all()
        assert kernel.images_done == 3

    def test_expected_cycles_match_simulation(self):
        """The analytic per-image cycle formula is exact in isolation."""
        node = ConvNode("c", signs((3, 3, 2, 4)), stride=1, pad=1,
                        threshold=random_threshold_unit(RNG, 4, 2))
        in_spec = TensorSpec(6, 6, 2, "levels", 2)
        out_spec = node.infer([in_spec])
        x = RNG.integers(0, 4, size=(6, 6, 2))
        kernel = ConvKernel("c", node, in_spec)
        _, cycles = run_single_kernel(kernel, [x.reshape(-1)], out_spec)
        expected = kernel.op_program().ops
        # allow pipeline fill slack (register delays at both ends)
        assert expected <= cycles <= expected + 16

    def test_stride_skips_reduce_emits(self):
        """§III-B1: strided conv produces far fewer emit stalls (the 13x effect)."""
        in_spec = TensorSpec(17, 17, 1, "levels", 2)
        node_s1 = ConvNode("s1", signs((5, 5, 1, 8)), stride=1)
        node_s4 = ConvNode("s4", signs((5, 5, 1, 8)), stride=4)
        k1 = ConvKernel("s1", node_s1, in_spec)
        k4 = ConvKernel("s4", node_s4, in_spec)
        scan = 17 * 17 * 1
        stall1 = k1.op_program().ops - scan
        stall4 = k4.op_program().ops - scan
        assert stall1 / stall4 > 10

    def test_buffer_formula(self):
        node = ConvNode("c", signs((3, 3, 4, 4)), pad=1)
        in_spec = TensorSpec(10, 10, 4, "levels", 2)
        kernel = ConvKernel("c", node, in_spec)
        assert depth_first_buffer_elements(kernel.wp, kernel.channels, kernel.k) == 4 * 12 * 2 + 4 * 3


class TestMaxPoolKernel:
    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 2), (2, 1)])
    def test_matches_node_compute(self, k, stride):
        node = MaxPoolNode("p", k, stride)
        in_spec = TensorSpec(8, 8, 3, "levels", 2)
        out_spec = node.infer([in_spec])
        x = RNG.integers(0, 4, size=(8, 8, 3))
        out, _ = run_single_kernel(MaxPoolKernel("p", node, in_spec), [x.reshape(-1)], out_spec)
        assert (out.reshape(node.compute([x]).shape) == node.compute([x])).all()

    def test_padded_pool_matches(self):
        node = MaxPoolNode("p", 3, 2, pad=1)
        in_spec = TensorSpec(8, 8, 2, "levels", 2)
        out_spec = node.infer([in_spec])
        x = RNG.integers(0, 4, size=(8, 8, 2))
        out, _ = run_single_kernel(MaxPoolKernel("p", node, in_spec), [x.reshape(-1)], out_spec)
        assert (out.reshape(node.compute([x]).shape) == node.compute([x])).all()

    def test_no_extra_stall_cycles(self):
        """§III-B2: pooling emits the same cycle input arrives — scan-bound."""
        node = MaxPoolNode("p", 2, 2)
        in_spec = TensorSpec(6, 6, 2, "levels", 2)
        out_spec = node.infer([in_spec])
        x = RNG.integers(0, 4, size=(6, 6, 2))
        kernel = MaxPoolKernel("p", node, in_spec)
        _, cycles = run_single_kernel(kernel, [x.reshape(-1)], out_spec)
        assert cycles <= in_spec.elements + 16


class TestThresholdKernel:
    def test_matches_unit_apply(self):
        unit = random_threshold_unit(RNG, 4, 2)
        node = ThresholdNode("t", unit)
        in_spec = TensorSpec(5, 5, 4, "acc", 12)
        out_spec = node.infer([in_spec])
        x = RNG.integers(-50, 50, size=(5, 5, 4))
        out, _ = run_single_kernel(ThresholdKernel("t", node, in_spec), [x.reshape(-1)], out_spec)
        assert (out.reshape(5, 5, 4) == unit.apply(x)).all()

    def test_one_in_one_out_rate(self):
        unit = random_threshold_unit(RNG, 2, 2)
        node = ThresholdNode("t", unit)
        in_spec = TensorSpec(4, 4, 2, "acc", 12)
        out_spec = node.infer([in_spec])
        x = RNG.integers(-9, 9, size=(4, 4, 2))
        _, cycles = run_single_kernel(ThresholdKernel("t", node, in_spec), [x.reshape(-1)], out_spec)
        assert cycles <= in_spec.elements + 8


class TestElementwiseKernels:
    def test_add_kernel(self):
        a = RNG.integers(-100, 100, size=24)
        b = RNG.integers(-100, 100, size=24)
        kernel = AddKernel("add", per_image_elements=24)
        out, _ = run_single_kernel(kernel, [a, b], TensorSpec(2, 3, 4, "acc", 13))
        assert (out == a + b).all()
        assert kernel.images_done == 1

    def test_fork_kernel_duplicates(self):
        eng = Engine()
        src = _RawSource("src", [1, 2, 3, 4])
        fork = ForkKernel("fork", per_image_elements=4)
        s1, s2 = _RawSink("s1", 4), _RawSink("s2", 4)
        for k in (src, fork, s1, s2):
            eng.add_kernel(k)
        eng.connect(src, fork, Stream("a"))
        eng.connect(fork, s1, Stream("b"))
        eng.connect(fork, s2, Stream("c"))
        eng.run(lambda: s1.done and s2.done)
        assert s1.received == [1, 2, 3, 4] and s2.received == [1, 2, 3, 4]

    def test_fork_blocks_until_all_outputs_free(self):
        eng = Engine()
        src = _RawSource("src", list(range(10)))
        fork = ForkKernel("fork", per_image_elements=10)
        s1 = _RawSink("s1", 10)
        slow = _RawSink("s2", 10)
        for k in (src, fork, s1, slow):
            eng.add_kernel(k)
        eng.connect(src, fork, Stream("a"))
        eng.connect(fork, s1, Stream("b", capacity=1))
        eng.connect(fork, slow, Stream("c", capacity=1))
        eng.run(lambda: s1.done and slow.done)
        assert s1.received == slow.received == list(range(10))


class TestReduceKernel:
    def test_global_avg_sum(self):
        in_spec = TensorSpec(4, 4, 3, "levels", 2)
        x = RNG.integers(0, 4, size=(4, 4, 3))
        kernel = GlobalAvgSumKernel("avg", in_spec)
        out, _ = run_single_kernel(kernel, [x.reshape(-1)], TensorSpec(1, 1, 3, "acc", 8))
        assert (out == x.sum(axis=(0, 1))).all()

    def test_multi_image_resets_sums(self):
        in_spec = TensorSpec(2, 2, 2, "levels", 2)
        xs = RNG.integers(0, 4, size=(2, 2, 2, 2))
        kernel = GlobalAvgSumKernel("avg", in_spec)
        out, _ = run_single_kernel(kernel, [xs.reshape(-1)], TensorSpec(1, 1, 2, "acc", 8), n_images=2)
        expected = np.concatenate([xs[0].sum(axis=(0, 1)), xs[1].sum(axis=(0, 1))])
        assert (out == expected).all()


class TestHostIO:
    def test_source_streams_depth_first(self):
        spec = TensorSpec(2, 2, 2, "levels", 2)
        img = np.arange(8).reshape(1, 2, 2, 2)
        eng = Engine()
        src = HostSource("src", img, spec)
        sink = _RawSink("sink", 8)
        eng.add_kernel(src)
        eng.add_kernel(sink)
        eng.connect(src, sink, Stream("s"))
        eng.run(lambda: sink.done)
        assert sink.received == list(range(8))

    def test_sink_reassembles(self):
        spec = TensorSpec(2, 2, 2, "levels", 2)
        data = np.arange(16).reshape(2, 2, 2, 2)
        eng = Engine()
        src = HostSource("src", data, spec)
        sink = HostSink("sink", spec, n_images=2)
        eng.add_kernel(src)
        eng.add_kernel(sink)
        eng.connect(src, sink, Stream("s"))
        eng.run(lambda: sink.done)
        assert (sink.output_tensor() == data).all()
        assert len(sink.completion_cycles) == 2

    def test_source_shape_validation(self):
        spec = TensorSpec(2, 2, 2, "levels", 2)
        with pytest.raises(ValueError):
            HostSource("src", np.zeros((1, 3, 3, 2)), spec)

    def test_sink_incomplete_raises(self):
        spec = TensorSpec(2, 2, 1, "levels", 2)
        sink = HostSink("sink", spec, n_images=1)
        with pytest.raises(RuntimeError):
            sink.output_tensor()
