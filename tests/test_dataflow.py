"""Tests for the dataflow substrate: streams, windows, engine, links."""

import pytest

from repro.dataflow import (
    MAXRING,
    PCIE_GEN2_X8,
    Engine,
    ScanWindow,
    Stream,
    depth_first_buffer_elements,
    required_bandwidth_mbps,
    skip_buffer_elements,
    width_first_buffer_elements,
)
from repro.dataflow.kernel import Kernel


class TestStream:
    def test_push_pop_fifo_order(self):
        s = Stream("s", capacity=4)
        s.push(1, cycle=0)
        s.push(2, cycle=0)
        assert s.pop(cycle=1) == 1
        assert s.pop(cycle=1) == 2

    def test_one_cycle_register_delay(self):
        s = Stream("s")
        s.push(42, cycle=5)
        assert not s.can_pop(5)
        assert s.can_pop(6)

    def test_extra_latency(self):
        s = Stream("s", latency=10)
        s.push(1, cycle=0)
        assert not s.can_pop(10)
        assert s.can_pop(11)

    def test_capacity_rejection(self):
        s = Stream("s", capacity=2)
        assert s.push(1, 0) and s.push(2, 0)
        assert not s.push(3, 0)
        assert s.stats.full_rejections == 1

    def test_occupancy_stats(self):
        s = Stream("s", capacity=8)
        for i in range(5):
            s.push(i, 0)
        assert s.stats.max_occupancy == 5
        s.pop(1)
        assert s.occupancy == 4

    def test_ready_count(self):
        s = Stream("s", latency=2)
        s.push(1, 0)  # ready at 3
        s.push(2, 1)  # ready at 4
        assert s.ready_count(3) == 1
        assert s.ready_count(4) == 2

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeError):
            Stream("s").pop(0)

    def test_peek(self):
        s = Stream("s")
        s.push(9, 0)
        assert s.peek(1) == 9
        assert s.occupancy == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Stream("s", capacity=0)
        with pytest.raises(ValueError):
            Stream("s", latency=-1)


class TestBufferFormulas:
    def test_depth_first_formula(self):
        """§III-B1b: I·L·(K−1) + I·K."""
        assert depth_first_buffer_elements(10, 4, 3) == 4 * 10 * 2 + 4 * 3

    def test_width_first_formula(self):
        assert width_first_buffer_elements(10, 12, 4, 3) == 10 * 12 * 3 + 10 * 2 + 3

    def test_depth_first_wins_when_line_exceeds_k(self):
        """The paper's scan-order argument: W > K ⇒ depth-first is smaller."""
        for line in (8, 32, 224):
            for ch in (3, 64, 256):
                for k in (3, 5, 7):
                    if line > k and ch > 1:
                        assert depth_first_buffer_elements(line, ch, k) < width_first_buffer_elements(
                            line, line, ch, k
                        )

    def test_skip_buffer_equals_conv_buffer(self):
        """§III-B5: 'exactly same size ... not accidental'."""
        assert skip_buffer_elements(10, 4, 3) == depth_first_buffer_elements(10, 4, 3)


class TestScanWindow:
    def test_position_order_depth_first(self):
        w = ScanWindow(2, 2, 3, 1)
        seen = []
        for v in range(2 * 2 * 3):
            seen.append(w.position)
            w.feed(v)
        # channels innermost, then columns, then rows
        assert seen[:4] == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0)]

    def test_window_completion(self):
        w = ScanWindow(3, 3, 1, 2)
        results = [w.feed(v) for v in range(9)]
        completions = [r for r in results if r is not None]
        assert len(completions) == 4  # 2x2 output positions
        r, c, window = completions[0]
        assert (r, c) == (1, 1)
        assert (window[..., 0] == [[0, 1], [3, 4]]).all()

    def test_window_contents_multichannel(self):
        w = ScanWindow(2, 2, 2, 2)
        vals = list(range(8))
        result = None
        for v in vals:
            out = w.feed(v)
            if out is not None:
                result = out
        r, c, window = result
        assert window.shape == (2, 2, 2)
        assert (window.reshape(-1) == vals).all()

    def test_overfeed_raises(self):
        w = ScanWindow(1, 1, 1, 1)
        w.feed(0)
        with pytest.raises(RuntimeError):
            w.feed(1)

    def test_window_larger_than_grid_raises(self):
        with pytest.raises(ValueError):
            ScanWindow(2, 2, 1, 3)

    def test_reset(self):
        w = ScanWindow(2, 2, 1, 1)
        for v in range(4):
            w.feed(v)
        assert w.done
        w.reset()
        assert not w.done and w.position == (0, 0, 0)


class _Producer(Kernel):
    def __init__(self, name, values):
        super().__init__(name)
        self.values = list(values)

    def tick(self, cycle):
        if self.values and self.outputs[0].push(self.values[0], cycle):
            self.values.pop(0)


class _Consumer(Kernel):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def tick(self, cycle):
        if self.inputs[0].can_pop(cycle):
            self.received.append(self.inputs[0].pop(cycle))


class TestEngine:
    def test_simple_pipeline(self):
        eng = Engine()
        p = _Producer("p", [1, 2, 3])
        c = _Consumer("c")
        eng.add_kernel(p)
        eng.add_kernel(c)
        eng.connect(p, c, Stream("p->c"))
        cycles = eng.run(lambda: len(c.received) == 3)
        assert c.received == [1, 2, 3]
        assert cycles >= 4  # 3 elements + 1 register delay

    def test_latency_respected(self):
        eng = Engine()
        p = _Producer("p", [7])
        c = _Consumer("c")
        eng.add_kernel(p)
        eng.add_kernel(c)
        eng.connect(p, c, Stream("p->c", latency=20))
        cycles = eng.run(lambda: len(c.received) == 1)
        assert cycles >= 22

    def test_deadlock_detection(self):
        eng = Engine()
        c = _Consumer("c")
        p = _Producer("p", [])
        eng.add_kernel(p)
        eng.add_kernel(c)
        eng.connect(p, c, Stream("s"))
        with pytest.raises(RuntimeError, match="no convergence"):
            eng.run(lambda: False, max_cycles=100)


class TestLinks:
    def test_paper_bandwidth_number(self):
        """§III-B6: 2 bits at 105 MHz needs 210 Mbps."""
        assert required_bandwidth_mbps(2) == 210.0

    def test_maxring_supports_pixel_stream(self):
        assert required_bandwidth_mbps(2) < 0.1 * MAXRING.bandwidth_gbps * 1000.0

    def test_maxring_rejects_absurd_width(self):
        assert required_bandwidth_mbps(2048) > MAXRING.bandwidth_gbps * 1000.0

    def test_pcie_supports(self):
        assert required_bandwidth_mbps(16) <= PCIE_GEN2_X8.bandwidth_gbps * 1000.0
