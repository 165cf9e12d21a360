"""Leap mode: extension, demotion, fallback, synthesis, and the paper interval.

The solved == reference-loop cycle/output/stats/trace equivalence lives
in test_engine_fastpath.py and test_schedule_run.py; this file covers the
leap-specific behaviour on top of it:

* the shared interval helpers (one derivation used by the engine, the
  telemetry collector and the benches);
* the demotion rules — an open-loop, traced or telemetered run is solved
  whole and not extended, and a run that has to tick (exhaustive, a kernel
  without an op program) is demoted, each with a reason naming the cause;
* fallback properties under randomized open-loop arrivals, undersized skip
  buffers (deadlock), and cycle-budget aborts — bit-identical behaviour in
  both modes whether or not leaping is possible;
* synthesized observables: batched functional outputs against
  ``run_graph``, and per-image latency records/percentiles across a leap;
* §IV-B4: the simulated per-image interval against the analytic
  clocks-per-picture model, at test scale in tier 1 and at the paper's
  224×224 ResNet-18 scale behind ``REPRO_PAPER_SCALE=1``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import (
    Tracer,
    batch_reference_outputs,
    build_pipeline,
    exact_completion_period,
    mean_completion_interval,
    simulate,
)
from repro.dataflow import schedule as schedule_module
from repro.dataflow.kernel import Kernel
from repro.dataflow.leap import _CHUNK_IMAGES
from repro.dataflow.schedule import replay_schedule
from repro.hardware.timing import estimate_network_timing
from repro.kernels.pooling import MaxPoolKernel
from repro.models import direct_alexnet_graph, direct_resnet18_graph, direct_vgg_graph
from repro.nn import run_graph
from repro.nn.graph import ConvNode, InputNode, LayerGraph, MaxPoolNode, ThresholdNode
from repro.quantization.thresholds import ThresholdUnit
from repro.telemetry import Telemetry, latency_report, make_schedule

from .test_schedule_run import engine_run


def _chain_graph():
    return direct_vgg_graph(16, width=0.0625, classes=4)


def _residual_graph():
    return direct_resnet18_graph(16, width=0.0625, classes=4, stages=[(64, 1, 1)])


def _images(graph, n, seed=0):
    rng = np.random.default_rng(seed)
    spec = graph.input_spec
    return rng.integers(0, 4, size=(n, spec.height, spec.width, spec.channels))


def _signs(rng, shape):
    return (rng.integers(0, 2, size=shape) * 2 - 1).astype(np.int8)


def _wide_input_graph():
    """One raw conv over 24-bit inputs: its accumulator bound is past 2**24."""
    rng = np.random.default_rng(5)
    graph = LayerGraph(name="wide-input")
    graph.add(InputNode("input", 5, 5, 2, 24))
    graph.add(ConvNode("conv", _signs(rng, (3, 3, 2, 3)), pad=1), ["input"])
    return graph


def _mixed_slope_unit(rng, channels):
    """Positive-, negative- and zero-slope channels, zero slope as BatchNorm folds it."""
    sign = np.resize([1, -1, 0], channels)
    return ThresholdUnit(
        tau=np.where(sign == 0, 0.0, rng.normal(0.0, 4.0, channels)),
        step=np.where(sign == 0, 0.0, rng.uniform(0.5, 3.0, channels) * sign),
        slope_sign=sign,
        const_level=np.resize([0, 1, 3, 2], channels),
        bits=2,
    )


def _mixed_slope_graph():
    """A fused and a standalone threshold, each with every slope polarity."""
    rng = np.random.default_rng(9)
    graph = LayerGraph(name="mixed-slopes")
    graph.add(InputNode("input", 6, 6, 2, 2))
    unit = _mixed_slope_unit(rng, 6)
    graph.add(ConvNode("conv1", _signs(rng, (3, 3, 2, 6)), pad=1, threshold=unit), ["input"])
    graph.add(ConvNode("conv2", _signs(rng, (3, 3, 6, 6)), pad=1), ["conv1"])
    graph.add(ThresholdNode("bnact", _mixed_slope_unit(rng, 6)), ["conv2"])
    return graph


# ---------------------------------------------------------------------------
# Shared interval helpers
# ---------------------------------------------------------------------------


class TestIntervalHelpers:
    def test_mean_interval_is_span_over_gaps(self):
        assert mean_completion_interval([10, 30, 50]) == 20.0
        assert mean_completion_interval([7, 10]) == 3.0
        # Bit-identical to averaging np.diff — the closed form the engine,
        # collector and benches all share now.
        cycles = [100, 2464, 4828, 7192]
        assert mean_completion_interval(cycles) == float(np.diff(cycles).mean())

    def test_mean_interval_none_under_two_completions(self):
        # Explicit None — not a raise, not a NaN: telemetry gauges and bench
        # extra_info rows consume this directly and render n/a.
        assert mean_completion_interval([42]) is None
        assert mean_completion_interval([]) is None

    def test_single_completion_run_reports_no_interval(self):
        graph = _chain_graph()
        run = simulate(graph, _images(graph, 1))
        assert run.run.completion_cycles and len(run.run.completion_cycles) == 1
        assert run.steady_state_interval is None
        assert run.run.steady_state_interval is None

    def test_exact_period_of_agreeing_gaps(self):
        assert exact_completion_period([10, 20, 30]) == 10
        assert exact_completion_period([5, 10, 20, 30], window=2) == 10
        assert exact_completion_period([10, 20], window=1) == 10

    def test_exact_period_none_when_gaps_disagree_or_short(self):
        assert exact_completion_period([10, 20, 31]) is None
        assert exact_completion_period([10, 20]) is None  # default window=2
        assert exact_completion_period([10], window=1) is None
        assert exact_completion_period([10, 10], window=1) is None  # gap 0

    def test_exact_period_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            exact_completion_period([10, 20, 30], window=0)


# ---------------------------------------------------------------------------
# Demotion: which leap runs extend a solved prefix, and why the others do not
# ---------------------------------------------------------------------------


def _without_op_program(monkeypatch):
    """Make max pooling a kernel the schedule solver cannot read, as a custom kernel would be."""
    monkeypatch.setattr(MaxPoolKernel, "op_program", Kernel.op_program)


class TestControllerConstruction:
    def test_model_pipeline_is_eligible(self):
        graph = _chain_graph()
        run = simulate(graph, _images(graph, 8), mode="leap")
        rep = run.leap_report
        assert not rep.demoted and rep.reason is None
        assert rep.leaps == 1
        assert "_flat" not in vars(run.pipeline.source)  # solved, never ticked

    def test_one_unopted_kernel_demotes_the_engine(self, monkeypatch):
        graph = _chain_graph()
        images = _images(graph, 8)
        expected = simulate(graph, images, mode="exhaustive")
        _without_op_program(monkeypatch)
        run = simulate(graph, images, mode="leap")
        assert "_flat" in vars(run.pipeline.source)  # the engine ticked it
        rep = run.leap_report
        assert rep.demoted and rep.leaps == 0 and rep.cycles is None
        assert run.cycles == expected.cycles
        np.testing.assert_array_equal(run.output, expected.output)

    def test_open_loop_source_demotes_the_engine(self):
        graph = _chain_graph()
        run = simulate(graph, _images(graph, 2), mode="leap", arrival_cycles=[0, 9000])
        assert "_flat" not in vars(run.pipeline.source)  # solved whole, not extended
        rep = run.leap_report
        assert rep.demoted and rep.leaps == rep.windows == 0 and rep.cycles == run.cycles

    def test_open_loop_leap_run_reports_visible_demotion(self):
        graph = _chain_graph()
        images = _images(graph, 2)
        run = simulate(graph, images, mode="leap", arrival_cycles=[0, 9000])
        rep = run.leap_report  # solved whole without an extension, visibly
        assert rep.demoted and rep.leaps == 0
        assert rep.reason is not None and "open-loop" in rep.reason
        assert rep.line() == f"leap: solved whole: {rep.reason}"

    def test_ineligibility_reasons_name_the_cause(self, monkeypatch):
        graph = _chain_graph()
        images = _images(graph, 2)

        def reason(**kwargs):
            rep = simulate(graph, images, **kwargs).leap_report
            assert rep.demoted
            return rep.reason

        whole = "the solved prefix reached every image"  # two images: nothing to extend
        assert simulate(graph, images).leap_report.reason == whole
        open_loop = reason(arrival_cycles=[0, 9000])
        assert "open-loop" in open_loop and "host_source" in open_loop
        assert "tracer" in reason(trace=Tracer())
        assert "telemetry" in reason(telemetry=Telemetry())
        assert reason(mode="exhaustive") == "mode='exhaustive'"
        _without_op_program(monkeypatch)
        pool = next(name for name, node in graph.nodes.items() if isinstance(node, MaxPoolNode))
        custom = reason()
        assert "op program" in custom and pool in custom


# ---------------------------------------------------------------------------
# Engagement and non-engagement
# ---------------------------------------------------------------------------


class TestEngagement:
    def test_leap_engages_and_accounts_consistently(self):
        graph = _chain_graph()
        run = simulate(graph, _images(graph, 10), mode="leap")
        rep = run.leap_report
        assert rep.leaps >= 1
        assert rep.windows >= rep.leaps
        assert rep.period > 0
        assert rep.leaped_cycles > 0
        # The certified period is the exact completion gap in steady state,
        # and the report counts every image past the solved prefix.
        assert rep.leaped_cycles == rep.windows * rep.period
        assert exact_completion_period(run.run.completion_cycles, window=1) == rep.period

    def test_too_few_images_leaves_nothing_to_leap(self):
        # Two images are fewer than the first prefix: the whole run is
        # solved and there is nothing to extend.
        graph = _chain_graph()
        images = _images(graph, 2)
        run = simulate(graph, images, mode="leap")
        assert run.leap_report.leaps == 0 and not run.leap_report.demoted
        assert "_flat" not in vars(run.pipeline.source)  # solved, never ticked
        slow = simulate(graph, images, mode="exhaustive")
        assert run.cycles == slow.cycles
        np.testing.assert_array_equal(run.output, slow.output)

    def test_leap_engages_through_skip_buffer_refills(self):
        # The residual topology parks and refills the skip delay FIFO every
        # image; the period must still be certified across it.
        graph = _residual_graph()
        run = simulate(graph, _images(graph, 8), mode="leap")
        assert run.leap_report.leaps >= 1
        slow = simulate(graph, _images(graph, 8), mode="exhaustive")
        assert run.cycles == slow.cycles
        np.testing.assert_array_equal(run.output, slow.output)


# ---------------------------------------------------------------------------
# Fallback properties: identical behaviour when no extension is possible
# ---------------------------------------------------------------------------


class TestFallback:
    @settings(max_examples=8, deadline=None)
    @given(
        gaps=st.lists(st.integers(min_value=0, max_value=2500), min_size=3, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_randomized_open_loop_arrivals_identical_across_modes(self, gaps, seed):
        graph = _chain_graph()
        images = _images(graph, len(gaps), seed=seed)
        arrivals = list(np.cumsum(gaps))
        slow = simulate(graph, images, mode="exhaustive", arrival_cycles=arrivals)
        leap = simulate(graph, images, mode="leap", arrival_cycles=arrivals)
        # Open loop: solved whole, not extended, and the report says so.
        assert leap.leap_report.demoted and leap.leap_report.cycles == leap.cycles
        assert slow.cycles == leap.cycles
        assert slow.run.completion_cycles == leap.run.completion_cycles
        np.testing.assert_array_equal(slow.output, leap.output)

    def test_undersized_skip_buffer_deadlocks_identically(self):
        # A one-element skip FIFO wedges the fork before the main branch
        # can deliver its first element to the adder: classic deadlock.
        # The solve finds the ops that never run, and both modes must
        # abort at exactly the cycle budget.
        graph = _residual_graph()
        images = _images(graph, 3)
        adds = [n for n in graph.order if type(graph.nodes[n]).__name__ == "AddNode"]
        assert adds, "residual graph must contain an adder"
        caps = {n: 1 for n in adds}
        for mode in ("exhaustive", "leap"):
            with pytest.raises(RuntimeError, match="no convergence after 4000 cycles"):
                simulate(graph, images, mode=mode, skip_sizing=caps, max_cycles=4000)

    def test_cycle_budget_abort_is_identical_even_mid_leap(self):
        # An extended run over budget is solved whole up to the budget, so a
        # leap run must hit the budget abort at exactly the exhaustive loop's
        # cycle even though the run would have leaped within budget.
        graph = _chain_graph()
        images = _images(graph, 10)
        full = simulate(graph, images, mode="leap")
        assert full.leap_report.leaps >= 1
        budget = full.cycles - 10
        for mode in ("exhaustive", "leap"):
            with pytest.raises(RuntimeError, match=f"no convergence after {budget} cycles"):
                simulate(graph, images, mode=mode, max_cycles=budget)


# ---------------------------------------------------------------------------
# Synthesized observables
# ---------------------------------------------------------------------------


class TestSynthesis:
    def test_batched_outputs_match_run_graph_and_stream(self):
        graph = _residual_graph()
        images = _images(graph, 8)
        run = simulate(graph, images, mode="leap")
        assert run.leap_report.leaps >= 1
        ref = run_graph(graph, images)
        np.testing.assert_array_equal(run.output, ref.output)
        np.testing.assert_array_equal(batch_reference_outputs(run.pipeline, images), ref.output)

    @pytest.mark.parametrize("topology", ["chain", "residual"])
    @pytest.mark.parametrize(
        "n", [1, _CHUNK_IMAGES - 1, _CHUNK_IMAGES, _CHUNK_IMAGES + 1, 2 * _CHUNK_IMAGES + 5]
    )
    def test_chunked_outputs_match_run_graph(self, topology, n):
        # Chunk boundaries must not show: a lone image, a short last chunk,
        # an exact fit and a remainder all equal the reference executor.
        graph = _chain_graph() if topology == "chain" else _residual_graph()
        images = _images(graph, n, seed=n)
        pipeline = build_pipeline(graph, images)
        np.testing.assert_array_equal(
            batch_reference_outputs(pipeline, images), run_graph(graph, images).output
        )

    def test_accumulator_bound_past_float32_selects_float64(self):
        graph = _wide_input_graph()
        rng = np.random.default_rng(1)
        images = rng.integers(1 << 23, 1 << 24, size=(3, 5, 5, 2))
        ref = run_graph(graph, images).output
        # The data really needs the wide type: float32 would round these.
        assert np.abs(ref).max() >= 1 << 24
        run = simulate(graph, images)
        kernel = run.pipeline.kernels_by_node["conv"]
        assert kernel.acc_bound >= 1 << 24
        assert kernel._wmat.dtype == np.float64
        np.testing.assert_array_equal(run.output, ref)
        np.testing.assert_array_equal(batch_reference_outputs(run.pipeline, images), ref)

    def test_zero_and_negative_slope_channels(self):
        graph = _mixed_slope_graph()
        images = _images(graph, 6, seed=4)
        ref = run_graph(graph, images).output
        run = simulate(graph, images)
        conv1 = run.pipeline.kernels_by_node["conv1"]
        assert conv1._wmat.dtype == np.float32
        # The fused cascade on its own, then the whole graph streamed.
        np.testing.assert_array_equal(
            conv1.batch_compute(images), graph.nodes["conv1"].compute([images])
        )
        np.testing.assert_array_equal(run.output, ref)
        np.testing.assert_array_equal(batch_reference_outputs(run.pipeline, images), ref)

    def test_open_loop_alexnet_outputs_match_run_graph(self):
        # The open-loop AlexNet path is solved whole and takes its outputs
        # from the batched pass, through the stride-4 11x11 first conv.
        graph = direct_alexnet_graph(64, width=0.125, classes=10, fc_features=256)
        assert graph.nodes["conv1"].stride == 4 and graph.nodes["conv1"].weights.shape[:2] == (11, 11)
        n = 20
        images = np.random.default_rng(3).integers(0, 4, size=(n, 64, 64, 3))
        arrivals = make_schedule(n, 5000.0, "poisson", 7).cycles
        run = simulate(graph, images, arrival_cycles=arrivals)
        assert run.leap_report.demoted and len(run.run.completion_cycles) == n
        np.testing.assert_array_equal(run.output, run_graph(graph, images).output)

    @pytest.mark.parametrize("topology", ["chain", "residual"])
    def test_latency_records_bit_identical_across_a_leap(self, topology):
        graph = _chain_graph() if topology == "chain" else _residual_graph()
        images = _images(graph, 8)
        slow = simulate(graph, images, mode="exhaustive")
        leap = simulate(graph, images, mode="leap")
        assert leap.leap_report.leaps >= 1
        rep_slow = latency_report(slow.pipeline, slow.cycles)
        rep_leap = latency_report(leap.pipeline, leap.cycles)
        assert rep_leap.service == rep_slow.service
        assert rep_leap.queue_wait == rep_slow.queue_wait
        assert rep_leap.sojourn == rep_slow.sojourn
        assert [r.as_dict() for r in rep_leap.records] == [
            r.as_dict() for r in rep_slow.records
        ]

    def test_marks_and_instants_identical_across_a_leap(self):
        graph = _residual_graph()
        images = _images(graph, 8)
        slow = simulate(graph, images, mode="exhaustive")
        leap = simulate(graph, images, mode="leap")
        assert leap.leap_report.leaps == 1
        assert leap.pipeline.source.admission_cycles == slow.pipeline.source.admission_cycles
        assert leap.run.completion_cycles == slow.run.completion_cycles
        for ours, theirs in zip(leap.pipeline.engine.streams, slow.pipeline.engine.streams):
            assert ours.mark_cycles == theirs.mark_cycles, ours.name
        assert slow.cycles == leap.cycles

    def test_trace_marks_and_spans_identical_across_a_leap(self):
        # A traced leap run is demoted: it solves every image, and its event
        # log, written from the op times, is the reference loop's byte for byte.
        graph = _residual_graph()
        images = _images(graph, 8)
        t_loop, t_leap = Tracer(), Tracer()
        slow = engine_run(graph, images, trace=t_loop)
        leap = simulate(graph, images, mode="leap", trace=t_leap)
        assert leap.leap_report.demoted
        assert t_leap.state() == t_loop.state()
        assert json.dumps(t_leap.to_chrome_trace()) == json.dumps(t_loop.to_chrome_trace())
        assert slow.cycles == leap.cycles


# ---------------------------------------------------------------------------
# §IV-B4: simulated interval vs the analytic clocks-per-picture model
# ---------------------------------------------------------------------------


# Every adder's skip high-water mark of the exact 224×224 ResNet-18 schedule.
_RESNET18_224_MARKS = {
    "conv2_1.add1": 3712, "conv2_1.add2": 3712, "conv2_2.add1": 3712, "conv2_2.add2": 3712,
    "conv3_1.add1": 3584, "conv3_1.add2": 3840, "conv3_2.add1": 3840, "conv3_2.add2": 3840,
    "conv4_1.add1": 3584, "conv4_1.add2": 4096, "conv4_2.add1": 4096, "conv4_2.add2": 4096,
    "conv5_1.add1": 3584, "conv5_1.add2": 4608, "conv5_2.add1": 4608, "conv5_2.add2": 4608,
}


class TestPaperInterval:
    def test_resnet18_224_analytic_interval_in_paper_window(self):
        """The paper estimates ~1.85e6 clocks/picture for ResNet-18 at 224².

        The analytic §IV-B4 model must land in the same order-of-magnitude
        window the scalability experiment enforces; the simulated interval
        is tied to this same model by the bridge test below (exact at test
        scale) and by the paper-scale run behind ``REPRO_PAPER_SCALE=1``.
        """
        timing = estimate_network_timing(direct_resnet18_graph())
        assert 5e5 < timing.interval_cycles < 4e6
        assert 5e5 < timing.latency_cycles < 4e6

    def test_simulated_interval_matches_analytic_at_test_scale(self):
        # The same IR, kernel formulas and simulator as 224×224 — only the
        # spatial size differs, so agreement here plus the analytic model
        # is what licenses the paper-window assertion above.
        graph = _residual_graph()
        run = simulate(graph, _images(graph, 8), mode="leap")
        assert run.leap_report.leaps >= 1
        timing = estimate_network_timing(graph)
        interval = run.steady_state_interval
        assert abs(interval - timing.interval_cycles) / timing.interval_cycles < 0.05

    @pytest.mark.skipif(
        not os.environ.get("REPRO_PAPER_SCALE"),
        reason="the exact 224×224 ResNet-18 schedule takes about half a minute in pure Python; "
        "set REPRO_PAPER_SCALE=1 (the CI leap-smoke job does)",
    )
    def test_resnet18_224_exact_schedule(self):
        # The full-width, exact-sized schedule the skip solver reads at paper
        # scale: the cycle count, a steady completion gap from image 1 on and
        # every adder's skip high-water mark.
        schedule = replay_schedule(direct_resnet18_graph())
        assert schedule.cycles == 4_149_949
        completions = schedule.completion_cycles
        assert [b - a for a, b in zip(completions, completions[1:])] == [1_007_052] * 3
        assert dict(schedule.skip_high_water) == _RESNET18_224_MARKS

    @pytest.mark.skipif(
        not os.environ.get("REPRO_PAPER_SCALE"),
        reason="the exact 224×224 ResNet-18 run takes about half a minute in pure Python; "
        "set REPRO_PAPER_SCALE=1 (the CI leap-smoke job does)",
    )
    def test_resnet18_224_exact_run_solves_once(self, monkeypatch):
        # The §III-B5 replay that sizes the skip FIFOs is the run's prefix:
        # an exact-sized run solves its schedule once.
        solves = []
        original = schedule_module._solve

        def solve(*args, **kwargs):
            solves.append(kwargs.get("images"))
            return original(*args, **kwargs)

        monkeypatch.setattr(schedule_module, "_solve", solve)
        graph = direct_resnet18_graph()
        run = simulate(graph, _images(graph, 8), mode="leap")
        assert len(solves) == 1
        assert run.cycles == 8_178_157
        assert run.leap_report.period == 1_007_052
        assert run.pipeline.skip_capacities == _RESNET18_224_MARKS

    @pytest.mark.skipif(
        not os.environ.get("REPRO_PAPER_SCALE"),
        reason="224×224 ResNet-18 simulation takes minutes in pure Python; "
        "set REPRO_PAPER_SCALE=1 (the CI leap-smoke job does)",
    )
    def test_resnet18_224_simulated_interval_matches_paper(self):
        graph = direct_resnet18_graph()
        images = _images(graph, 6)
        run = simulate(graph, images, mode="leap", skip_sizing="bound")
        assert run.leap_report.leaps >= 1
        period = exact_completion_period(run.run.completion_cycles, window=1)
        assert period is not None
        # Same order as the paper's 1.85e6 clocks/picture...
        assert 5e5 < period < 4e6
        # ...and exactly the analytic §IV-B4 steady-state interval (5%
        # tolerance covers pipeline skew between bottleneck and sink).
        timing = estimate_network_timing(graph)
        assert abs(period - timing.interval_cycles) / timing.interval_cycles < 0.05
