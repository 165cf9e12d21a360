"""Tests for the static pipeline verifier (repro.dataflow.verify).

Fault-injection strategy: start from a topology that verifies clean, break
exactly one invariant, and assert the verifier reports exactly the expected
diagnostic code — plus, where the fault is dynamic (an undersized skip
FIFO), that the engine's run-time abort agrees with the static verdict.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.dataflow import (
    build_pipeline,
    check_skip_high_water,
    simulate,
    skip_formula_bound,
    solve_skip_capacities,
    verify,
    verify_graph,
    verify_pipeline,
)
from repro.dataflow.verify import SKIP_FORMULA_SLACK, SOLVER_IMAGES, Diagnostic
from repro.kernels import ForkKernel
from repro.nn import input_to_levels
from repro.nn.graph import AddNode


def _first_add(graph):
    return next(n for n in graph.order if isinstance(graph.nodes[n], AddNode))


def _levels(model, images):
    return input_to_levels(images, model.layers[0].quantizer)


@pytest.fixture()
def resnet_levels(tiny_resnet_model, images16):
    return _levels(tiny_resnet_model, images16)


def _fresh_resnet_graph(tiny_resnet_model):
    """A private graph copy: fault injections must not poison the session fixture."""
    from repro.nn import export_model

    return export_model(tiny_resnet_model, (16, 16, 3), name="tiny-resnet")


# -- clean topologies produce zero errors and zero warnings ----------------


class TestCleanTopologies:
    @pytest.mark.parametrize("fixture", ["tiny_chain_graph", "tiny_resnet_graph"])
    def test_no_false_positives(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        report = verify(graph)
        assert report.ok, report.render()
        assert report.errors == []
        assert report.warnings == []

    def test_resnet_reports_exact_skip_sizes(self, tiny_resnet_graph):
        report = verify(tiny_resnet_graph)
        assert report.skip_mode == "exact"
        assert report.skip_capacities == solve_skip_capacities(tiny_resnet_graph)
        assert "V401" in report.codes()

    def test_rate_summary_present(self, tiny_chain_graph):
        report = verify(tiny_chain_graph)
        (rate,) = report.by_code("V303")
        assert rate.severity == "info"
        assert rate.paper == "§IV-B4"
        assert rate.data["interval_cycles"] > 0

    def test_bram_audit_fires_on_small_caches(self, tiny_resnet_graph):
        # Every tiny conv has O <= 384 outputs, so the §III-B1a waste claim
        # must hold for at least one weight cache.
        report = verify_graph(tiny_resnet_graph)
        audits = report.by_code("V601")
        assert audits
        assert all(d.severity == "info" and d.data["waste"] >= 0.25 for d in audits)

    def test_render_mentions_status_and_counts(self, tiny_chain_graph):
        report = verify(tiny_chain_graph)
        text = report.render()
        assert text.startswith(f"check {tiny_chain_graph.name}: ok — 0 error(s)")
        assert "skip sizing:" in text

    def test_diagnostic_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic("V999", "fatal", "x", "boom")


# -- the exact §III-B5 solver vs the engine --------------------------------


class TestSkipSolver:
    def test_solver_matches_engine_high_water(self, tiny_resnet_graph, resnet_levels):
        exact = solve_skip_capacities(tiny_resnet_graph)
        sr = simulate(tiny_resnet_graph, resnet_levels)  # 2 images: steady state
        for add_name, stream in sr.pipeline.skip_streams.items():
            assert stream.capacity == exact[add_name]
            assert stream.stats.max_occupancy == exact[add_name]
            assert stream.stats.full_rejections == 0

    def test_high_water_stable_beyond_solver_images(
        self, tiny_resnet_model, tiny_resnet_graph, rng
    ):
        # The solver replays SOLVER_IMAGES; a longer run must not peak higher
        # (the sanitizer inside simulate asserts exact equality).
        images = rng.uniform(0.0, 1.0, size=(SOLVER_IMAGES + 2, 16, 16, 3))
        sr = simulate(tiny_resnet_graph, _levels(tiny_resnet_model, images))
        exact = solve_skip_capacities(tiny_resnet_graph)
        for add_name, stream in sr.pipeline.skip_streams.items():
            assert stream.stats.max_occupancy == exact[add_name]

    def test_exact_within_formula_bound(self, tiny_resnet_graph):
        exact = solve_skip_capacities(tiny_resnet_graph)
        for add_name, required in exact.items():
            bound = skip_formula_bound(tiny_resnet_graph, add_name)
            assert 1 <= required <= bound + SKIP_FORMULA_SLACK

    def test_solution_cached_on_graph(self, tiny_resnet_graph):
        first = solve_skip_capacities(tiny_resnet_graph)
        assert tiny_resnet_graph._schedule_cache
        assert solve_skip_capacities(tiny_resnet_graph) == first

    def test_sanitizer_catches_doctored_prediction(self, tiny_resnet_graph, resnet_levels):
        sr = simulate(tiny_resnet_graph, resnet_levels)
        pipeline = sr.pipeline
        stream = next(iter(pipeline.skip_streams.values()))
        stream.stats.max_occupancy -= 1  # pretend the engine peaked lower
        with pytest.raises(RuntimeError, match="solver and the engine disagree"):
            check_skip_high_water(pipeline, n_images=2)

    def test_sanitizer_catches_overflow(self, tiny_resnet_graph, resnet_levels):
        sr = simulate(tiny_resnet_graph, resnet_levels)
        pipeline = sr.pipeline
        stream = next(iter(pipeline.skip_streams.values()))
        stream.stats.max_occupancy = stream.capacity + 5
        with pytest.raises(RuntimeError, match="exceeds its capacity"):
            check_skip_high_water(pipeline, n_images=2)

    def test_single_image_held_to_at_most(self, tiny_resnet_graph, resnet_levels):
        # One image fills an empty pipeline once and may peak below the
        # steady-state mark; the sanitizer (inside simulate) must accept it.
        sr = simulate(tiny_resnet_graph, resnet_levels[:1])
        assert sr.output.shape[0] == 1

    @pytest.mark.parametrize("mode", ["exhaustive", "leap"])
    def test_open_loop_gaps_held_to_at_most(self, tiny_resnet_graph, resnet_levels, mode):
        # Images arriving far apart each enter a drained pipeline: the skip
        # FIFOs peak below the closed-loop mark, and the run is still valid.
        sr = simulate(tiny_resnet_graph, resnet_levels, arrival_cycles=[0, 100_000], mode=mode)
        exact = solve_skip_capacities(tiny_resnet_graph)
        marks = {add: s.stats.max_occupancy for add, s in sr.pipeline.skip_streams.items()}
        assert all(marks[add] <= exact[add] for add in exact)
        assert any(marks[add] < exact[add] for add in exact)

    @pytest.mark.parametrize("mode", ["exhaustive", "leap"])
    def test_skip_edge_across_dfes_checked_against_prediction(self, mode):
        # A skip edge crossing DFEs gets the link's buffering as capacity,
        # above the predicted mark; the sanitizer compares the prediction.
        from tests.test_random_topologies import build_random_graph
        from tests.test_schedule import halves

        graph = build_random_graph(1096467456, 8, 3, True)
        partition = halves(graph)
        levels = np.zeros((3, 8, 8, graph.input_spec.channels), dtype=np.int64)
        sr = simulate(graph, levels, partition=partition, mode=mode)
        stream = sr.pipeline.skip_streams["res.add2"]
        predicted = solve_skip_capacities(graph, partition=partition)["res.add2"]
        assert stream.stats.max_occupancy == predicted < stream.capacity


# -- fault injection: every class is caught statically ---------------------


class TestGraphFaults:
    def test_cycle_detected(self, tiny_resnet_model):
        graph = _fresh_resnet_graph(tiny_resnet_model)
        order = graph.topological()
        head, tail = order[1], order[-1]
        graph.producers[head] += (tail,)  # back edge tail -> head on port 1
        report = verify(graph)
        assert not report.ok
        (diag,) = report.by_code("V105")
        assert f"{tail} -> {head}" in diag.message
        assert {head, tail} <= set(diag.data["cycle"])

    def test_unreachable_node_detected(self, tiny_resnet_model):
        graph = _fresh_resnet_graph(tiny_resnet_model)
        first = graph.topological()[1]
        assert graph.producers[first] == (graph.input_name,)
        graph.producers[first] = ()  # cut the input edge
        report = verify(graph)
        assert "V106" in report.codes()

    def test_missing_input_port_detected(self, tiny_resnet_model):
        graph = _fresh_resnet_graph(tiny_resnet_model)
        add = _first_add(graph)
        graph.producers[add] = graph.producers[add][:1]  # drop port 1
        report = verify(graph)
        codes = report.codes()
        assert "V103" in codes
        (diag,) = [d for d in report.by_code("V103") if d.where == add]
        assert diag.data["expected"] == 2

    def test_no_input_node_detected(self, tiny_resnet_model):
        graph = _fresh_resnet_graph(tiny_resnet_model)
        graph.input_name = None
        report = verify(graph)
        assert report.by_code("V107")[0].severity == "error"

    def test_wide_skip_operand_detected(self, tiny_resnet_model):
        graph = _fresh_resnet_graph(tiny_resnet_model)
        add = _first_add(graph)
        parent = graph.parents(add)[1]
        graph.specs[parent] = dataclasses.replace(graph.specs[parent], bits=18)
        report = verify_graph(graph)
        (diag,) = report.by_code("V202")
        assert diag.severity == "error"
        assert diag.where == add and diag.data["bits"] == 18

    def test_inflated_requirement_trips_formula_check(self, tiny_resnet_graph):
        adds = list(solve_skip_capacities(tiny_resnet_graph))
        fake = {
            name: skip_formula_bound(tiny_resnet_graph, name) + SKIP_FORMULA_SLACK + 1
            for name in adds
        }
        report = verify_graph(tiny_resnet_graph, exact_skip=fake)
        v402 = report.by_code("V402")
        assert len(v402) == len(adds)
        assert all(d.severity == "warning" for d in v402)

    def test_budget_fallback_reports_v403(self, tiny_resnet_graph):
        report = verify(tiny_resnet_graph, replay_budget=0, build=False)
        assert report.skip_mode == "bound"
        assert report.by_code("V403")
        assert "V401" not in report.codes()


class TestPipelineFaults:
    def test_undersized_skip_fifo_flagged_with_exact_minimum(
        self, tiny_resnet_graph, resnet_levels
    ):
        exact = solve_skip_capacities(tiny_resnet_graph)
        undersized = {name: cap - 1 for name, cap in exact.items()}
        pipeline = build_pipeline(tiny_resnet_graph, resnet_levels, skip_sizing=undersized)
        report = verify_pipeline(pipeline)
        v301 = report.by_code("V301")
        assert len(v301) == len(exact)
        for diag in v301:
            assert diag.severity == "error"
            assert diag.data["required"] == exact[diag.data["add"]]
            assert f"minimum safe capacity is {diag.data['required']}" in diag.message

    def test_undersized_skip_fifo_deadlocks_with_pointer(
        self, tiny_resnet_graph, resnet_levels
    ):
        exact = solve_skip_capacities(tiny_resnet_graph)
        undersized = dict(exact)
        first = next(iter(undersized))
        undersized[first] = max(1, exact[first] // 2)
        with pytest.raises(RuntimeError, match="no convergence") as excinfo:
            simulate(tiny_resnet_graph, resnet_levels, skip_sizing=undersized, max_cycles=60_000)
        message = str(excinfo.value)
        assert "stalled kernels at abort" in message
        assert "blocked on full" in message
        assert "python -m repro check" in message

    def test_exactly_sized_fifo_does_not_deadlock(self, tiny_resnet_graph, resnet_levels):
        exact = solve_skip_capacities(tiny_resnet_graph)
        sr = simulate(tiny_resnet_graph, resnet_levels, skip_sizing=dict(exact))
        assert sr.pipeline.skip_sizing == "custom"
        assert sr.output.shape[0] == 2

    def test_skip_sizing_mapping_must_cover_all_adders(
        self, tiny_resnet_graph, resnet_levels
    ):
        exact = solve_skip_capacities(tiny_resnet_graph)
        partial = dict(list(exact.items())[:-1])
        with pytest.raises(ValueError, match="misses residual adders"):
            build_pipeline(tiny_resnet_graph, resnet_levels, skip_sizing=partial)

    def test_corrupt_stream_bits_flagged(self, tiny_resnet_graph, resnet_levels):
        pipeline = build_pipeline(tiny_resnet_graph, resnet_levels)
        victim = next(s for s in pipeline.engine.streams if s.bits == 2)
        victim.bits = 7
        report = verify_pipeline(pipeline)
        (diag,) = report.by_code("V201")
        assert diag.severity == "error"
        assert diag.where == victim.name
        assert diag.data["declared"] == 7
        assert diag.data["expected"] == 2

    def test_fork_arm_removal_flagged(self, tiny_resnet_graph, resnet_levels):
        pipeline = build_pipeline(tiny_resnet_graph, resnet_levels)
        fork = next(k for k in pipeline.engine.kernels if isinstance(k, ForkKernel))
        fork.outputs.pop()
        report = verify_pipeline(pipeline)
        assert "V104" in report.codes()
        assert any(d.where == fork.name for d in report.by_code("V104"))

    def test_dangling_reader_flagged(self, tiny_resnet_graph, resnet_levels):
        pipeline = build_pipeline(tiny_resnet_graph, resnet_levels)
        stream = pipeline.engine.streams[1]
        stream.reader = None
        report = verify_pipeline(pipeline)
        assert any(
            d.code == "V101" and d.where == stream.name for d in report.diagnostics
        )

    def test_double_binding_flagged(self, tiny_resnet_graph, resnet_levels):
        pipeline = build_pipeline(tiny_resnet_graph, resnet_levels)
        a, b = pipeline.engine.streams[1], pipeline.engine.streams[2]
        b.reader = a.reader  # b now claims a's consumer, orphaning its own
        report = verify_pipeline(pipeline)
        assert "V102" in report.codes()

    def test_weak_link_overcommitted(self, tiny_chain_model, images16):
        """A crossing hand-widened to 39 bits (4,095 Mbps) overcommits MaxRing's 4,000 Mbps."""
        from repro.nn import export_model

        graph = export_model(tiny_chain_model, (16, 16, 3), name="tiny-chain")
        lv = _levels(tiny_chain_model, images16[:1])
        names = [n for n in graph.order if n != graph.input_name]
        half = len(names) // 2
        graph.specs[names[half - 1]] = dataclasses.replace(graph.specs[names[half - 1]], bits=39)
        pipeline = build_pipeline(graph, lv, partition=[names[:half], names[half:]])
        report = verify_pipeline(pipeline)
        (v501,) = report.by_code("V501")
        assert v501.severity == "error" and v501.where == f"{names[half - 1]}->{names[half]}"
        assert v501.data["required_mbps"] == 4095.0 and v501.data["capacity_mbps"] == 4000.0
        assert v501.data["utilization"] > 1.0

    def test_healthy_link_reports_headroom(
        self, tiny_chain_model, tiny_chain_graph, images16
    ):
        lv = _levels(tiny_chain_model, images16[:1])
        names = [n for n in tiny_chain_graph.order if n != tiny_chain_graph.input_name]
        half = len(names) // 2
        pipeline = build_pipeline(tiny_chain_graph, lv, partition=[names[:half], names[half:]])
        report = verify_pipeline(pipeline)
        assert report.ok
        assert "V501" not in report.codes()
        assert report.by_code("V502")[0].data["utilization"] < 1.0

    def test_shallow_crossing_fifo_flagged(
        self, tiny_chain_model, tiny_chain_graph, images16
    ):
        lv = _levels(tiny_chain_model, images16[:1])
        names = [n for n in tiny_chain_graph.order if n != tiny_chain_graph.input_name]
        half = len(names) // 2
        pipeline = build_pipeline(tiny_chain_graph, lv, partition=[names[:half], names[half:]])
        crossing = next(s for s in pipeline.engine.streams if s.latency > 0)
        crossing.capacity = 2
        report = verify_pipeline(pipeline)
        (diag,) = report.by_code("V302")
        assert diag.severity == "warning" and diag.where == crossing.name

    def test_skip_stream_across_chips_flagged(self, tiny_resnet_graph, resnet_levels):
        names = [n for n in tiny_resnet_graph.order if n != tiny_resnet_graph.input_name]
        add = _first_add(tiny_resnet_graph)
        cut = names.index(add)  # split right before a residual adder
        pipeline = build_pipeline(
            tiny_resnet_graph, resnet_levels, partition=[names[:cut], names[cut:]]
        )
        report = verify_pipeline(pipeline)
        assert "V503" in report.codes()
        # The message points at the one atomicity rule, which must exist.
        import repro.hardware.partition as partition_module

        for diag in report.by_code("V503"):
            assert "hardware.partition.allowed_cut_positions" in diag.message
        assert callable(partition_module.allowed_cut_positions)


# -- raise_on_error and report plumbing ------------------------------------


class TestReportApi:
    def test_raise_on_error(self, tiny_resnet_model):
        graph = _fresh_resnet_graph(tiny_resnet_model)
        graph.input_name = None
        with pytest.raises(RuntimeError, match="V107"):
            verify(graph).raise_on_error()

    def test_clean_report_passes_through(self, tiny_chain_graph):
        report = verify(tiny_chain_graph)
        assert report.raise_on_error() is report

    def test_render_hides_info_when_asked(self, tiny_resnet_graph):
        report = verify(tiny_resnet_graph)
        assert "V401" in report.render(show_info=True)
        assert "V401" not in report.render(show_info=False)

    def test_deepcopyable(self, tiny_chain_graph):
        report = verify(tiny_chain_graph)
        clone = copy.deepcopy(report)
        assert clone.codes() == report.codes()


# -- the check CLI ---------------------------------------------------------


class TestCheckCli:
    def test_check_vgg_clean(self, capsys):
        from repro.cli import main

        assert main(["check", "vgg:16:0.0625", "--no-info"]) == 0
        out = capsys.readouterr().out
        assert "ok — 0 error(s)" in out

    def test_check_graph_only(self, capsys):
        from repro.cli import main

        assert main(["check", "vgg:16:0.0625", "--graph-only", "--bound"]) == 0

    def test_check_unknown_network(self, capsys):
        from repro.cli import main

        assert main(["check", "lenet"]) == 2
        assert "unknown network" in capsys.readouterr().err
