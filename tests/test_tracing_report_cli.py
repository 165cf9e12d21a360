"""Tests for pipeline tracing, design reports, and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.dataflow import simulate
from repro.dataflow.tracing import analyze_run, render_waterfall
from repro.hardware import STRATIX_10_PROJECTION, STRATIX_V_5SGSD8
from repro.hardware.report import build_design_report
from repro.models import direct_resnet18_graph, direct_vgg_graph
from repro.nn import input_to_levels


@pytest.fixture(scope="module")
def chain_run():
    from tests.conftest import make_tiny_chain_model
    from repro.nn.export import export_model

    model = make_tiny_chain_model()
    graph = export_model(model, (16, 16, 3), name="tiny-chain")
    rng = np.random.default_rng(0)
    levels = input_to_levels(rng.uniform(0, 1, (2, 16, 16, 3)), model.layers[0].quantizer)
    return simulate(graph, levels)


class TestTracing:
    def test_windows_cover_all_active_kernels(self, chain_run):
        trace = analyze_run(chain_run.run)
        names = {w.name for w in trace.windows}
        assert "host_source" in names and "host_sink" in names

    def test_initiation_interval_positive(self, chain_run):
        trace = analyze_run(chain_run.run)
        assert 0 < trace.initiation_interval < chain_run.cycles

    def test_pipeline_fill_is_monotone(self, chain_run):
        """Downstream kernels wake up later: the stair-step waterfall."""
        trace = analyze_run(chain_run.run)
        firsts = {w.name: w.first_active for w in trace.windows}
        assert firsts["host_source"] <= firsts["host_sink"]
        convs = [n for n in firsts if n.startswith("conv")]
        ordered = sorted(convs)
        for earlier, later in zip(ordered, ordered[1:]):
            assert firsts[earlier] <= firsts[later]

    def test_duty_cycles_bounded(self, chain_run):
        trace = analyze_run(chain_run.run)
        for w in trace.windows:
            assert 0.0 <= w.duty_cycle <= 1.0

    def test_stall_report_sorted(self, chain_run):
        trace = analyze_run(chain_run.run)
        rows = trace.stall_report()
        totals = [starved + blocked for _, starved, blocked in rows]
        assert totals == sorted(totals, reverse=True)

    def test_waterfall_renders(self, chain_run):
        trace = analyze_run(chain_run.run)
        text = render_waterfall(trace)
        assert "initiation interval" in text
        assert len(text.splitlines()) == len(trace.windows) + 2

    def test_busiest_is_a_conv(self, chain_run):
        trace = analyze_run(chain_run.run)
        assert "conv" in trace.busiest.name or "fc" in trace.busiest.name

    def test_empty_run_raises(self):
        from repro.dataflow.engine import RunResult

        empty = RunResult(cycles=0, completion_cycles=[], output=None, kernel_stats={}, stream_stats={}, converged=True)
        with pytest.raises(ValueError):
            analyze_run(empty)

    def test_idle_kernels_keep_no_fake_window(self, chain_run):
        """skip_idle=False must not fabricate [0, 0] windows for dead kernels.

        A never-active kernel used to appear as first=last=0, silently
        shrinking the initiation interval and steady fraction; it must now
        surface as an explicit idle window excluded from interval math.
        """
        from dataclasses import replace

        from repro.dataflow.engine import RunResult
        from repro.dataflow.kernel import KernelStats

        stats = dict(chain_run.run.kernel_stats)
        stats["dead"] = KernelStats(input_starved_cycles=chain_run.cycles)
        run = replace(chain_run.run, kernel_stats=stats)

        trace = analyze_run(run, skip_idle=False)
        dead = next(w for w in trace.windows if w.name == "dead")
        assert dead.is_idle
        assert dead.first_active is None and dead.last_active is None
        assert dead.live_span == 0 and dead.duty_cycle == 0.0
        baseline = analyze_run(chain_run.run)
        assert trace.initiation_interval == baseline.initiation_interval
        assert trace.steady_fraction == baseline.steady_fraction
        # The idle kernel's stalls stay visible in the report and waterfall.
        assert ("dead", chain_run.cycles, 0) in trace.stall_report()
        assert "idle" in render_waterfall(trace)

    def test_skip_idle_default_drops_idle_windows(self, chain_run):
        from dataclasses import replace

        from repro.dataflow.kernel import KernelStats

        stats = dict(chain_run.run.kernel_stats)
        stats["dead"] = KernelStats()
        run = replace(chain_run.run, kernel_stats=stats)
        names = {w.name for w in analyze_run(run).windows}
        assert "dead" not in names


class TestDesignReport:
    @pytest.fixture(scope="class")
    def report(self):
        return build_design_report(direct_vgg_graph(32, pool_to=4))

    def test_report_values_consistent(self, report):
        assert report.partition.n_dfes == 1
        assert report.energy_per_image_j == pytest.approx(
            report.power.total_w * report.timing.latency_ms / 1000.0
        )

    def test_render_contains_key_lines(self, report):
        text = report.render()
        assert "design report" in text
        assert "DFEs: 1" in text
        assert "latency" in text and "power" in text

    def test_resnet_on_stratix5_needs_two(self):
        rep = build_design_report(direct_resnet18_graph(), device=STRATIX_V_5SGSD8)
        assert rep.partition.n_dfes == 2

    def test_resnet_fits_single_stratix10(self):
        """§IV-B4: Stratix 10 would 'fit even bigger networks onto a single
        FPGA' — ResNet-18 collapses to one device."""
        rep = build_design_report(direct_resnet18_graph(), device=STRATIX_10_PROJECTION)
        assert rep.partition.n_dfes == 1
        assert rep.timing.latency_ms < 4.0  # 5x clock projection

    def test_gpu_comparison_present(self, report):
        assert report.gpu_ms > 0 and report.gpu_w > 0


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "figure8" in out

    def test_reproduce_single(self, capsys):
        assert cli_main(["reproduce", "table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Stratix V" in out

    def test_report_vgg(self, capsys):
        assert cli_main(["report", "vgg", "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "design report" in out

    def test_report_stratix10(self, capsys):
        assert cli_main(["report", "vgg", "--size", "32", "--device", "stratix10"]) == 0
        out = capsys.readouterr().out
        assert "Stratix 10" in out

    def test_simulate(self, capsys):
        assert cli_main(["simulate", "--size", "16", "--images", "1"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "initiation interval" in out

    def test_simulate_bad_size(self, capsys):
        assert cli_main(["simulate", "--size", "15"]) == 2

    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        from repro.dataflow import load_chrome_trace

        out = tmp_path / "trace.json"
        assert cli_main(["trace", "--size", "16", "--images", "2", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "cycles" in text and "initiation interval" in text
        assert "ui.perfetto.dev" in text
        data = load_chrome_trace(out)
        assert data["otherData"]["total_cycles"] > 0
        assert any(e.get("ph") == "X" for e in data["traceEvents"])

    def test_trace_into_a_missing_directory(self, capsys, tmp_path):
        from repro.dataflow import load_chrome_trace

        out = tmp_path / "nodir" / "t.json"
        assert cli_main(["trace", "--size", "16", "--images", "2", "--out", str(out)]) == 0
        assert load_chrome_trace(out)["otherData"]["total_cycles"] > 0

    def test_trace_bad_size(self, capsys, tmp_path):
        assert cli_main(["trace", "--size", "15", "--out", str(tmp_path / "t.json")]) == 2

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["report", "lenet"])
