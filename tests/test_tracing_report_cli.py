"""Tests for pipeline tracing, design reports, and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.dataflow import LayerTable, simulate
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
        table = LayerTable.of(chain_run.pipeline)
        names = {row.name for row in table.rows}
        assert "host_source" in names and "host_sink" in names

    def test_initiation_interval_positive(self, chain_run):
        table = LayerTable.of(chain_run.pipeline)
        assert 0 < table.initiation_interval < chain_run.cycles

    def test_pipeline_fill_is_monotone(self, chain_run):
        """Downstream kernels wake up later: the stair-step waterfall."""
        table = LayerTable.of(chain_run.pipeline)
        firsts = {row.name: row.first_active for row in table.rows}
        assert firsts["host_source"] <= firsts["host_sink"]
        convs = [n for n in firsts if n.startswith("conv")]
        ordered = sorted(convs)
        for earlier, later in zip(ordered, ordered[1:]):
            assert firsts[earlier] <= firsts[later]

    def test_duty_cycles_bounded(self, chain_run):
        table = LayerTable.of(chain_run.pipeline)
        for row in table.rows:
            assert 0.0 <= row.duty <= 1.0
            assert 0.0 <= row.utilization <= 1.0

    def test_waterfall_renders(self, chain_run):
        table = LayerTable.of(chain_run.pipeline)
        text = table.waterfall()
        assert "initiation interval" in text
        assert len(text.splitlines()) == len(table.rows) + 2

    def test_empty_run_raises(self, chain_run):
        """A run of no images has only idle rows: no initiation interval, no waterfall."""
        empty = simulate(chain_run.pipeline.graph, np.zeros((0, 16, 16, 3), dtype=np.int64))
        table = LayerTable.of(empty.pipeline)
        assert table.cycles == 0 and all(row.is_idle for row in table.rows)
        assert table.initiation_interval is None and table.overlap() == 0.0
        with pytest.raises(ValueError):
            table.waterfall()

    def test_idle_kernels_keep_no_fake_window(self, chain_run):
        """An idle row must not be a fabricated [0, 0] window.

        A never-active kernel used to appear as first=last=0, silently
        shrinking the initiation interval and steady fraction; it is an
        explicit idle row, kept out of interval and overlap math.
        """
        from dataclasses import replace

        from repro.dataflow import LayerRow

        baseline = LayerTable.of(chain_run.pipeline)
        dead = LayerRow("dead", None, None, 0, chain_run.cycles, 0, 0)
        table = replace(baseline, rows=[*baseline.rows, dead])
        assert dead.is_idle and dead.duty == 0.0 and dead.verdict == "starved"
        assert table.initiation_interval == baseline.initiation_interval
        assert table.overlap() == baseline.overlap()
        assert table.overlap(["dead", "host_source"]) == 0.0
        # The idle row stays visible in the waterfall.
        assert table.waterfall().splitlines()[-2] == f"{'dead':24s} |{' ' * 60}| idle"

    @pytest.mark.parametrize("mode", ["leap", "exhaustive"])
    def test_rows_account_for_every_cycle(self, chain_run, mode):
        """Each kernel's busy + starved + blocked + idle is the run's cycle count, also when cut."""
        from repro.dataflow import CycleBudgetExceeded

        graph, images = chain_run.pipeline.graph, np.zeros((2, 16, 16, 3), dtype=np.int64)
        with pytest.raises(CycleBudgetExceeded) as cut:
            simulate(graph, images, mode=mode, max_cycles=100)
        for pipeline, cycles in ((chain_run.pipeline, chain_run.cycles), (cut.value.pipeline, 100)):
            table = LayerTable.of(pipeline)
            assert table.cycles == cycles
            for row in table.rows:
                assert row.busy + row.starved + row.blocked + row.idle == cycles, row.name


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

    def test_trace_and_simulate_print_one_waterfall(self, capsys, tmp_path):
        """Both commands draw the same layer table for the same run."""

        def waterfall(text):
            lines = text.splitlines()
            start = next(i for i, line in enumerate(lines) if line.startswith("kernel "))
            end = next(i for i, line in enumerate(lines) if "initiation interval:" in line)
            return lines[start : end + 1]

        run = ["--size", "16", "--images", "3", "--seed", "3"]
        assert cli_main(["simulate", *run]) == 0
        simulated = waterfall(capsys.readouterr().out)
        assert cli_main(["trace", *run, "--out", str(tmp_path / "t.json")]) == 0
        traced = waterfall(capsys.readouterr().out)
        assert traced == simulated
        assert len(simulated) == 14 + 2  # 12 layers, the host endpoints, header and summary

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
