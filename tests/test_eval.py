"""Tests for the experiment harness (tables, figures, registry)."""

import pytest

from repro.eval import (
    EXPERIMENTS,
    ExperimentResult,
    format_series,
    format_table,
    run_all,
    run_experiment,
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        for exp_id in ("table1", "table2", "table3", "table4", "figure5", "figure6", "figure7", "figure8", "scalability"):
            assert exp_id in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


class TestTables:
    def test_table1_matches_paper_dims(self):
        res = run_experiment("table1")
        by_layer = {r["layer"]: r for r in res.rows}
        assert by_layer["conv1"]["output size"] == "112x112"
        assert by_layer["conv2_x"]["output size"] == "56x56"
        assert by_layer["conv5_x"]["output size"] == "7x7"
        assert all("OK" in n for n in res.notes)

    def test_table2_constants(self):
        res = run_experiment("table2")
        devices = {r["device"] for r in res.rows}
        assert "Stratix V 5SGSD8" in devices

    def test_table3_shape_claims(self):
        res = run_experiment("table3")
        rows = {r["network"]: r for r in res.rows}
        assert rows["resnet18"]["LUT"] > rows["alexnet"]["LUT"]
        assert rows["resnet18"]["BRAM (Kbits)"] < rows["alexnet"]["BRAM (Kbits)"]
        assert rows["resnet18"]["runtime (ms)"] > rows["alexnet"]["runtime (ms)"]
        assert rows["alexnet"]["DFEs"] == 3
        assert rows["resnet18"]["DFEs"] == 2

    def test_table4_quick_mode(self):
        res = run_experiment("table4", quick=True)
        metrics = {r["metric"]: r for r in res.rows}
        assert metrics["time (ms)"]["FINN"] < metrics["time (ms)"]["DFE (ours)"]
        assert metrics["power (W)"]["FINN"] < metrics["power (W)"]["DFE (ours)"]


class TestFigures:
    def test_figure5_directions(self):
        res = run_experiment("figure5")
        rows = {(r["input"], r["network"]): r for r in res.rows}
        # DFE wins at 32x32, GPU wins for ResNet at 224x224
        assert rows[("32x32", "vgg-like")]["DFE (ms)"] < rows[("32x32", "vgg-like")]["P100 (ms)"]
        assert rows[("224x224", "resnet18")]["DFE (ms)"] > rows[("224x224", "resnet18")]["P100 (ms)"]

    def test_figure6_growth_small(self):
        res = run_experiment("figure6")
        row96 = next(r for r in res.rows if r["input"] == "96x96")
        growth = float(row96["LUT vs 32"].rstrip("%"))
        assert growth < 10.0

    def test_figure7_power_ratio(self):
        res = run_experiment("figure7")
        single_dfe = [r for r in res.rows if r["DFEs"] == 1]
        assert all(r["GPU/DFE"] > 8 for r in single_dfe)

    def test_figure8_energy_direction(self):
        res = run_experiment("figure8")
        assert all(r["GPU/DFE"] > 1.0 for r in res.rows)

    def test_figure8_prints_its_paper_comparison(self):
        assert "paper: energy up to 20x" in run_experiment("figure8").render()

    def test_scalability_rows(self):
        res = run_experiment("scalability")
        q = {r["quantity"]: r["value"] for r in res.rows}
        assert q["throughput (fps, pipelined)"] > 60
        assert q["DFEs required"] == 2
        assert q["runtime @Stratix-10 5x clock (ms)"] < 4.0


class TestRunAll:
    def test_run_all_quick(self):
        results = run_all(quick=True)
        assert len(results) == len(EXPERIMENTS)
        assert all(isinstance(r, ExperimentResult) for r in results)
        for r in results:
            text = r.render()
            assert r.exp_id in text


class TestFormatting:
    def test_format_table_aligns(self):
        txt = format_table(["a", "bb"], [{"a": 1, "bb": 2.5}, {"a": 100, "bb": "x"}])
        lines = txt.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[0:1])) == 1

    def test_format_table_missing_cell(self):
        txt = format_table(["a", "b"], [{"a": 1}])
        assert "1" in txt

    def test_format_series(self):
        s = format_series("dfe", [32, 96], [1.5, 11.2], unit="ms")
        assert "32=1.5" in s.replace("1.500", "1.5")
