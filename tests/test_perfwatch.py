"""Perf-regression harness: policy, trajectory integrity, diff gate, plugin.

Covers the four perfwatch layers end-to-end:

* the shared strict/loose threshold policy (the single source the bench
  guards and the CI gate both draw from);
* ``BENCH_streaming.json`` integrity — the committed file must parse,
  stay append-only with non-decreasing timestamps, carry the required
  host keys on every entry, and use only registered case names;
* the diff gate — an injected slow case or inflated-RSS case makes
  ``repro perf diff`` exit non-zero naming that case, while the committed
  baseline passes clean even under ``--strict``;
* the pytest plugin — a real subprocess session writes a valid
  ``repro-perf/1`` report, metering overhead on the tiny_chain workload
  stays within the telemetry-guard budget, and reports are deterministic
  modulo timing fields.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.perfwatch import (
    KNOWN_CASES,
    LOOSE_FLOOR,
    STRICT_FLOOR,
    PerfDataError,
    PerfRecord,
    PerfReport,
    check_cost,
    check_rate,
    diff_reports,
    diff_trajectory,
    latest_rate,
    load_trajectory,
    rate_floor,
    sparkline,
    trajectory_payload,
    validate_trajectory,
)
from repro.perfwatch.plugin import PerfMeter

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_streaming.json"
SRC_DIR = REPO_ROOT / "src"


# ---------------------------------------------------------------------------
# policy


def test_rate_floor_defaults_loose(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
    assert rate_floor() == LOOSE_FLOOR
    assert rate_floor(strict=True) == STRICT_FLOOR
    assert rate_floor(strict=False) == LOOSE_FLOOR


def test_rate_floor_env_strict(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
    assert rate_floor() == STRICT_FLOOR
    # An explicit argument still wins over the environment.
    assert rate_floor(strict=False) == LOOSE_FLOOR


def test_check_rate_boundaries():
    # Exactly at the floor passes; just below fails and names the case.
    assert check_rate("c", 60.0, 100.0, strict=False) is None
    violation = check_rate("c", 59.9, 100.0, strict=False)
    assert violation is not None and violation.case == "c"
    assert "c:" in str(violation) and "below" in str(violation)
    assert violation.severity > 1.0
    assert check_rate("c", 95.0, 100.0, strict=True) is None
    assert check_rate("c", 94.0, 100.0, strict=True) is not None


def test_check_cost_boundaries():
    # Cost may grow to baseline/floor; beyond that is a violation.
    assert check_cost("c", 100.0 / 0.6, 100.0, strict=False) is None
    violation = check_cost("c", 100.0 / 0.6 + 1, 100.0, strict=False)
    assert violation is not None and violation.kind == "cost"
    assert "exceeds" in str(violation)
    assert check_cost("c", 0.0, 0.0) is None  # zero baseline never trips


# ---------------------------------------------------------------------------
# trajectory integrity (the committed file is the fixture)


def test_committed_trajectory_is_valid():
    entries = load_trajectory(BENCH_PATH)
    assert entries, "BENCH_streaming.json must hold at least the seed entry"
    assert validate_trajectory(entries) == []


def test_committed_trajectory_passes_strict_diff():
    result = diff_trajectory(load_trajectory(BENCH_PATH), strict=True)
    assert result.ok, result.render()
    assert result.worst is None


def _entry(timestamp, revision, cases):
    return {
        "timestamp": timestamp,
        "revision": revision,
        "python": "3.11.7",
        "numpy": "2.4.6",
        "cases": cases,
    }


def _case(rate):
    return {
        "simulated_cycles": 100_000,
        "seconds": 100_000 / rate,
        "simulated_cycles_per_second": rate,
    }


def test_validate_names_each_problem():
    entries = [
        _entry("2026-08-02T00:00:00Z", "aaa", {"tiny_chain": _case(1000.0)}),
        # out-of-order timestamp, missing revision, unknown case, rate-less case
        {
            "timestamp": "2026-08-01T00:00:00Z",
            "python": "3.11.7",
            "numpy": "2.4.6",
            "cases": {"no_such_case": _case(1000.0), "tiny_resnet": {"seconds": 1.0}},
        },
    ]
    problems = "\n".join(validate_trajectory(entries))
    assert "append-only" in problems
    assert "missing required key 'revision'" in problems
    assert "unknown case 'no_such_case'" in problems
    assert "no positive simulated_cycles_per_second" in problems


def test_validate_rejects_bad_timestamp_and_shapes():
    problems = "\n".join(
        validate_trajectory(
            [
                _entry("yesterday-ish", "aaa", {"tiny_chain": _case(1.0)}),
                {"timestamp": "2026-08-01T00:00:00Z", "revision": "b", "python": "x", "numpy": "y"},
                "not-an-object",
            ]
        )
    )
    assert "not UTC ISO" in problems
    assert "missing or empty 'cases'" in problems
    assert "not an object" in problems


def test_flush_refuses_malformed_append(tmp_path, monkeypatch):
    from benchmarks import perf_trajectory

    monkeypatch.setattr(perf_trajectory, "BENCH_PATH", tmp_path / "traj.json")
    perf_trajectory.record("no_such_case", 1000, 0.5)
    try:
        with pytest.raises(PerfDataError, match="no_such_case"):
            perf_trajectory.flush()
        assert not (tmp_path / "traj.json").exists()
    finally:
        perf_trajectory._cases.clear()


def test_flush_appends_valid_entry_and_peek(tmp_path, monkeypatch):
    from benchmarks import perf_trajectory

    monkeypatch.setattr(perf_trajectory, "BENCH_PATH", tmp_path / "traj.json")
    perf_trajectory.record("tiny_chain", 5614, 0.05)
    assert "tiny_chain" in perf_trajectory.peek()
    try:
        perf_trajectory.flush()
        entries = load_trajectory(tmp_path / "traj.json")
        assert validate_trajectory(entries) == []
        assert latest_rate(entries, "tiny_chain") == pytest.approx(5614 / 0.05, rel=1e-3)
        # After the flush peek still answers (the plugin may run second).
        assert "tiny_chain" in perf_trajectory.peek()
    finally:
        perf_trajectory._cases.clear()
        perf_trajectory._last_flushed.clear()


def test_flush_refuses_truncated_trajectory(tmp_path, monkeypatch):
    from benchmarks import perf_trajectory

    path = tmp_path / "traj.json"
    monkeypatch.setattr(perf_trajectory, "BENCH_PATH", path)
    perf_trajectory.record("tiny_chain", 5614, 0.05)
    perf_trajectory.flush()
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    truncated = path.read_bytes()
    perf_trajectory.record("tiny_chain", 5614, 0.05)
    try:
        with pytest.raises(PerfDataError, match="cannot read trajectory"):
            perf_trajectory.flush()
        assert path.read_bytes() == truncated
        assert [p.name for p in tmp_path.iterdir()] == ["traj.json"]
    finally:
        perf_trajectory._cases.clear()
        perf_trajectory._last_flushed.clear()


def test_flush_refuses_out_of_order_trajectory(tmp_path, monkeypatch):
    from benchmarks import perf_trajectory

    path = tmp_path / "traj.json"
    monkeypatch.setattr(perf_trajectory, "BENCH_PATH", path)
    perf_trajectory.record("tiny_chain", 5614, 0.05)
    perf_trajectory.flush()
    # A last entry stamped in the future (clock skew, a hand edit).
    entries = json.loads(path.read_text())
    entries[-1]["timestamp"] = "2999-01-01T00:00:00Z"
    path.write_text(json.dumps(entries, indent=2) + "\n")
    skewed = path.read_bytes()
    perf_trajectory.record("tiny_chain", 5614, 0.05)
    try:
        with pytest.raises(PerfDataError, match="precedes the last entry's 2999-01-01T00:00:00Z"):
            perf_trajectory.flush()
        assert path.read_bytes() == skewed
        assert [p.name for p in tmp_path.iterdir()] == ["traj.json"]
        assert validate_trajectory(json.loads(skewed)) == []
    finally:
        perf_trajectory._cases.clear()
        perf_trajectory._last_flushed.clear()


# ---------------------------------------------------------------------------
# diff gate


def test_diff_flags_injected_regression_and_names_worst():
    entries = [
        _entry("2026-08-01T00:00:00Z", "aaa", {"tiny_chain": _case(100_000.0), "vgg32_dense": _case(200_000.0)}),
        _entry("2026-08-02T00:00:00Z", "bbb", {"tiny_chain": _case(40_000.0), "vgg32_dense": _case(190_000.0)}),
    ]
    result = diff_trajectory(entries)  # loose floor: 40% retained < 60%
    assert not result.ok
    assert result.worst is not None and result.worst.case == "tiny_chain"
    assert "tiny_chain" in result.render()
    payload = result.as_dict()
    assert payload["schema"] == "repro-perf-diff/1"
    assert payload["worst_offender"] == "tiny_chain"


def test_diff_strict_catches_what_loose_allows():
    entries = [
        _entry("2026-08-01T00:00:00Z", "aaa", {"vgg32_leap": _case(1_000_000.0)}),
        _entry("2026-08-02T00:00:00Z", "bbb", {"vgg32_leap": _case(800_000.0)}),
    ]
    assert diff_trajectory(entries, strict=False).ok
    assert not diff_trajectory(entries, strict=True).ok


def test_diff_against_best_uses_alltime_peak():
    entries = [
        _entry("2026-08-01T00:00:00Z", "aaa", {"tiny_chain": _case(150_000.0)}),
        _entry("2026-08-02T00:00:00Z", "bbb", {"tiny_chain": _case(90_000.0)}),
        _entry("2026-08-03T00:00:00Z", "ccc", {"tiny_chain": _case(88_000.0)}),
    ]
    # vs prev (88k/90k) both floors pass; vs best (88k/150k = 59%) loose trips.
    assert diff_trajectory(entries, against="prev").ok
    assert not diff_trajectory(entries, against="best").ok


def test_diff_single_recording_is_new_and_passes():
    entries = [_entry("2026-08-01T00:00:00Z", "aaa", {"tiny_chain_plan": _case(1000.0)})]
    result = diff_trajectory(entries, strict=True)
    assert result.ok and result.deltas[0].new


def test_diff_cli_trajectory_gate(tmp_path, capsys):
    path = tmp_path / "traj.json"
    path.write_text(
        json.dumps(
            [
                _entry("2026-08-01T00:00:00Z", "aaa", {"tiny_chain": _case(100_000.0)}),
                _entry("2026-08-02T00:00:00Z", "bbb", {"tiny_chain": _case(40_000.0)}),
            ]
        )
    )
    rc = main(["perf", "diff", "--baseline", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "PERF REGRESSION" in captured.err and "tiny_chain" in captured.err

    clean = tmp_path / "clean.json"
    clean.write_text(
        json.dumps([_entry("2026-08-01T00:00:00Z", "aaa", {"tiny_chain": _case(100_000.0)})])
    )
    assert main(["perf", "diff", "--baseline", str(clean), "--strict"]) == 0
    capsys.readouterr()


def test_diff_cli_rejects_malformed_trajectory(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"cases": {"tiny_chain": _case(1.0)}}]))
    assert main(["perf", "diff", "--baseline", str(bad)]) == 2
    assert "malformed" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["perf", "diff", "--baseline", str(missing)]) == 2
    capsys.readouterr()


def _write_perf_report(path, wall_s=0.1, rss_kb=50_000, extra=None):
    records = {
        "tests/test_probe.py::test_alpha": PerfRecord(wall_s, wall_s * 0.9, rss_kb, 100),
        "tests/test_probe.py::test_beta": PerfRecord(0.05, 0.04, 40_000, 50),
    }
    if extra:
        records.update(extra)
    report = PerfReport(records=records, timestamp="2026-08-09T00:00:00Z")
    report.write(path)
    return report


def test_diff_cli_report_mode_slow_case(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    _write_perf_report(base, wall_s=0.1)
    _write_perf_report(cur, wall_s=0.2)  # 2x slower: beyond the loose 1/0.6 budget
    rc = main(["perf", "diff", "--report", str(cur), "--baseline", str(base)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "test_alpha" in captured.err and "wall seconds" in captured.err


def test_diff_cli_report_mode_inflated_rss(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    _write_perf_report(base, rss_kb=50_000)
    _write_perf_report(cur, rss_kb=120_000)  # 2.4x the baseline peak RSS
    rc = main(["perf", "diff", "--report", str(cur), "--baseline", str(base)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "test_alpha" in captured.err and "peak RSS" in captured.err


def test_diff_cli_report_mode_clean_and_new_tests_pass(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    _write_perf_report(base)
    _write_perf_report(
        cur, extra={"tests/test_probe.py::test_gamma": PerfRecord(9.9, 9.0, 999_999, 0)}
    )
    assert main(["perf", "diff", "--report", str(cur), "--baseline", str(base), "--strict"]) == 0
    capsys.readouterr()


def test_diff_reports_cross_host_annotation():
    base = PerfReport(
        records={"t": PerfRecord(0.1, 0.1, 1000, 0)}, manifest={"python": "3.10.0"}
    )
    cur = PerfReport(
        records={"t": PerfRecord(0.1, 0.1, 1000, 0)}, manifest={"python": "3.11.7"}
    )
    result = diff_reports(cur, base)
    assert result.ok
    assert all(d.cross_host.get("python") == ("3.11.7", "3.10.0") for d in result.deltas)


# ---------------------------------------------------------------------------
# trajectory report rendering


def test_sparkline_scales_and_handles_flat():
    assert sparkline([]) == ""
    assert sparkline([5.0, 5.0]) == "▄▄"
    line = sparkline([0.0, 50.0, 100.0])
    assert line[0] == "▁" and line[-1] == "█" and len(line) == 3


def test_report_cli_renders_every_entry_and_revision(capsys):
    rc = main(["perf", "report", "--trajectory", str(BENCH_PATH), "--markdown"])
    out = capsys.readouterr().out
    assert rc == 0
    entries = json.loads(BENCH_PATH.read_text())
    for entry in entries:
        assert entry["revision"] in out
        for case in entry["cases"]:
            assert f"`{case}`" in out


def test_report_cli_table_lists_all_cases(capsys):
    rc = main(["perf", "report", "--trajectory", str(BENCH_PATH)])
    out = capsys.readouterr().out
    assert rc == 0
    entries = json.loads(BENCH_PATH.read_text())
    recorded = {case for entry in entries for case in entry["cases"]}
    for case in recorded:
        assert case in out


def test_report_cli_json_payload(capsys):
    rc = main(["perf", "report", "--trajectory", str(BENCH_PATH), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["schema"] == "repro-perf-trajectory/1"
    assert payload["cases"]["tiny_chain"]["recordings"]
    for case in payload["cases"]:
        assert case in KNOWN_CASES


def test_report_cli_out_refuses_overwrite(tmp_path, capsys):
    out = tmp_path / "report.md"
    out.write_text("precious")
    rc = main(
        ["perf", "report", "--trajectory", str(BENCH_PATH), "--markdown", "--out", str(out)]
    )
    assert rc == 2
    assert "exists" in capsys.readouterr().err
    rc = main(
        [
            "perf",
            "report",
            "--trajectory",
            str(BENCH_PATH),
            "--html",
            "--out",
            str(out),
            "--force",
        ]
    )
    assert rc == 0
    assert out.read_text().startswith("<!doctype html>")
    capsys.readouterr()


def test_trajectory_payload_counts_match_file():
    entries = load_trajectory(BENCH_PATH)
    payload = trajectory_payload(entries)
    assert payload["entries"] == len(entries)
    n_recordings = sum(len(c["recordings"]) for c in payload["cases"].values())
    assert n_recordings == sum(len(e["cases"]) for e in entries)


# ---------------------------------------------------------------------------
# the plugin and its meter


def test_perf_meter_records_sane_values():
    meter = PerfMeter().start()
    data = np.arange(500_000, dtype=np.float64)
    total = float(data.sum())
    record = meter.stop()
    assert total > 0
    assert record.wall_s > 0
    assert record.cpu_s >= 0
    assert record.peak_rss_kb > 0
    assert record.rss_growth_kb >= 0
    assert record.tracemalloc_peak_kb is None
    assert record.outcome == "passed"


def test_perf_meter_tracemalloc_sees_allocations():
    meter = PerfMeter(trace_alloc=True).start()
    blob = [bytearray(1024) for _ in range(2048)]  # ~2 MB live
    record = meter.stop()
    assert len(blob) == 2048
    assert record.tracemalloc_peak_kb is not None
    assert record.tracemalloc_peak_kb >= 1024


def test_meter_overhead_on_tiny_chain_within_telemetry_budget():
    """The meter wrapped around the bench workload must be ~free.

    Same budget as the telemetry/loadgen overhead guards: the metered run
    may cost at most 1/floor of the bare run (5% strict, 40% loose) —
    metering is two getrusage calls and two clock reads per test, so this
    holds with enormous margin on any machine.
    """
    from repro.dataflow import simulate
    from repro.nn import input_to_levels
    from repro.nn.export import export_model
    from tests.conftest import make_tiny_chain_model

    model = make_tiny_chain_model()
    graph = export_model(model, (16, 16, 3), name="tiny-chain")
    rng = np.random.default_rng(0)
    levels = input_to_levels(rng.uniform(0, 1, (2, 16, 16, 3)), model.layers[0].quantizer)

    simulate(graph, levels)  # warm caches before timing either path
    bare = min(_timed(lambda: simulate(graph, levels)) for _ in range(3))

    def metered():
        meter = PerfMeter().start()
        simulate(graph, levels)
        meter.stop()

    wrapped = min(_timed(metered) for _ in range(3))
    assert check_cost("tiny_chain_metered", wrapped, bare, metric="wall seconds") is None, (
        f"perfwatch meter overhead too high: {wrapped:.4f}s vs {bare:.4f}s bare "
        f"(floor {rate_floor():.0%})"
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run_plugin_session(tmp_path, tag):
    """Run a tiny pytest session in a subprocess under the plugin."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        "def test_fast():\n"
        "    assert sum(range(1000)) == 499500\n"
        "\n"
        "def test_broken():\n"
        "    assert False\n"
    )
    report_path = tmp_path / f"perf_{tag}.json"
    env = dict(os.environ)
    env["REPRO_PERF_REPORT"] = str(report_path)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "repro.perfwatch.plugin", str(probe)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr  # one failing probe test
    return PerfReport.load(report_path)


def test_plugin_end_to_end_writes_valid_report(tmp_path):
    report = _run_plugin_session(tmp_path, "a")
    assert set(report.records) == {
        "test_probe.py::test_fast",
        "test_probe.py::test_broken",
    }
    fast = report.records["test_probe.py::test_fast"]
    broken = report.records["test_probe.py::test_broken"]
    assert fast.outcome == "passed" and broken.outcome == "failed"
    assert fast.wall_s > 0 and fast.peak_rss_kb > 0
    payload = json.loads((tmp_path / "perf_a.json").read_text())
    assert payload["schema"] == "repro-perf/1"
    for key in ("revision", "python", "numpy"):
        assert payload.get(key), key


def test_plugin_report_deterministic_modulo_timing(tmp_path):
    (tmp_path / "run1").mkdir()
    (tmp_path / "run2").mkdir()
    first = _run_plugin_session(tmp_path / "run1", "x")
    second = _run_plugin_session(tmp_path / "run2", "x")
    assert first.stable_dict() == second.stable_dict()
    # ... while the timing fields themselves did get recorded.
    assert all(r.wall_s > 0 for r in first.records.values())


def test_report_roundtrip_and_schema_guard(tmp_path):
    report = _write_perf_report(tmp_path / "r.json")
    loaded = PerfReport.load(tmp_path / "r.json")
    assert loaded.as_dict() == report.as_dict()
    (tmp_path / "bad.json").write_text(json.dumps({"schema": "other/1", "records": {}}))
    with pytest.raises(PerfDataError, match="schema"):
        PerfReport.load(tmp_path / "bad.json")
