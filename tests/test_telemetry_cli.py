"""CLI tests for the telemetry-facing subcommands (simulate --json, top, stats)."""

import errno
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.telemetry import validate_exposition


class TestSimulateJson:
    def test_json_mode_is_machine_readable(self, capsys):
        rc = cli_main(["simulate", "--images", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-telemetry/1"
        assert payload["stats"]["images"] == 2
        assert payload["stats"]["cycles"] > payload["stats"]["latency_cycles"] > 0
        assert payload["stats"]["fps"] > 0
        assert payload["manifest"]["topology"]["name"].startswith("vgg")
        names = {f["name"] for f in payload["metrics"]}
        assert "repro_kernel_cycles_total" in names

    def test_exports_prometheus_and_snapshot_files(self, capsys, tmp_path):
        prom = tmp_path / "m.prom"
        snap = tmp_path / "m.json"
        rc = cli_main(
            ["simulate", "--images", "2", "--prom", str(prom), "--snapshot", str(snap)]
        )
        assert rc == 0
        assert validate_exposition(prom.read_text()) == []
        assert json.loads(snap.read_text())["finished"] is True

    def test_existing_export_requires_force(self, capsys, tmp_path):
        prom = tmp_path / "m.prom"
        prom.write_text("old\n")
        rc = cli_main(["simulate", "--prom", str(prom)])
        assert rc == 2
        assert "--force" in capsys.readouterr().err
        assert prom.read_text() == "old\n"
        rc = cli_main(["simulate", "--prom", str(prom), "--force"])
        assert rc == 0
        assert prom.read_text() != "old\n"

    def test_existing_snapshot_is_refused_before_the_run(self, capsys, tmp_path, monkeypatch):
        """The guard covers ``--snapshot`` too and fires before anything is simulated or written."""
        import repro.dataflow

        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(repro.dataflow, "simulate", refuse)
        prom, snap = tmp_path / "m.prom", tmp_path / "m.json"
        snap.write_text("{}")
        rc = cli_main(["simulate", "--prom", str(prom), "--snapshot", str(snap)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--force" in err and str(snap) in err
        assert not prom.exists() and snap.read_text() == "{}"

    def test_exports_create_parent_directories(self, capsys, tmp_path):
        prom, snap = tmp_path / "a" / "m.prom", tmp_path / "b" / "c" / "m.json"
        rc = cli_main(["simulate", "--prom", str(prom), "--snapshot", str(snap)])
        assert rc == 0
        assert validate_exposition(prom.read_text()) == []
        assert json.loads(snap.read_text())["finished"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--json", "--every", "0"],
        ["top", "--every", "0"],
        ["top", "--every", "-5"],
        ["simulate", "--images", "0"],
        ["trace", "--images", "0"],
        ["top", "--images", "0"],
        ["simulate", "--rate", "0"],
        ["simulate", "--rate", "-1"],
        ["load", "--rate", "0", "--images", "2"],
        ["check", "vgg:abc"],
        ["check", "resnet18:abc"],
        ["plan", "vgg:16:x"],
        ["check", "vgg:16:0.0625:x"],
        ["stats", "--max-cycles", "0"],
        ["load", "--rate", "100", "--images", "2", "--max-cycles", "0"],
        ["load", "--sweep", "100", "200", "--images", "2", "--max-cycles", "0"],
        ["fleet", "--max-cycles", "0"],
        ["stats", "--images", "-1"],
        ["stats", "--images", "0"],
        ["stats", "--network", "resnet18", "--skip-capacity", "0"],
        ["fleet", "--mix", "vgg:16", "--images", "4", "--policy", "batch", "--batch", "0"],
        ["fleet", "--mix", "vgg:16", "--sweep", "100", "-5"],
        ["plan", "vgg:16", "--objective", "min-latency", "--dfes", "0"],
        ["stats", "--size", "0"],
        ["stats", "--network", "resnet18", "--size", "0"],
        ["stats", "--width", "0"],
        ["stats", "--width", "-1"],
        ["fleet", "--width", "0"],
        ["fleet", "--mix", "vgg:16:0"],
        ["report", "vgg", "--size", "0"],
        ["report", "vgg", "--size", "12"],
        ["stats", "--images", "2", "--seed", "-1"],
        ["fleet", "--images", "4", "--rate", "1000", "--seed", "-1"],
        ["plan", "vgg:16", "--simulate", "--seed", "-1"],
        ["load", "--rate", "nan", "--images", "2"],
        ["load", "--images", "2", "--sweep", "nan"],
        ["load", "--rate", "inf", "--images", "2"],
        ["fleet", "--images", "4", "--rate", "nan"],
        ["fleet", "--images", "4", "--rate", "1000", "--sweep", "nan"],
        ["fleet", "--images", "4", "--rate", "inf"],
        ["fleet", "--images", "4", "--rate", "1000", "--workers", "-1"],
        # Rates whose arrival cycles do not fit a 64-bit cycle count.
        ["load", "--rate", "1e-300", "--images", "2"],
        ["simulate", "--images", "2", "--rate", "1e-300"],
        ["fleet", "--images", "4", "--rate", "1e-300"],
        ["fleet", "--mix", "vgg:16:0.0625", "--replicas", "1", "--images", "2", "--rate", "1e-12"],
        # Malformed --mix specs, refused as `repro check` refuses them.
        ["fleet", "--mix", "vgg:16:0.0625:9", "--plan-dfes"],
        ["fleet", "--mix", "vgg:x"],
    ],
)
def test_malformed_input_exits_2_with_one_line(argv, capsys, tmp_path, monkeypatch):
    """Malformed input is a one-line message on stderr and exit 2, not a traceback."""
    monkeypatch.chdir(tmp_path)  # `trace` would write trace.json here
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        # A run cut at its cycle budget: one line (or a report on stdout), exit 1.
        (["simulate", "--images", "2", "--rate", "1e-3"], 1),
        (["simulate", "--images", "2", "--rate", "1e-3", "--json"], 1),
        (["simulate", "--images", "2", "--rate", "1e-3", "--prom", "m.prom", "--snapshot", "s.json"], 1),
        (["load", "--images", "2", "--rate", "1e-3"], 1),
        (["stats", "--images", "2", "--max-cycles", "100"], 1),
        (["fleet", "--images", "4", "--max-cycles", "100"], 1),
        # An output path under a regular file cannot be written: exit 2.
        (["load", "--rate", "9000", "--images", "2", "--json", "--out", "{blocked}"], 2),
        (["fleet", "--images", "4", "--rate", "1000", "--out", "{blocked}"], 2),
        (["check", "vgg:16:0.0625", "--out", "{blocked}"], 2),
        (["plan", "vgg:16:0.0625", "--out", "{blocked}"], 2),
        (["simulate", "--images", "2", "--prom", "{blocked}"], 2),
        # The disk fills while an existing --out is replaced: it stays as it was.
        (["check", "vgg:16:0.0625", "--out", "{existing}", "--force"], 2),
        # A deadlock (an undersized skip FIFO): the report names its root edge on stdout.
        (["stats", "--network", "resnet18", "--skip-capacity", "1", "--max-cycles", "200000"], 1),
    ],
)
def test_failure_paths_exit_with_at_most_one_line(argv, code, capsys, tmp_path, monkeypatch):
    """Aborted runs and unwritable outputs end in at most one stderr line, never a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    existing = tmp_path / "existing.json"
    if "{existing}" in argv:
        existing.write_text("old\n")

        def disk_full(*_args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", disk_full)
    paths = {"{blocked}": str(tmp_path / "blocker" / "out"), "{existing}": str(existing)}
    assert cli_main([paths.get(arg, arg) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err and err.count("\n") <= 1, err
    if argv[0] == "simulate" and code == 1:
        assert "ABORTED at the 50,000,000-cycle budget, 1 of 2 image(s) completed" in err
    if "--skip-capacity" in argv:
        assert "root bottleneck edge: 'maxpool->conv2_1.add1[1]'" in out
    # No temporary file, export or partial output is left behind.
    left = sorted(path.name for path in tmp_path.iterdir())
    assert left == (["blocker", "existing.json"] if "{existing}" in argv else ["blocker"]), left
    if "{existing}" in argv:
        assert existing.read_text() == "old\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fleet", "--mix", "vgg:16", "--images", "4", "--policy", "batch", "--batch", "0"],
        ["fleet", "--mix", "vgg:16", "--images", "0"],
        ["fleet", "--mix", "vgg:16", "--sweep", "--policies", "batch", "--batch", "0"],
        ["fleet", "--width", "0"],
        ["fleet", "--mix", "vgg:16:0"],
    ],
)
def test_fleet_refuses_malformed_input_before_profiling(argv, capsys, monkeypatch):
    """Without --rate the default rate profiles every replica: bad input must not get that far."""
    import repro.fleet

    def profile(*_args, **_kwargs):
        raise AssertionError("profiled a replica before refusing malformed input")

    monkeypatch.setattr(repro.fleet, "fleet_capacity_fps", profile)
    monkeypatch.setattr(repro.fleet, "default_rate_ladder", profile)
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["plan", "vgg:0"], "size must be >= 8, got 0"),
        (["plan", "alexnet:64:0"], "width must be > 0, got 0.0"),
        (["check", "vgg:16:0"], "width must be > 0, got 0.0"),
        (["check", "resnet18:4"], "size must be >= 8, got 4"),
        (["plan", "vgg:16:-0.5"], "width must be > 0, got -0.5"),
    ],
)
def test_zero_size_or_width_is_refused_not_defaulted(argv, message, capsys):
    """A size or width of zero is malformed input, not a request for the default."""
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{argv[0]} {argv[1]}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["vgg:16:0.0625:9", "vgg:x"])
def test_fleet_mix_and_check_share_one_topology_parser(spec, capsys):
    """`fleet --mix` refuses a malformed spec with the words `check` uses."""
    assert cli_main(["check", spec]) == 2
    check_err = capsys.readouterr().err
    assert cli_main(["fleet", "--mix", spec, "--plan-dfes"]) == 2
    fleet_err = capsys.readouterr().err
    want = "want name[:size[:width]] with an integer size and a numeric width\n"
    assert check_err.endswith(want) and fleet_err.endswith(want)


def _leap_lines(text):
    return [line for line in text.splitlines() if line.startswith("leap: ")]


class TestSimulateLeapDemotion:
    def test_open_loop_leap_warns_with_reason(self, capsys):
        # An open-loop arrival schedule makes the run solved whole, not
        # extended by its period; the report's one stdout line says why.
        rc = cli_main(["simulate", "--images", "2", "--rate", "9000"])
        assert rc == 0
        captured = capsys.readouterr()
        (line,) = _leap_lines(captured.out)
        assert line.startswith("leap: solved whole: open-loop")
        assert captured.err == ""

    def test_json_leap_warns_and_names_telemetry(self, capsys):
        # --json attaches telemetry, whose samples cover every image: the
        # run is solved whole, and the report line, on stderr since stdout
        # carries the JSON, names the cause.
        rc = cli_main(["simulate", "--images", "2", "--json"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == "leap: solved whole: telemetry is attached\n"
        assert json.loads(captured.out)["stats"]["images"] == 2

    def test_closed_loop_leap_does_not_warn(self, capsys):
        rc = cli_main(["simulate", "--images", "8"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        (line,) = _leap_lines(captured.out)
        assert line.startswith("leap: extended the solved prefix by 4 image(s)")

    def test_open_loop_rate_without_leap_mode_is_quiet(self, capsys):
        rc = cli_main(["simulate", "--images", "2", "--rate", "9000", "--exhaustive"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _leap_lines(captured.out) == ["leap: the engine ticked the run: mode='exhaustive'"]

    def test_exhaustive_prints_the_same_cycles_as_the_default(self, capsys):
        """``--exhaustive`` ticks the reference loop; every line but the report's is the same."""
        outs = []
        for extra in ([], ["--exhaustive"]):
            assert cli_main(["simulate", "--images", "8", *extra]) == 0
            outs.append(capsys.readouterr().out.splitlines())
        solved, ticked = outs
        assert solved[0] == ticked[0] and "19,798 cycles" in solved[0]
        assert [line for line in solved if not line.startswith("leap: ")] == [
            line for line in ticked if not line.startswith("leap: ")
        ]
        assert _leap_lines("\n".join(ticked)) == ["leap: the engine ticked the run: mode='exhaustive'"]

    def test_mode_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["simulate", "--mode", "fast"])
        assert info.value.code == 2
        assert "--mode" in capsys.readouterr().err


class TestTraceOverwriteGuard:
    def test_trace_refuses_existing_out(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        out.write_text("{}")
        rc = cli_main(["trace", "--out", str(out)])
        assert rc == 2
        assert "--force" in capsys.readouterr().err
        assert out.read_text() == "{}"

    def test_trace_force_overwrites(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        out.write_text("{}")
        rc = cli_main(["trace", "--out", str(out), "--force"])
        assert rc == 0
        assert out.read_text() != "{}"


class TestTop:
    def test_plain_dashboard_runs(self, capsys):
        """``repro top`` prints one frame of the finished run."""
        rc = cli_main(["top", "--images", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("repro top") == 1
        assert out.count("run complete") == 1
        assert "utilization" in out
        assert "\x1b[" not in out


class TestStats:
    def test_healthy_run_reports_ok(self, capsys):
        rc = cli_main(["stats", "--images", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stall-adjusted utilization" in out
        assert "FPS" in out

    def test_fault_injected_skip_names_root_edge(self, capsys):
        rc = cli_main(
            [
                "stats",
                "--network",
                "resnet18",
                "--skip-capacity",
                "8",
                "--max-cycles",
                "50000",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "root bottleneck edge" in out
        assert "minimum safe capacity" in out

    def test_deadlock_attribution_never_ticks(self, capsys, monkeypatch):
        """At the default 10M budget the deadlock is solved to its abort, not ticked."""
        from repro.dataflow.engine import Engine

        def refuse(self, *args, **kwargs):
            raise AssertionError("the engine ticked")

        monkeypatch.setattr(Engine, "run", refuse)
        rc = cli_main(["stats", "--network", "resnet18", "--skip-capacity", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "ABORTED (deadlock or budget) after 10,000,000 cycles" in out
        assert "root bottleneck edge" in out

    def test_skip_capacity_on_chain_topology_rejected(self, capsys):
        rc = cli_main(["stats", "--network", "vgg", "--skip-capacity", "4"])
        assert rc == 2
        assert "no adders" in capsys.readouterr().err
