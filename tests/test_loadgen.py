"""Open-loop load generation: schedules, determinism, sweeps, SLO gating."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.dataflow import CycleBudgetExceeded
from repro.models import direct_vgg_graph
from repro.telemetry import (
    fixed_rate_schedule,
    make_schedule,
    poisson_schedule,
    run_load,
    spawn_poisson_schedules,
    sweep,
)
from repro.telemetry.loadgen import _queue_depth_peak, cycles_per_image
from tests.conftest import inject_maxpool_fault


def _graph():
    return direct_vgg_graph(16, width=0.0625, classes=4)


def _images(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(n, 16, 16, 3))


class TestSchedules:
    def test_cycles_per_image(self):
        assert cycles_per_image(105e6) == 1.0
        assert cycles_per_image(1000.0) == 105_000.0
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cycles_per_image(rate)

    def test_fixed_rate_is_a_metronome(self):
        sched = fixed_rate_schedule(4, 1000.0)
        assert sched.cycles == [0, 105_000, 210_000, 315_000]
        assert sched.kind == "fixed" and sched.seed is None

    def test_poisson_is_deterministic_per_seed(self):
        a = poisson_schedule(16, 5000.0, seed=42)
        b = poisson_schedule(16, 5000.0, seed=42)
        c = poisson_schedule(16, 5000.0, seed=43)
        assert a.cycles == b.cycles
        assert a.cycles != c.cycles
        assert a.cycles[0] == 0
        assert all(x <= y for x, y in zip(a.cycles, a.cycles[1:]))

    def test_poisson_accepts_injected_rng(self):
        rng = np.random.default_rng(7)
        via_rng = poisson_schedule(8, 2000.0, seed=999, rng=rng)
        direct = poisson_schedule(8, 2000.0, seed=7)
        assert via_rng.cycles == direct.cycles  # seed is ignored when rng given

    def test_spawned_replica_streams_are_decorrelated(self):
        # Seeding N replicas with one shared integer replays the identical
        # gap sequence everywhere — lockstep queues that understate fleet
        # queueing.  SeedSequence.spawn children must (a) stay deterministic,
        # (b) differ pairwise, and (c) carry no pairwise gap correlation.
        n, images, rate = 4, 64, 5_000.0
        streams = spawn_poisson_schedules(n, images, rate, seed=42)
        again = spawn_poisson_schedules(n, images, rate, seed=42)
        assert [s.cycles for s in streams] == [s.cycles for s in again]
        for i in range(n):
            for j in range(i + 1, n):
                assert streams[i].cycles != streams[j].cycles
                gaps_i = np.diff(streams[i].cycles).astype(float)
                gaps_j = np.diff(streams[j].cycles).astype(float)
                corr = np.corrcoef(gaps_i, gaps_j)[0, 1]
                assert abs(corr) < 0.35, f"replicas {i},{j} correlated: r={corr:.3f}"
        # The naive shared-seed construction is exactly the lockstep bug.
        naive = [poisson_schedule(images, rate, seed=42) for _ in range(n)]
        assert naive[0].cycles == naive[1].cycles

    def test_spawn_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            spawn_poisson_schedules(0, 4, 100.0, seed=1)

    def test_rate_whose_arrivals_overflow_the_cycle_count_is_refused(self):
        """A ValueError up front, not an OverflowError from rounding or a 64-bit cast later."""
        for process in ("fixed", "poisson"):
            with pytest.raises(ValueError, match="64-bit cycle count"):
                make_schedule(2, 1e-300, process, seed=1)
        with pytest.raises(ValueError, match="64-bit cycle count"):
            fixed_rate_schedule(2, 1e-12)
        # Arrivals up to the limit still fit, and one image never overflows.
        assert fixed_rate_schedule(2, 105e6 / 2**62).cycles == [0, 2**62]
        assert fixed_rate_schedule(1, 1e-300).cycles == [0]
        assert make_schedule(2, 1e-3, "poisson", seed=1).cycles[0] == 0

    def test_make_schedule_dispatch(self):
        assert make_schedule(3, 100.0, "fixed").kind == "fixed"
        assert make_schedule(3, 100.0, "poisson", seed=1).kind == "poisson"
        with pytest.raises(ValueError):
            make_schedule(3, 100.0, "uniform")


def _queue_depth_peak_by_scan(schedule, admissions):
    """The quadratic definition: per admission, count every arrival at or before it."""
    peak = 0
    for i, admitted_at in enumerate(admissions):
        arrived = sum(1 for a in schedule.cycles if a <= admitted_at)
        peak = max(peak, arrived - (i + 1))
    return peak


@pytest.mark.parametrize("seed", range(12))
def test_queue_depth_peak_matches_the_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    schedule = poisson_schedule(n, float(rng.choice([1e3, 2e4, 1e6])), seed=seed)
    # Admissions never precede their arrival; an aborted run admits a prefix.
    waits = rng.integers(0, 30_000, size=n)
    admissions = np.maximum.accumulate(np.asarray(schedule.cycles) + waits).tolist()
    admissions = admissions[: int(rng.integers(0, n + 1))]
    assert _queue_depth_peak(schedule, admissions) == _queue_depth_peak_by_scan(
        schedule, admissions
    )


class TestRunLoad:
    def test_bit_identical_across_runs_and_schedulers(self):
        kwargs = dict(rate_fps=20_000.0, process="poisson", seed=11)
        first = run_load(_graph(), _images(), **kwargs)
        again = run_load(_graph(), _images(), **kwargs)
        exhaustive = run_load(_graph(), _images(), mode="exhaustive", **kwargs)
        assert first.as_dict() == again.as_dict()
        assert first.as_dict() == exhaustive.as_dict()

    def test_underload_achieves_offered_rate(self):
        result = run_load(_graph(), _images(), rate_fps=2_000.0)
        assert not result.aborted
        assert result.achieved_fps == pytest.approx(2_000.0, rel=0.01)
        assert result.report.queue_wait.max == 0
        assert result.queue_depth_peak == 0

    def test_overload_saturates_and_queues(self):
        result = run_load(_graph(), _images(n=6), rate_fps=10**8)
        assert not result.aborted
        assert result.achieved_fps < result.offered_fps / 2
        assert result.report.queue_wait.max > 0
        assert result.queue_depth_peak > 0
        assert "offered" in result.render() and "achieved" in result.render()

    def test_budget_abort_keeps_completed_images(self):
        full = run_load(_graph(), _images(), rate_fps=2_000.0)
        budget = full.report.records[1].completion + 1
        result = run_load(_graph(), _images(), rate_fps=2_000.0, max_cycles=budget)
        assert result.aborted and "no convergence" in result.abort_message
        assert result.cycles == budget
        assert result.report.records == full.report.records[:2]
        assert result.slo_violated(10**9)

    def test_kernel_fault_propagates(self, monkeypatch):
        inject_maxpool_fault(monkeypatch)
        with pytest.raises(RuntimeError, match="injected max-pool fault") as info:
            run_load(_graph(), _images(), rate_fps=2_000.0)
        assert not isinstance(info.value, CycleBudgetExceeded)

    def test_slo_verdicts(self):
        result = run_load(_graph(), _images(), rate_fps=2_000.0)
        p99 = result.report.sojourn.p99
        assert p99 is not None
        assert not result.slo_violated(p99)
        assert result.slo_violated(p99 - 1)
        # Overload shows up in sojourn even though service stays flat.
        overload = run_load(_graph(), _images(n=6), rate_fps=10**8)
        service_p99 = overload.report.service.p99
        assert service_p99 is not None
        assert overload.slo_violated(service_p99 + 100)


class TestSweep:
    def test_curve_schema_and_points(self):
        rates = [500.0, 5_000.0, 50_000.0]
        payload = sweep(_graph(), _images(), rates, seed=5)
        assert payload["schema"] == "repro-load-sweep/1"
        assert [p["offered_fps"] for p in payload["points"]] == rates
        for point in payload["points"]:
            assert point["images_completed"] == 5
            assert point["p99_cycles"] >= point["p50_cycles"] > 0
            assert not point["aborted"]
        # Achieved FPS is monotone non-decreasing along the offered ladder
        # until saturation; the highest rate cannot beat its offer.
        achieved = [p["achieved_fps"] for p in payload["points"]]
        assert achieved[0] <= achieved[-1]
        json.dumps(payload)  # must be JSON-serialisable as-is

    def test_empty_rate_ladder_rejected(self):
        with pytest.raises(ValueError):
            sweep(_graph(), _images(), [])


class TestCli:
    def test_load_deterministic_and_json(self, capsys):
        argv = ["load", "--rate", "9000", "--images", "4", "--seed", "2",
                "--process", "poisson", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["schema"] == "repro-load/1"
        assert first["latency"]["service_cycles"]["p99"] == second["latency"]["service_cycles"]["p99"]

    def test_out_implies_json(self, tmp_path, capsys):
        argv = ["load", "--rate", "9000", "--images", "2"]
        assert main(argv + ["--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        out = tmp_path / "x.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert f"wrote load result to {out}" in capsys.readouterr().out
        assert json.loads(out.read_text()) == printed

    @pytest.mark.parametrize("sweep", [False, True])
    def test_out_into_a_missing_directory(self, tmp_path, capsys, sweep):
        out = tmp_path / "nodir" / "x.json"
        rates = ["--sweep", "1000", "9000"] if sweep else ["--rate", "9000", "--json"]
        assert main(["load", *rates, "--images", "2", "--out", str(out)]) == 0
        schema = "repro-load-sweep/1" if sweep else "repro-load/1"
        assert json.loads(out.read_text())["schema"] == schema

    def test_load_requires_a_rate(self, capsys):
        assert main(["load", "--images", "2"]) == 2
        assert "--rate" in capsys.readouterr().err

    def test_slo_gate_exit_codes(self, capsys):
        ok = main(["load", "--rate", "2000", "--images", "3", "--slo-p99-cycles", "100000"])
        assert ok == 0
        # Fault injection: an offered rate the tiny pipeline cannot sustain
        # blows the p99 budget and the gate exits non-zero.
        bad = main(
            ["load", "--rate", "100000000", "--images", "6", "--slo-p99-cycles", "4000"]
        )
        assert bad == 1
        assert "SLO VIOLATION" in capsys.readouterr().err

    def test_sweep_writes_json_and_respects_force(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        argv = ["load", "--sweep", "1000", "20000", "--images", "3", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-load-sweep/1"
        assert len(payload["points"]) == 2
        capsys.readouterr()
        assert main(argv) == 2  # refuses to overwrite
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0
