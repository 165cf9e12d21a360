"""Fleet simulator: ingress sharing, routing policies, invariants, CLI.

The three invariants the issue pins down:

* conservation — every admitted request completes exactly once, for every
  policy and replica count;
* JSQ dominates RR on deterministic traffic into a heterogeneous fleet
  (queue-aware routing cannot lose to blind alternation there);
* the serial reference path and the multiprocessing worker pool produce
  byte-identical fleet reports for the same seed.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dataflow import CycleBudgetExceeded
from repro.dataflow.links import LinkSpec
from repro.fleet import (
    FleetConfig,
    ReplicaSpec,
    ReplicaState,
    SharedIngress,
    default_rate_ladder,
    fleet_capacity_fps,
    fleet_sweep,
    make_router,
    min_replicas_for_slo,
    parse_mix,
    plan_fleet,
    profile_replica,
    simulate_fleet,
)
from tests.conftest import inject_maxpool_fault

FAST = ReplicaSpec("vgg", 16, width=0.0625)
SLOW = ReplicaSpec("vgg", 16, width=0.25)


def _config(**overrides):
    defaults = dict(replicas=[FAST, FAST], rate_fps=20_000.0, n_requests=8, policy="rr", seed=3)
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestIngress:
    def test_transfer_cycles_is_image_bits_over_link_rate(self):
        ingress = SharedIngress()
        spec = FAST.graph().input_spec
        # 16x16x3 two-bit pixels over PCIe Gen2 x8 at 105 MHz:
        # 1536 bits / (32000/105 bits-per-cycle) -> 6 whole cycles.
        assert spec.elements * spec.stream_bits == 1536
        assert ingress.bits_per_cycle() == pytest.approx(32_000.0 / 105.0)
        assert ingress.transfer_cycles(spec) == 6

    def test_fifo_serialization_and_link_latency(self):
        ingress = SharedIngress(link=LinkSpec(name="slow", bandwidth_gbps=0.001, latency_cycles=10))
        spec = FAST.graph().input_spec
        cycles = ingress.transfer_cycles(spec)
        assert cycles > 1  # the link is slow enough to congest
        first = ingress.admit(0, 0, spec)
        second = ingress.admit(1, 1, spec)  # arrives while the link is busy
        assert first.start == 0 and first.done == cycles
        assert second.start == first.done  # queued behind the first transfer
        assert second.wait_cycles == first.done - 1
        assert first.fabric_arrival == first.done + 10
        assert 0.0 < ingress.utilization() <= 1.0

    def test_rejects_out_of_order_admission(self):
        ingress = SharedIngress()
        spec = FAST.graph().input_spec
        ingress.admit(0, 100, spec)
        with pytest.raises(ValueError):
            ingress.admit(1, 99, spec)


class TestRouter:
    def _states(self, n=3):
        return [ReplicaState(index=i, latency_cycles=100, interval_cycles=10.0) for i in range(n)]

    def test_round_robin_cycles(self):
        router = make_router("rr")
        states = self._states()
        assert [router.choose(i, 0, states) for i in range(5)] == [0, 1, 2, 0, 1]

    def test_jsq_picks_least_outstanding_with_index_tiebreak(self):
        router = make_router("jsq")
        states = self._states()
        assert router.choose(0, 0, states) == 0  # all empty -> lowest index
        states[0].on_dispatch(0)
        states[1].on_dispatch(0)
        assert router.choose(1, 0, states) == 2
        # Virtual completions drain the queue: past busy_until, 0 is empty again.
        assert router.choose(2, 10_000, states) == 0

    def test_batch_reroutes_only_at_batch_boundaries(self):
        router = make_router("batch", batch=3)
        states = self._states(2)
        picks = []
        for i in range(6):
            choice = router.choose(i, 0, states)
            states[choice].on_dispatch(0)
            picks.append(choice)
        assert picks == [0, 0, 0, 1, 1, 1]

    def test_first_image_pays_fill_latency_then_interval(self):
        state = ReplicaState(index=0, latency_cycles=100, interval_cycles=10.0)
        state.on_dispatch(0)
        assert state.busy_until == 100.0
        state.on_dispatch(0)
        assert state.busy_until == 110.0
        assert state.outstanding(99) == 2
        assert state.outstanding(110) == 0

    def test_static_has_no_router(self):
        with pytest.raises(ValueError):
            make_router("static")
        with pytest.raises(ValueError):
            make_router("lifo")
        with pytest.raises(ValueError):
            make_router("batch", batch=0)


class TestSpecs:
    def test_parse_mix_with_defaults(self):
        specs = parse_mix("vgg:16:0.0625,resnet18:16, vgg")
        assert specs[0] == FAST
        assert specs[1] == ReplicaSpec("resnet18", 16, width=0.0625)
        assert specs[2] == ReplicaSpec("vgg", 16, width=0.0625)

    def test_rejects_unknown_family_and_bad_size(self):
        with pytest.raises(ValueError):
            ReplicaSpec("lenet", 16)
        with pytest.raises(ValueError):
            ReplicaSpec("vgg", 4)
        with pytest.raises(ValueError):
            parse_mix("vgg,,resnet18")

    def test_parse_mix_refuses_what_check_refuses(self):
        for mix in ("vgg:16:0.0625:9", "vgg:x", "vgg:16,vgg:16:y"):
            with pytest.raises(ValueError, match=r"want name\[:size\[:width\]\]"):
                parse_mix(mix)

    def test_profile_is_deterministic_and_cached(self):
        first = profile_replica(FAST)
        again = profile_replica(FAST)
        assert first == again
        latency, interval = first
        assert latency > 0 and interval is not None and interval > 0
        assert fleet_capacity_fps([FAST, FAST]) == pytest.approx(2 * 105e6 / interval)

    def test_overflowing_rate_is_refused_before_profiling(self, monkeypatch):
        """Arrivals past the 64-bit cycle count, under a shared or a static schedule."""
        import repro.fleet.fleet as fleet_module

        def profile(_spec):
            raise AssertionError("profiled a replica before refusing the rate")

        monkeypatch.setattr(fleet_module, "profile_replica", profile)
        for policy, process in (("rr", "fixed"), ("static", "poisson")):
            with pytest.raises(ValueError, match="64-bit cycle count"):
                plan_fleet(_config(policy=policy, process=process, rate_fps=1e-300))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(replicas=[])
        with pytest.raises(ValueError):
            _config(policy="fifo")
        with pytest.raises(ValueError):
            _config(n_requests=0)
        with pytest.raises(ValueError):
            _config(rate_fps=0.0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                _config(rate_fps=rate)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            _config(workers=-1)
        # static pre-partitions Poisson streams; fixed arrivals make no sense.
        with pytest.raises(ValueError):
            _config(policy="static", process="fixed")
        for policy in ("batch", "rr"):  # checked for every policy, before any routing
            with pytest.raises(ValueError, match="batch must be >= 1, got 0"):
                _config(policy=policy, batch=0)


class TestConservation:
    @pytest.mark.parametrize("policy", ["rr", "jsq", "batch", "static"])
    @pytest.mark.parametrize("n_replicas", [1, 3])
    def test_every_request_completes_exactly_once(self, policy, n_replicas):
        config = _config(
            replicas=[FAST] * n_replicas,
            n_requests=7,
            policy=policy,
            process="poisson" if policy == "static" else "fixed",
        )
        report = simulate_fleet(config)
        agg = report.aggregate
        assert agg["conserved"] and agg["completed"] == 7
        # The plan's assignments partition the global request index space.
        routed = sorted(i for reqs in report.plan.assignments for i in reqs)
        assert routed == list(range(7))
        for r, rep in enumerate(report.replicas):
            assert rep["n_completed"] == rep["n_dispatched"] == len(report.plan.assignments[r])

    def test_plan_fabric_arrivals_are_non_decreasing_per_replica(self):
        plan = plan_fleet(_config(policy="jsq", n_requests=10, rate_fps=50_000.0))
        for arrivals in plan.fabric_arrivals:
            assert all(x <= y for x, y in zip(arrivals, arrivals[1:]))


class TestJsqDominatesRr:
    def test_heterogeneous_fleet_deterministic_traffic(self):
        # A fast and a slow replica (4x width => ~4x the steady-state
        # interval).  Offered fixed-rate traffic exceeds twice the slow
        # replica's capacity, so blind alternation overloads it while the
        # fast replica idles; queue-aware JSQ shifts load and must win.
        _, slow_interval = profile_replica(SLOW)
        slow_capacity = 105e6 / slow_interval
        rate = 2.6 * slow_capacity
        kwargs = dict(replicas=[SLOW, FAST], rate_fps=rate, n_requests=12, process="fixed", seed=0)
        rr = simulate_fleet(FleetConfig(policy="rr", **kwargs))
        jsq = simulate_fleet(FleetConfig(policy="jsq", **kwargs))
        assert rr.aggregate["conserved"] and jsq.aggregate["conserved"]
        assert jsq.aggregate["sojourn_cycles"]["p99"] < rr.aggregate["sojourn_cycles"]["p99"]
        assert jsq.aggregate["sojourn_cycles"]["max"] < rr.aggregate["sojourn_cycles"]["max"]
        # JSQ routes the bulk of the traffic away from the slow replica.
        assert len(jsq.plan.assignments[0]) < len(rr.plan.assignments[0])


class TestByteIdentity:
    @pytest.mark.parametrize("policy", ["jsq", "static"])
    def test_serial_and_pool_reports_are_byte_identical(self, policy):
        kwargs = dict(
            replicas=[FAST, FAST, FAST],
            rate_fps=30_000.0,
            n_requests=6,
            policy=policy,
            process="poisson",
            seed=11,
        )
        serial = simulate_fleet(FleetConfig(workers=0, **kwargs))
        pooled = simulate_fleet(FleetConfig(workers=2, **kwargs))
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            pooled.as_dict(), sort_keys=True
        )

    def test_budget_abort_is_a_partial_byte_identical_report(self):
        kwargs = dict(replicas=[FAST, FAST], rate_fps=20_000.0, n_requests=8, seed=3, max_cycles=20_000)
        serial = simulate_fleet(FleetConfig(workers=0, **kwargs))
        pooled = simulate_fleet(FleetConfig(workers=2, **kwargs))
        assert json.dumps(serial.as_dict()) == json.dumps(pooled.as_dict())
        aborted = [rep for rep in serial.replicas if rep["aborted"]]
        assert aborted and not serial.aggregate["conserved"]
        for rep in aborted:
            assert rep["output_checksum"] is None and rep["cycles"] == 20_000
            assert "no convergence" in rep["abort_message"]
        assert 0 < serial.aggregate["completed"] < 8

    def test_kernel_fault_propagates(self, monkeypatch):
        config = _config()
        plan = plan_fleet(config)
        inject_maxpool_fault(monkeypatch)
        with pytest.raises(RuntimeError, match="injected max-pool fault") as info:
            simulate_fleet(config, plan)
        assert not isinstance(info.value, CycleBudgetExceeded)

    def test_reruns_are_deterministic(self):
        first = simulate_fleet(_config(policy="jsq", process="poisson"))
        again = simulate_fleet(_config(policy="jsq", process="poisson"))
        assert json.dumps(first.as_dict()) == json.dumps(again.as_dict())


class TestSchemasAndCapacity:
    def test_report_schema_and_serialisability(self):
        report = simulate_fleet(_config())
        payload = report.as_dict()
        assert payload["schema"] == "repro-fleet/1"
        assert len(payload["replicas"]) == 2
        for rep in payload["replicas"]:
            assert rep["profile"]["interval_cycles"] > 0
        assert payload["aggregate"]["conserved"]
        json.dumps(payload)  # must be JSON-clean as-is
        assert "fleet [rr]" in report.render()

    def test_sweep_emits_one_frontier_per_policy(self):
        rates = [10_000.0, 60_000.0]
        payload = fleet_sweep(_config(n_requests=5), rates, policies=["rr", "jsq"])
        assert payload["schema"] == "repro-fleet-sweep/1"
        assert set(payload["policies"]) == {"rr", "jsq"}
        for frontier in payload["policies"].values():
            assert [p["offered_fps"] for p in frontier["points"]] == rates
            # Latency-throughput shape: sojourn p99 grows with offered rate.
            p99s = [p["p99_sojourn_cycles"] for p in frontier["points"]]
            assert p99s[0] <= p99s[-1]
        json.dumps(payload)
        with pytest.raises(ValueError):
            fleet_sweep(_config(), [])

    def test_default_ladder_brackets_capacity(self):
        ladder = default_rate_ladder([FAST, FAST])
        capacity = fleet_capacity_fps([FAST, FAST])
        assert ladder == sorted(ladder)
        assert ladder[0] < capacity < ladder[-1]

    def test_min_replicas_walks_until_slo_holds(self):
        # At ~1.4x one replica's capacity with a tight SLO, one replica
        # queues past the budget and two absorb the load.
        _, interval = profile_replica(FAST)
        capacity = 105e6 / interval
        latency, _ = profile_replica(FAST)
        config = _config(replicas=[FAST], rate_fps=1.4 * capacity, n_requests=12, policy="jsq", seed=0)
        answer = min_replicas_for_slo(config, int(latency + 2 * interval), max_replicas=4)
        assert answer["schema"] == "repro-fleet-capacity/1"
        assert answer["min_replicas"] == 2
        assert [t["replicas"] for t in answer["trail"]] == [1, 2]
        assert not answer["trail"][0]["satisfied"] and answer["trail"][1]["satisfied"]

    def test_unreachable_slo_reports_none(self):
        config = _config(replicas=[FAST], rate_fps=5_000.0, n_requests=4, policy="jsq", seed=0)
        answer = min_replicas_for_slo(config, 1, max_replicas=2)
        assert answer["min_replicas"] is None
        assert len(answer["trail"]) == 2


class TestCli:
    def test_fleet_json_is_deterministic(self, capsys):
        argv = [
            "fleet", "--replicas", "2", "--policy", "jsq", "--rate", "20000",
            "--images", "4", "--seed", "2", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["schema"] == "repro-fleet/1"
        assert first["aggregate"]["conserved"]

    def test_fleet_render_and_slo_gate(self, capsys):
        ok = main(["fleet", "--replicas", "2", "--rate", "20000", "--images", "4",
                   "--slo-p99-cycles", "100000"])
        assert ok == 0
        assert "fleet [rr]" in capsys.readouterr().out
        bad = main(["fleet", "--replicas", "1", "--rate", "20000", "--images", "4",
                    "--slo-p99-cycles", "10"])
        assert bad == 1
        assert "SLO VIOLATION" in capsys.readouterr().err

    def test_fleet_sweep_writes_frontier_json(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        argv = ["fleet", "--replicas", "2", "--images", "3", "--sweep", "10000", "40000",
                "--policies", "rr", "jsq", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-fleet-sweep/1"
        assert set(payload["policies"]) == {"rr", "jsq"}
        capsys.readouterr()
        assert main(argv) == 2  # refuses to overwrite
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0

    def test_find_capacity_requires_rate_and_slo(self, capsys):
        assert main(["fleet", "--find-capacity", "--slo-p99-cycles", "10000"]) == 2
        assert "--rate" in capsys.readouterr().err
        assert main(["fleet", "--find-capacity", "--rate", "20000"]) == 2
        assert "--slo-p99-cycles" in capsys.readouterr().err

    def test_find_capacity_answers(self, capsys):
        assert main(["fleet", "--find-capacity", "--rate", "20000", "--images", "4",
                     "--slo-p99-cycles", "100000", "--max-replicas", "2"]) == 0
        out = capsys.readouterr().out
        assert "capacity [rr]" in out and "R=1" in out

    def test_find_capacity_honours_the_cycle_budget(self, capsys):
        """A budget no replica finishes in leaves the SLO unmet at every count."""
        argv = ["fleet", "--find-capacity", "--rate", "20000", "--images", "4",
                "--slo-p99-cycles", "100000", "--max-replicas", "2", "--max-cycles", "10", "--json"]
        assert main(argv) == 1
        answer = json.loads(capsys.readouterr().out)
        assert answer["min_replicas"] is None
        assert [step["satisfied"] for step in answer["trail"]] == [False, False]

    def test_find_capacity_passes_the_config_on(self, capsys, monkeypatch):
        """Every trial runs the flags' config, ``--batch`` and ``--max-cycles`` included."""
        import repro.fleet.fleet as fleet_mod

        configs = []
        simulate = fleet_mod.simulate_fleet
        monkeypatch.setattr(fleet_mod, "simulate_fleet", lambda config: configs.append(config) or simulate(config))
        assert main(["fleet", "--find-capacity", "--rate", "20000", "--images", "4", "--policy", "batch",
                     "--batch", "2", "--max-cycles", "1000000", "--slo-p99-cycles", "1",
                     "--max-replicas", "2"]) == 1
        assert [len(config.replicas) for config in configs] == [1, 2]
        assert {(config.batch, config.max_cycles, config.policy) for config in configs} == {
            (2, 1_000_000, "batch")
        }

    def test_find_capacity_refuses_a_mixed_fleet(self, capsys):
        assert main(["fleet", "--find-capacity", "--mix", "vgg:16,vgg:16:0.25", "--rate", "20000",
                     "--slo-p99-cycles", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "--mix" in captured.err
        assert captured.out == ""
        with pytest.raises(ValueError, match="one replica spec"):
            min_replicas_for_slo(_config(replicas=[FAST, SLOW]), 100_000)

    def test_bad_mix_exits_cleanly(self, capsys):
        assert main(["fleet", "--mix", "lenet:28", "--rate", "1000", "--images", "2"]) == 2
        assert "lenet" in capsys.readouterr().err
