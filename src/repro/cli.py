"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce [--quick] [EXP_ID ...]``
    Regenerate the paper's tables/figures (default: all of them).
``report NETWORK [--size N] [--device stratix5|stratix10]``
    Full design report (resources / partition / timing / power / GPU
    baseline) for ``vgg``, ``alexnet`` or ``resnet18``.
``simulate [--size N] [--images M] [--exhaustive] [--json] [--prom F] [--snapshot F]``
    Train nothing, build a tiny random-threshold network, stream images
    through the cycle-accurate simulator and print the pipeline waterfall
    (or, with ``--json``, a machine-readable telemetry snapshot).  The run
    is solved from the kernels' op recurrences, and one line reports how
    far the certified period extended the solved prefix or why it did
    not; ``--exhaustive`` ticks the reference loop instead, bit-identical.
    ``--json``, ``--prom`` and ``--snapshot`` attach telemetry, whose
    samples cover every image, so the run is solved whole (with ``--json``
    the report line goes to stderr).
``trace [--size N] [--images M] [--out trace.json] [--force]``
    Stream a network with event tracing enabled and write the full
    cycle-exact event log as Chrome-trace JSON (load it at
    https://ui.perfetto.dev or chrome://tracing).
``top [--size N] [--images M] [--every N]``
    Dashboard: kernel utilization bars, FIFO occupancy and throughput of
    the finished run, printed once.
``load [--rate FPS] [--process fixed|poisson] [--sweep R ...] [--json]``
    Open-loop load generation: stream images at a target offered rate
    (deterministic seeded arrivals), report offered vs achieved FPS and
    exact p50/p95/p99/max latency, optionally gate on a p99 SLO
    (``--slo-p99-cycles``, exits non-zero on violation) or sweep a rate
    ladder into a FINN-style latency-throughput JSON curve.
``stats [--network vgg|resnet18] [--skip-capacity N]``
    Bottleneck attribution: kernels ranked by stall-adjusted utilization,
    the starving/back-pressuring edge for each, and the paper summary
    (II, FPS, link budget, BRAM waste).  ``--skip-capacity`` injects
    undersized skip FIFOs to demonstrate deadlock attribution.
``check [TOPOLOGY ...] [--multi-dfe] [--strict] [--graph-only] [--json]``
    Statically verify pipelines without simulating a cycle: graph
    well-formedness, stream bitwidth contracts, §III-B5 skip buffer
    sizing (exact solver), link feasibility, BRAM geometry.  Topologies
    are ``name[:size[:width]]`` with name in vgg/alexnet/resnet18.
    ``--json`` emits the machine-readable ``repro-check/1`` reports;
    ``--plan`` verifies the partition planner's winner instead of the
    greedy ``--multi-dfe`` cut.
``plan TOPOLOGY [--objective min-dfes|min-latency] [--fill-cap F]``
    Static partition planning: search the multi-DFE cut space (DP for
    chains, branch-and-bound under skip constraints), score candidates
    with the verifier's feasibility rules and resource ledgers, and emit
    the winning ``repro-plan/1`` plan with its exact predicted interval.
    ``--check`` re-verifies the winner strictly; ``--simulate`` streams
    images through the planned partition and asserts the measured
    interval equals the prediction bit-for-bit.
``list``
    List available experiment ids.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _out_exists(args: argparse.Namespace) -> bool:
    """True, with a note on stderr, when an output file (``--out``, ``--prom``, ``--snapshot``)
    exists and ``--force`` was not given."""
    for path in (getattr(args, name, None) for name in ("out", "prom", "snapshot")):
        if path and Path(path).exists() and not args.force:
            print(f"{path} exists; pass --force to overwrite", file=sys.stderr)
            return True
    return False


class _Unwritable(Exception):
    """An output file (``--out``, ``--prom``, ``--snapshot``) could not be written: exit 2."""


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating its parent directories.

    The text goes to a temporary file beside ``path`` that then replaces
    it, so a failed write leaves an existing file as it was.  Any
    ``OSError`` becomes :class:`_Unwritable`, which :func:`main` reports
    in one line.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(text)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc}") from exc


def _emit(args: argparse.Namespace, text: str, what: str) -> None:
    """Write ``text`` to ``--out`` (and say so on stdout), or print it."""
    if args.out:
        _write(args.out, text if text.endswith("\n") else text + "\n")
        print(f"wrote {what} to {args.out}")
    else:
        print(text)


def _mode(args: argparse.Namespace) -> str:
    """The scheduler an ``--exhaustive`` flag selects."""
    return "exhaustive" if args.exhaustive else "leap"


def _cmd_list(_args: argparse.Namespace) -> int:
    from .eval import EXPERIMENTS

    for exp_id in EXPERIMENTS:
        print(exp_id)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .eval import EXPERIMENTS, run_experiment

    exp_ids = args.experiments or list(EXPERIMENTS)
    for exp_id in exp_ids:
        result = run_experiment(exp_id, quick=args.quick)
        print(result.render())
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .hardware import STRATIX_10_PROJECTION, STRATIX_V_5SGSD8
    from .hardware.report import build_design_report
    from .models import direct_alexnet_graph, direct_resnet18_graph, direct_vgg_graph

    device = STRATIX_10_PROJECTION if args.device == "stratix10" else STRATIX_V_5SGSD8
    try:
        if args.network == "vgg":
            graph = direct_vgg_graph(32 if args.size is None else args.size, pool_to=4)
        elif args.network == "alexnet":
            graph = direct_alexnet_graph(224 if args.size is None else args.size)
        else:
            graph = direct_resnet18_graph(224 if args.size is None else args.size)
    except ValueError as exc:
        print(f"report {args.network}: {exc}", file=sys.stderr)
        return 2
    print(build_design_report(graph, device=device).render())
    return 0


def _tiny_vgg(args: argparse.Namespace, min_images: int = 1):
    """The CLI's stock tiny network + input batch (simulate/trace/top/load)."""
    from .models import direct_vgg_graph

    if args.images < min_images:
        raise ValueError(f"--images must be >= {min_images}, got {args.images}")
    graph = direct_vgg_graph(args.size, width=0.0625, classes=4)
    rng = np.random.default_rng(args.seed)
    images = rng.integers(0, 4, size=(args.images, args.size, args.size, 3))
    return graph, images


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json

    from .dataflow import CycleBudgetExceeded, LayerTable, simulate
    from .dataflow.engine import DEFAULT_MAX_CYCLES
    from .dataflow.links import MAX4_FABRIC_MHZ

    try:
        graph, images = _tiny_vgg(args)
        telemetry = None
        if args.json or args.prom or args.snapshot:
            from .telemetry import Telemetry, run_manifest

            telemetry = Telemetry(sample_every=args.every)
            telemetry.manifest = run_manifest(graph, seed=args.seed, images=args.images)
        arrival_cycles = None
        if args.rate is not None:
            from .telemetry.loadgen import make_schedule

            arrival_cycles = make_schedule(
                int(images.shape[0]), args.rate, args.process, args.seed
            ).cycles
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if _out_exists(args):
        return 2

    try:
        run = simulate(
            graph, images, telemetry=telemetry, mode=_mode(args), arrival_cycles=arrival_cycles
        )
    except CycleBudgetExceeded as exc:
        assert exc.pipeline is not None
        done = len(exc.pipeline.sink.completion_cycles)
        print(
            f"simulate {graph.name}: ABORTED at the {DEFAULT_MAX_CYCLES:,}-cycle budget, "
            f"{done} of {args.images} image(s) completed",
            file=sys.stderr,
        )
        return 1
    if args.prom:
        assert telemetry is not None
        _write(args.prom, telemetry.export_prometheus())
    if args.snapshot:
        assert telemetry is not None
        _write(args.snapshot, json.dumps(telemetry.export_json(), indent=2) + "\n")
    if args.json:
        assert telemetry is not None
        print(run.leap_report.line(), file=sys.stderr)  # stdout carries the JSON
        payload = telemetry.export_json()
        stats: dict[str, object] = {
            "cycles": run.cycles,
            "latency_cycles": run.latency_cycles,
            "images": int(images.shape[0]),
            "initiation_interval_cycles": telemetry.last.get("initiation"),
        }
        interval = run.run.steady_state_interval
        if interval is not None:
            stats["steady_state_interval_cycles"] = interval
            stats["fps"] = MAX4_FABRIC_MHZ * 1e6 / interval
        payload["stats"] = stats
        print(json.dumps(payload, indent=2))
        return 0

    print(
        f"{args.images} image(s) through {graph.name}: {run.cycles:,} cycles; "
        f"latency {run.latency_cycles:,}"
    )
    interval = run.run.steady_state_interval
    if interval is not None:
        print(f"steady-state interval: {interval:,.0f} cycles/image")
    print(run.leap_report.line())
    print(LayerTable.of(run.pipeline).waterfall())
    if args.prom:
        print(f"wrote Prometheus exposition to {args.prom}")
    if args.snapshot:
        print(f"wrote telemetry snapshot to {args.snapshot}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .dataflow import LayerTable, Tracer, simulate

    try:
        graph, images = _tiny_vgg(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if _out_exists(args):
        return 2
    tracer = Tracer()
    run = simulate(graph, images, mode=_mode(args), trace=tracer)
    path = Path(args.out)
    _write(args.out, json.dumps(tracer.to_chrome_trace()) + "\n")
    print(
        f"{args.images} image(s) through {graph.name}: {run.cycles:,} cycles; "
        f"latency {run.latency_cycles:,}"
    )
    print(LayerTable.of(run.pipeline).waterfall())
    print(
        f"wrote {tracer.event_count():,} events ({path.stat().st_size:,} bytes) to {path} — "
        "open in https://ui.perfetto.dev"
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .dataflow import simulate
    from .telemetry import Telemetry, render_frame

    try:
        graph, images = _tiny_vgg(args)
        telemetry = Telemetry(sample_every=args.every)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    run = simulate(graph, images, telemetry=telemetry)
    print(render_frame(telemetry))
    print(
        f"\n{args.images} image(s) through {graph.name}: {run.cycles:,} cycles; "
        f"latency {run.latency_cycles:,}"
    )
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import json

    from .telemetry.loadgen import make_schedule, run_load, sweep

    try:
        graph, images = _tiny_vgg(args, min_images=0)
        for rate in args.sweep or ([] if args.rate is None else [args.rate]):
            # Refuses a rate that is not finite and positive, or whose
            # arrivals pass the 64-bit cycle count.
            make_schedule(int(images.shape[0]), rate, args.process, args.seed)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if _out_exists(args):
        return 2

    if args.sweep:
        payload = sweep(
            graph,
            images,
            args.sweep,
            process=args.process,
            seed=args.seed,
            mode=_mode(args),
            max_cycles=args.max_cycles,
        )
        _emit(
            args,
            json.dumps(payload, indent=2),
            f"{len(payload['points'])}-point latency-throughput sweep",
        )
        return 0

    if args.rate is None:
        print("repro load needs --rate FPS (or --sweep R1 R2 ...)", file=sys.stderr)
        return 2
    result = run_load(
        graph,
        images,
        rate_fps=args.rate,
        process=args.process,
        seed=args.seed,
        mode=_mode(args),
        max_cycles=args.max_cycles,
    )
    if args.json or args.out:
        _emit(args, json.dumps(result.as_dict(), indent=2), "load result")
    else:
        print(result.render())
    if args.slo_p99_cycles is not None and result.slo_violated(args.slo_p99_cycles):
        p99 = result.report.sojourn.p99
        shown = f"{p99:,}" if p99 is not None else "n/a"
        print(
            f"SLO VIOLATION: p99 sojourn latency {shown} cycles "
            f"exceeds --slo-p99-cycles {args.slo_p99_cycles:,}"
            + (" (run aborted)" if result.aborted else ""),
            file=sys.stderr,
        )
        return 1
    return 1 if result.aborted else 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from .fleet import (
        FleetConfig,
        ReplicaSpec,
        default_rate_ladder,
        fleet_capacity_fps,
        fleet_sweep,
        min_replicas_for_slo,
        parse_mix,
        simulate_fleet,
    )

    try:
        if args.mix:
            specs = parse_mix(args.mix)
        else:
            specs = [ReplicaSpec(args.network, args.size, width=args.width)] * args.replicas
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if _out_exists(args):
        return 2

    if args.plan_dfes:
        from .fleet import plan_fleet_dfes
        from .planner import PlanError

        try:
            answer = plan_fleet_dfes(specs, fill_cap=args.fill_cap)
        except PlanError as exc:
            print(f"fleet --plan-dfes: {exc}", file=sys.stderr)
            return 1
        if args.json or args.out:
            _emit(args, json.dumps(answer, indent=2), "fleet DFE plan")
        else:
            for rep in answer["replicas"]:
                print(
                    f"  {rep['label']}: {rep['n_dfes']} DFE(s), "
                    f"peak utilization {rep['max_utilization']:.1%}"
                )
            verdict = "fits" if answer["fits_node"] else "DOES NOT FIT"
            print(
                f"fleet of {len(specs)} replica(s): {answer['total_dfes']} DFE(s) total — "
                f"{verdict} one {answer['node_dfes']}-DFE MPC-X node "
                f"(fill cap {answer['fill_cap']:.0%})"
            )
        return 0 if answer["fits_node"] else 1

    def config_for(rate: float, policy: str) -> FleetConfig:
        return FleetConfig(
            replicas=specs,
            rate_fps=rate,
            n_requests=args.images,
            policy=policy,
            process="poisson" if policy == "static" else args.process,
            seed=args.seed,
            batch=args.batch,
            max_cycles=args.max_cycles,
            workers=args.workers,
        )

    if args.find_capacity:
        if args.rate is None:
            print("--find-capacity needs --rate FPS (the offered load)", file=sys.stderr)
            return 2
        if args.slo_p99_cycles is None:
            print("--find-capacity needs --slo-p99-cycles (the SLO)", file=sys.stderr)
            return 2
        if len(set(specs)) > 1:
            print("--find-capacity scales one replica spec; give --mix a single spec", file=sys.stderr)
            return 2
    sweeping = args.sweep is not None and not args.find_capacity
    policies = (args.policies or [args.policy]) if sweeping else [args.policy]
    try:
        # A default rate profiles every replica spec: check each policy's
        # config at a placeholder rate before that work.
        for policy in policies:
            config_for(1.0, policy)
        if sweeping:
            rates = args.sweep or default_rate_ladder(specs)
        else:
            rates = [args.rate if args.rate is not None else 0.5 * fleet_capacity_fps(specs)]
        # Every sweep point's config, and its arrival schedules, are checked
        # before any replica runs.
        configs = [config_for(rate, policy) for policy in policies for rate in rates]
        for checked in configs:
            checked.host_schedules()
        config = configs[0]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.find_capacity:
        answer = min_replicas_for_slo(config, args.slo_p99_cycles, args.max_replicas)
        if args.json or args.out:
            _emit(args, json.dumps(answer, indent=2), "capacity answer")
        else:
            n = answer["min_replicas"]
            verdict = (
                f"{n} replica(s) of {specs[0].label()}"
                if n is not None
                else f"NOT satisfiable within {args.max_replicas} replica(s)"
            )
            print(
                f"capacity [{args.policy}] p99 sojourn <= {args.slo_p99_cycles:,} cycles "
                f"at {args.rate:,.1f} FPS: {verdict}"
            )
            for step in answer["trail"]:
                p99 = step["p99_sojourn_cycles"]
                shown = f"{p99:,}" if p99 is not None else "n/a"
                mark = "ok" if step["satisfied"] else "MISS"
                print(f"  R={step['replicas']}: p99 sojourn {shown} cycles [{mark}]")
        return 0 if answer["min_replicas"] is not None else 1

    if sweeping:
        payload = fleet_sweep(config, rates, policies)
        _emit(
            args,
            json.dumps(payload, indent=2),
            f"{len(rates)}-point fleet frontier ({', '.join(policies)})",
        )
        return 0

    report = simulate_fleet(config)
    if args.json or args.out:
        _emit(args, json.dumps(report.as_dict(), indent=2), "fleet report")
    else:
        print(report.render())
    if args.slo_p99_cycles is not None and report.slo_violated(args.slo_p99_cycles):
        p99 = report.aggregate["sojourn_cycles"]["p99"]
        shown = f"{p99:,}" if p99 is not None else "n/a"
        print(
            f"SLO VIOLATION: fleet p99 sojourn {shown} cycles "
            f"exceeds --slo-p99-cycles {args.slo_p99_cycles:,}",
            file=sys.stderr,
        )
        return 1
    return 0 if report.aggregate["conserved"] else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from .models import direct_resnet18_graph, direct_vgg_graph
    from .nn.graph import AddNode
    from .telemetry import run_attributed

    size = args.size
    if args.images < 1:
        print(f"--images must be >= 1, got {args.images}", file=sys.stderr)
        return 2
    if args.skip_capacity is not None and args.skip_capacity < 1:
        print(f"--skip-capacity must be >= 1, got {args.skip_capacity}", file=sys.stderr)
        return 2
    try:
        if args.network == "vgg":
            graph = direct_vgg_graph(size, width=args.width, classes=4)
        else:
            graph = direct_resnet18_graph(size, width=args.width, classes=4, stages=[(64, 1, 1)])
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    images = rng.integers(0, 4, size=(args.images, size, size, 3))

    skip_sizing: str | dict[str, int] = "exact"
    if args.skip_capacity is not None:
        adds = [n for n, node in graph.nodes.items() if isinstance(node, AddNode)]
        if not adds:
            print(
                f"--skip-capacity needs a residual topology; {graph.name} has no adders",
                file=sys.stderr,
            )
            return 2
        skip_sizing = {n: args.skip_capacity for n in adds}

    report = run_attributed(
        graph,
        images,
        skip_sizing=skip_sizing,
        max_cycles=args.max_cycles,
        mode=_mode(args),
    )
    print(report.render())
    return 1 if report.aborted else 0


DEFAULT_CHECK_TOPOLOGIES = ["vgg:16:0.0625", "vgg:32:0.25", "alexnet:64:0.25", "resnet18:32:0.25"]


def _check_graph(name: str, size: int | None, width: float | None):
    from .models import direct_alexnet_graph, direct_resnet18_graph, direct_vgg_graph

    width = 1.0 if width is None else width
    if name == "vgg":
        return direct_vgg_graph(32 if size is None else size, width=width, classes=4)
    if name == "alexnet":
        return direct_alexnet_graph(224 if size is None else size, width=width)
    if name == "resnet18":
        return direct_resnet18_graph(224 if size is None else size, width=width)
    raise ValueError(f"unknown network {name!r} (want vgg, alexnet or resnet18)")


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from .dataflow.verify import verify
    from .models.direct import parse_topology

    specs = args.topologies or DEFAULT_CHECK_TOPOLOGIES
    if _out_exists(args):
        return 2
    n_errors = n_warnings = 0
    reports = []
    for spec in specs:
        try:
            graph = _check_graph(*parse_topology(spec))
        except ValueError as exc:
            print(f"check {spec}: {exc}", file=sys.stderr)
            return 2
        partition = None
        if args.plan:
            from .planner import PlanError, plan_partition

            try:
                plan = plan_partition(graph, fill_cap=args.fill_cap, predict=False)
            except PlanError as exc:
                print(f"check {spec}: {exc}", file=sys.stderr)
                return 2
            partition = plan.groups
        elif args.multi_dfe:
            from .hardware.partition import partition_network

            partition = partition_network(graph).groups
        report = verify(
            graph,
            partition=partition,
            exact=args.exact,
            build=not args.graph_only,
        )
        if args.json or args.out:
            reports.append(report.as_dict())
        else:
            print(report.render(show_info=not args.no_info))
            print()
        n_errors += len(report.errors)
        n_warnings += len(report.warnings)
    if args.json or args.out:
        payload = {"schema": "repro-check/1", "reports": reports}
        _emit(args, json.dumps(payload, indent=2), f"{len(reports)} check report(s)")
    if n_errors or (args.strict and n_warnings):
        return 1
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from .models.direct import parse_topology
    from .planner import PlanError, neighbor_partitions, plan_partition

    try:
        graph = _check_graph(*parse_topology(args.topology))
    except ValueError as exc:
        print(f"plan {args.topology}: {exc}", file=sys.stderr)
        return 2
    if _out_exists(args):
        return 2
    if args.device == "stratix10":
        from .hardware.device import STRATIX_10_PROJECTION as device
    else:
        from .hardware.device import STRATIX_V_5SGSD8 as device

    try:
        plan = plan_partition(
            graph,
            objective=args.objective,
            n_dfes=args.dfes,
            slo_fps=args.slo_fps,
            device=device,
            fill_cap=args.fill_cap,
        )
    except PlanError as exc:
        print(f"plan {args.topology}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"plan {args.topology}: {exc}", file=sys.stderr)
        return 2

    rc = 0
    if args.check:
        from .dataflow.verify import verify

        report = verify(graph, partition=plan.groups)
        if not (args.json or args.out):
            print(report.render(show_info=False))
        if report.errors or report.warnings:
            print(
                f"plan {args.topology}: winner FAILED strict re-verification",
                file=sys.stderr,
            )
            rc = 1
    if args.simulate and rc == 0:
        from .dataflow import simulate

        assert plan.predicted is not None
        spec = graph.input_spec
        rng = np.random.default_rng(args.seed)
        images = rng.integers(
            0, 4, size=(plan.predicted.n_images, spec.height, spec.width, spec.channels)
        )
        run = simulate(graph, images, partition=plan.groups)
        measured = run.steady_state_interval
        predicted = plan.predicted.interval
        exact = (
            measured == predicted
            and run.latency_cycles == plan.predicted.latency_cycles
        )
        if not (args.json or args.out):
            shown = f"{measured:,.1f}" if measured is not None else "n/a"
            print(
                f"  simulated: interval {shown} cycles/image, "
                f"latency {run.latency_cycles:,} cycles "
                f"[{'exact match' if exact else 'MISMATCH'}]"
            )
        if not exact:
            print(
                f"plan {args.topology}: simulated timing diverged from prediction "
                f"(interval {measured} vs {predicted}, "
                f"latency {run.latency_cycles} vs {plan.predicted.latency_cycles})",
                file=sys.stderr,
            )
            rc = 1
    if args.neighbors and rc == 0:
        from .dataflow import simulate

        assert plan.predicted is not None
        spec = graph.input_spec
        rng = np.random.default_rng(args.seed)
        images = rng.integers(
            0, 4, size=(plan.predicted.n_images, spec.height, spec.width, spec.channels)
        )
        for cuts, partition in neighbor_partitions(graph, plan):
            run = simulate(graph, images, partition=partition)
            interval = run.steady_state_interval
            winner = plan.predicted.interval
            worse = interval is None or winner is None or interval >= winner
            if not (args.json or args.out):
                shown = f"{interval:,.1f}" if interval is not None else "n/a"
                print(
                    f"  neighbor cuts={list(cuts)}: interval {shown} "
                    f"[{'dominated' if worse else 'BEATS WINNER'}]"
                )
            if not worse:
                print(
                    f"plan {args.topology}: neighbor {list(cuts)} beats the winner "
                    f"({interval} < {winner})",
                    file=sys.stderr,
                )
                rc = 1

    if args.json or args.out:
        _emit(args, json.dumps(plan.as_dict(), indent=2), "plan")
    else:
        print(plan.render())
        if args.audit:
            for pruned in plan.audit:
                print(
                    f"  pruned cuts={list(pruned.cuts)}: {pruned.killed_by} "
                    f"at {pruned.where} — {pruned.message}"
                )
    return rc


def build_parser() -> argparse.ArgumentParser:
    from .dataflow.engine import DEFAULT_MAX_CYCLES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming QNN-on-FPGA reproduction (Baskin et al., IPPS 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiment ids")
    p_list.set_defaults(func=_cmd_list)

    p_rep = sub.add_parser("reproduce", help="regenerate paper tables/figures")
    p_rep.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    p_rep.add_argument("--quick", action="store_true", help="skip training-based rows")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_report = sub.add_parser("report", help="design report for a network")
    p_report.add_argument("network", choices=["vgg", "alexnet", "resnet18"])
    p_report.add_argument("--size", type=int, default=None, help="input resolution")
    p_report.add_argument("--device", choices=["stratix5", "stratix10"], default="stratix5")
    p_report.set_defaults(func=_cmd_report)

    p_sim = sub.add_parser("simulate", help="cycle-simulate a tiny network")
    p_sim.add_argument("--size", type=int, default=16)
    p_sim.add_argument("--images", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--exhaustive",
        action="store_true",
        help="tick the exhaustive reference loop instead of solving the schedule "
        "(bit-identical results, see DESIGN.md §4.6)",
    )
    p_sim.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrivals at this offered FPS instead of back-to-back "
        "streaming (an open-loop run is solved whole, not extended by its period)",
    )
    p_sim.add_argument(
        "--process",
        choices=["fixed", "poisson"],
        default="fixed",
        help="arrival process for --rate (poisson draws seeded exponential gaps)",
    )
    p_sim.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable telemetry snapshot instead of the waterfall",
    )
    p_sim.add_argument(
        "--prom", default=None, help="write the Prometheus text exposition to this file"
    )
    p_sim.add_argument(
        "--snapshot", default=None, help="write the JSON telemetry snapshot to this file"
    )
    p_sim.add_argument(
        "--every", type=int, default=256, help="telemetry sample cadence in simulated cycles"
    )
    p_sim.add_argument(
        "--force", action="store_true", help="overwrite existing --prom/--snapshot files"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_trace = sub.add_parser(
        "trace", help="cycle-simulate with event tracing and write Perfetto JSON"
    )
    p_trace.add_argument("--size", type=int, default=16)
    p_trace.add_argument("--images", type=int, default=2)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", default="trace.json", help="output Chrome-trace path")
    p_trace.add_argument(
        "--exhaustive",
        action="store_true",
        help="tick the exhaustive reference loop for the run (the trace is still solved)",
    )
    p_trace.add_argument(
        "--force", action="store_true", help="overwrite an existing --out file"
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_top = sub.add_parser(
        "top",
        help="dashboard of a simulated run: utilization, FIFO occupancy, throughput",
    )
    p_top.add_argument("--size", type=int, default=16)
    p_top.add_argument("--images", type=int, default=2)
    p_top.add_argument("--seed", type=int, default=0)
    p_top.add_argument(
        "--every", type=int, default=256, help="telemetry sample cadence in simulated cycles"
    )
    p_top.set_defaults(func=_cmd_top)

    p_load = sub.add_parser(
        "load", help="open-loop load generation: offered rate, latency percentiles, SLO gate"
    )
    p_load.add_argument("--size", type=int, default=16)
    p_load.add_argument("--images", type=int, default=8)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--rate", type=float, default=None, help="offered arrival rate in frames per second"
    )
    p_load.add_argument(
        "--process",
        choices=["fixed", "poisson"],
        default="fixed",
        help="arrival process (poisson draws seeded exponential gaps)",
    )
    p_load.add_argument(
        "--sweep",
        type=float,
        nargs="+",
        default=None,
        metavar="FPS",
        help="sweep these offered rates and emit the latency-throughput curve as JSON",
    )
    p_load.add_argument(
        "--json", action="store_true", help="print the machine-readable result instead of text"
    )
    p_load.add_argument("--out", default=None, help="write the JSON payload to this file")
    p_load.add_argument(
        "--force", action="store_true", help="overwrite an existing --out file"
    )
    p_load.add_argument(
        "--slo-p99-cycles",
        type=int,
        default=None,
        help="exit non-zero unless p99 service latency is within this many cycles",
    )
    p_load.add_argument(
        "--max-cycles", type=int, default=DEFAULT_MAX_CYCLES, help="abort budget in cycles"
    )
    p_load.add_argument(
        "--exhaustive",
        action="store_true",
        help="use the exhaustive reference loop instead of solving the schedule",
    )
    p_load.set_defaults(func=_cmd_load)

    p_fleet = sub.add_parser(
        "fleet",
        help="fleet-scale serving: R replicas, admission routing, shared PCIe ingress",
    )
    p_fleet.add_argument("--replicas", type=int, default=4, help="homogeneous replica count")
    p_fleet.add_argument(
        "--mix",
        default=None,
        help=(
            "heterogeneous fleet as comma-separated name[:size[:width]] specs "
            "(overrides --replicas/--network/--size/--width)"
        ),
    )
    p_fleet.add_argument("--network", choices=["vgg", "alexnet", "resnet18"], default="vgg")
    p_fleet.add_argument("--size", type=int, default=16)
    p_fleet.add_argument("--width", type=float, default=0.0625)
    p_fleet.add_argument("--images", type=int, default=16, help="total requests across the fleet")
    p_fleet.add_argument(
        "--policy",
        choices=["rr", "jsq", "batch", "static"],
        default="rr",
        help="admission policy (static pre-partitions independent Poisson streams)",
    )
    p_fleet.add_argument(
        "--policies",
        nargs="+",
        choices=["rr", "jsq", "batch", "static"],
        default=None,
        metavar="POLICY",
        help="with --sweep: emit one frontier per policy",
    )
    p_fleet.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered fleet-wide rate in FPS (default: half the profiled capacity)",
    )
    p_fleet.add_argument(
        "--sweep",
        type=float,
        nargs="*",
        default=None,
        metavar="FPS",
        help=(
            "emit per-policy latency-throughput frontiers over these rates "
            "(bare --sweep auto-brackets the profiled fleet capacity)"
        ),
    )
    p_fleet.add_argument(
        "--process",
        choices=["fixed", "poisson"],
        default="fixed",
        help="arrival process for shared-router policies",
    )
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool size for replica simulation (0 = serial reference path)",
    )
    p_fleet.add_argument(
        "--batch", type=int, default=4, help="batch-aware policy's re-route granularity"
    )
    p_fleet.add_argument(
        "--slo-p99-cycles",
        type=int,
        default=None,
        help="exit non-zero unless fleet p99 sojourn is within this many cycles",
    )
    p_fleet.add_argument(
        "--find-capacity",
        action="store_true",
        help="answer: how many replicas hold the --slo-p99-cycles SLO at --rate?",
    )
    p_fleet.add_argument(
        "--plan-dfes",
        action="store_true",
        help=(
            "static capacity check: min-DFE plan per replica via the partition "
            "planner; exit non-zero if the mix overflows one 8-DFE MPC-X node"
        ),
    )
    p_fleet.add_argument(
        "--fill-cap",
        type=float,
        default=0.8,
        help="with --plan-dfes: per-device resource budget fraction (default 0.8)",
    )
    p_fleet.add_argument(
        "--max-replicas",
        type=int,
        default=8,
        help="--find-capacity search ceiling (the MPC-X node holds 8 DFEs)",
    )
    p_fleet.add_argument(
        "--json", action="store_true", help="print the machine-readable report instead of text"
    )
    p_fleet.add_argument("--out", default=None, help="write the JSON payload to this file")
    p_fleet.add_argument(
        "--force", action="store_true", help="overwrite an existing --out file"
    )
    p_fleet.add_argument(
        "--max-cycles", type=int, default=DEFAULT_MAX_CYCLES, help="per-replica abort budget in cycles"
    )
    p_fleet.set_defaults(func=_cmd_fleet)

    p_stats = sub.add_parser(
        "stats", help="bottleneck attribution report for a simulated run"
    )
    p_stats.add_argument("--network", choices=["vgg", "resnet18"], default="vgg")
    p_stats.add_argument("--size", type=int, default=16)
    p_stats.add_argument("--width", type=float, default=0.0625)
    p_stats.add_argument("--images", type=int, default=2)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument(
        "--skip-capacity",
        type=int,
        default=None,
        help="fault injection: force every skip FIFO to this capacity",
    )
    p_stats.add_argument(
        "--max-cycles", type=int, default=10_000_000, help="abort budget in cycles"
    )
    p_stats.add_argument(
        "--exhaustive",
        action="store_true",
        help="use the exhaustive reference loop instead of solving the schedule",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_check = sub.add_parser(
        "check", help="statically verify pipelines (no cycle is simulated)"
    )
    p_check.add_argument(
        "topologies",
        nargs="*",
        help=(
            "topologies as name[:size[:width]] with name in vgg/alexnet/resnet18 "
            f"(default: {' '.join(DEFAULT_CHECK_TOPOLOGIES)})"
        ),
    )
    p_check.add_argument(
        "--multi-dfe",
        action="store_true",
        help="partition with the resource partitioner and verify link feasibility",
    )
    p_check.add_argument(
        "--plan",
        action="store_true",
        help="verify the partition planner's winner instead of the greedy --multi-dfe cut",
    )
    p_check.add_argument(
        "--fill-cap",
        type=float,
        default=0.8,
        help="with --plan: per-device resource budget fraction (default 0.8)",
    )
    p_check.add_argument(
        "--strict", action="store_true", help="exit non-zero on warnings too"
    )
    p_check.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable repro-check/1 reports instead of text",
    )
    p_check.add_argument("--out", default=None, help="write the JSON payload to this file")
    p_check.add_argument(
        "--force", action="store_true", help="overwrite an existing --out file"
    )
    p_check.add_argument(
        "--graph-only",
        action="store_true",
        help="skip pipeline construction (graph-level checks only; cheap at paper scale)",
    )
    p_check.add_argument("--no-info", action="store_true", help="hide info-level findings")
    exact_group = p_check.add_mutually_exclusive_group()
    exact_group.add_argument(
        "--exact",
        dest="exact",
        action="store_true",
        default=None,
        help="force the exact §III-B5 skip solver (default: auto by replay budget)",
    )
    exact_group.add_argument(
        "--bound",
        dest="exact",
        action="store_false",
        help="skip the solver; use the closed-form §III-B5 bound",
    )
    p_check.set_defaults(func=_cmd_check)

    p_plan = sub.add_parser(
        "plan",
        help="static multi-DFE partition search (DP + branch-and-bound, no simulation)",
    )
    p_plan.add_argument(
        "topology",
        help="topology as name[:size[:width]] with name in vgg/alexnet/resnet18",
    )
    p_plan.add_argument(
        "--objective",
        choices=["min-dfes", "min-latency"],
        default="min-dfes",
        help=(
            "min-dfes: fewest devices under budgets/SLO; "
            "min-latency: best fill+steady latency at a fixed --dfes count"
        ),
    )
    p_plan.add_argument(
        "--dfes",
        type=int,
        default=None,
        help="device count for --objective min-latency (required there)",
    )
    p_plan.add_argument(
        "--slo-fps",
        type=float,
        default=None,
        help="minimum predicted throughput; plans below it are rejected (V704)",
    )
    p_plan.add_argument(
        "--fill-cap",
        type=float,
        default=0.8,
        help="per-device resource budget as a fraction of the FPGA (default 0.8)",
    )
    p_plan.add_argument(
        "--device", choices=["stratix5", "stratix10"], default="stratix5"
    )
    p_plan.add_argument(
        "--check",
        action="store_true",
        help="re-verify the winner with the full strict checker (exit 1 on any finding)",
    )
    p_plan.add_argument(
        "--simulate",
        action="store_true",
        help="simulate the winner and assert the measured interval equals the prediction",
    )
    p_plan.add_argument(
        "--neighbors",
        action="store_true",
        help="also simulate every ±1-cut neighbor and assert none beats the winner",
    )
    p_plan.add_argument(
        "--audit", action="store_true", help="print the pruned-candidate audit trail"
    )
    p_plan.add_argument("--seed", type=int, default=0, help="--simulate image seed")
    p_plan.add_argument(
        "--json", action="store_true", help="print the repro-plan/1 JSON instead of text"
    )
    p_plan.add_argument("--out", default=None, help="write the JSON payload to this file")
    p_plan.add_argument(
        "--force", action="store_true", help="overwrite an existing --out file"
    )
    p_plan.set_defaults(func=_cmd_plan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "max_cycles", 1) <= 0:
        print(f"--max-cycles must be a positive cycle budget, got {args.max_cycles}", file=sys.stderr)
        return 2
    if getattr(args, "seed", 0) < 0:
        print(f"--seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _Unwritable as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
