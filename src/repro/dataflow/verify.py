"""Static pipeline verification: compile-time invariant checks for the substrate.

The paper's correctness story is almost entirely *static*: skip delay
buffers are sized exactly to the skipped convolution's buffer (§III-B5),
MaxRing crossings are feasible because ``bits x f_clk`` is far below the
link rate (§III-B6), and the BRAM geometry wastes ≥25% of every weight
cache with ``O <= 384`` outputs (§III-B1a).  This module turns each of
those claims into a check that runs in milliseconds, before any cycle is
simulated:

* :func:`verify_graph` — structural well-formedness of a
  :class:`~repro.nn.graph.LayerGraph` (cycles, unreachable nodes, port
  arity), the §III-B5 skip-buffer requirement per residual block, the rate
  summary, and the BRAM geometry audit.
* :func:`verify_pipeline` — contract checks over a *built*
  :class:`~repro.dataflow.manager.Pipeline`: stream endpoint binding,
  kernel port arity, per-edge bitwidth propagation, skip FIFO capacity
  versus the statically required minimum, and MaxRing bandwidth
  feasibility (the one rule, :func:`~repro.dataflow.links.link_utilization`).
* :func:`verify` — both passes merged; what ``python -m repro check`` runs.
* :func:`solve_skip_capacities` — the exact §III-B5 solver (below).
* :func:`check_skip_high_water` — the run-time sanitizer asserting the
  engine's measured skip high-water marks equal the static prediction.

Every finding is a typed :class:`Diagnostic` — a stable code, a severity,
the paper section it reproduces, and structured data — collected into a
:class:`VerifyReport`.  Error-severity codes only fire on real faults:
shipped model topologies verify clean (tested property).

The exact §III-B5 solver
------------------------
Kernel timing never depends on data values, so each skip stream's exact
requirement is its high-water mark in the geometry's schedule, computed by
an op-recurrence solve (:func:`repro.dataflow.schedule.replay_schedule`:
four images, every kernel op's cycle solved from its op program, skip
FIFOs unbounded, cached on the graph; no engine tick).  The partition
planner's exact prediction reads the same schedule.  A FIFO
sized to that mark never retimes the run (argued in that module).  The
closed-form §III-B5 bound (:func:`skip_formula_bound`) remains the solver's
cross-check: the exact requirement must stay within the paper's formula
plus a small in-flight slack, or V402 fires.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..nn.graph import (
    SKIP_DTYPE_BITS,
    AddNode,
    ConvNode,
    InputNode,
    LayerGraph,
)
from .links import MAXRING, MAXRING_MBPS, LinkCrossing, link_utilization, partition_crossings
from .schedule import replay_schedule
from .window import depth_first_buffer_elements

if TYPE_CHECKING:
    from ..hardware.device import FPGASpec
    from .manager import Pipeline

__all__ = [
    "Diagnostic",
    "VerifyReport",
    "DIAGNOSTIC_CODES",
    "SOLVER_IMAGES",
    "SKIP_FORMULA_SLACK",
    "DEFAULT_REPLAY_BUDGET",
    "skip_formula_bound",
    "estimated_replay_cost",
    "solve_skip_capacities",
    "check_skip_high_water",
    "partition_feasibility",
    "verify_graph",
    "verify_pipeline",
    "verify",
]

# The skip high-water mark reaches steady state from this image count on
# (the first image fills an empty pipeline and can peak slightly lower): the
# sanitizer holds runs of at least this many images to exact equality.
SOLVER_IMAGES = 2

# Allowed excess of the exact skip requirement over the §III-B5 closed-form
# bound before V402 fires: elements in flight in the small inter-kernel
# FIFOs (capacity 4 at each end) plus the 1-cycle visibility registers.
SKIP_FORMULA_SLACK = 16

# Default ceiling on the solver's cost (in estimated kernel ops);
# above it `verify` falls back to the closed-form bound (V403 reports this).
DEFAULT_REPLAY_BUDGET = 5_000_000

SEVERITIES = ("error", "warning", "info")

DIAGNOSTIC_CODES: dict[str, str] = {
    "V101": "dangling stream: missing or unregistered reader/writer endpoint",
    "V102": "stream endpoint double-binding (kernel port bound to a foreign stream)",
    "V103": "node/kernel port arity mismatch",
    "V104": "fork fan-out mismatch (fewer than two live arms)",
    "V105": "graph contains a cycle",
    "V106": "node unreachable from the input",
    "V107": "graph has no input node",
    "V201": "stream bitwidth disagrees with the producer's tensor spec",
    "V202": "skip-path operand exceeds the 16-bit hardware adder width",
    "V301": "FIFO capacity below the statically required minimum (deadlock)",
    "V302": "link-crossing FIFO shallower than the link round trip",
    "V303": "pipeline rate summary (bottleneck, interval, overlap)",
    "V401": "§III-B5 skip buffer requirement (exact vs formula bound)",
    "V402": "exact skip requirement exceeds the §III-B5 formula bound",
    "V403": "skip solver skipped (replay over budget); formula bound used",
    "V501": "link bandwidth overcommitted",
    "V502": "link bandwidth headroom",
    "V503": "skip stream crosses a chip boundary",
    "V601": "weight-cache BRAM geometry waste (≥25% when O ≤ 384)",
    "V701": "per-DFE LUT budget exceeded",
    "V702": "per-DFE flip-flop budget exceeded",
    "V703": "per-DFE BRAM budget exceeded",
    "V704": "predicted throughput below the requested SLO",
}


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One typed finding of the static verifier."""

    code: str
    severity: str  # "error" | "warning" | "info"
    where: str  # node, stream or kernel name the finding anchors to
    message: str
    paper: str = ""  # paper section the check reproduces, e.g. "§III-B5"
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def render(self) -> str:
        tag = f" [{self.paper}]" if self.paper else ""
        return f"{self.severity.upper():<7} {self.code}{tag} {self.where}: {self.message}"


@dataclass(slots=True)
class VerifyReport:
    """All diagnostics of one verification pass."""

    subject: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    skip_capacities: dict[str, int] = field(default_factory=dict)
    skip_mode: str = "exact"  # "exact" | "bound" — how skip requirements were derived

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "info"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def sort(self) -> None:
        order = {sev: i for i, sev in enumerate(SEVERITIES)}
        self.diagnostics.sort(key=lambda d: (order[d.severity], d.code, d.where))

    def render(self, show_info: bool = True) -> str:
        self.sort()
        shown = [d for d in self.diagnostics if show_info or d.severity != "info"]
        status = "FAIL" if self.errors else "ok"
        head = (
            f"check {self.subject}: {status} — {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info "
            f"(skip sizing: {self.skip_mode})"
        )
        return "\n".join([head, *("  " + d.render() for d in shown)])

    def raise_on_error(self) -> "VerifyReport":
        if self.errors:
            raise RuntimeError(self.render(show_info=False))
        return self

    def as_dict(self) -> dict[str, Any]:
        """Machine-readable report (schema ``repro-check/1``).

        Diagnostics are emitted in the report's stable sort order
        (severity, code, where) so two runs over the same topology diff
        cleanly; ``data`` payloads are sanitized to plain JSON types.
        """
        self.sort()
        return {
            "schema": "repro-check/1",
            "subject": self.subject,
            "ok": self.ok,
            "skip_mode": self.skip_mode,
            "counts": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
            "skip_capacities": {k: int(v) for k, v in sorted(self.skip_capacities.items())},
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": d.severity,
                    "where": d.where,
                    "message": d.message,
                    "paper": d.paper,
                    "data": _json_safe(dict(d.data)),
                }
                for d in self.diagnostics
            ],
        }


def _diag(
    code: str,
    severity: str,
    where: str,
    message: str,
    paper: str = "",
    **data: Any,
) -> Diagnostic:
    return Diagnostic(code, severity, where, message, paper, data)


def _json_safe(value: Any) -> Any:
    """Recursively coerce diagnostic payloads to plain JSON types."""
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


# -- §III-B5: skip-buffer requirements -----------------------------------


def skip_formula_bound(graph: LayerGraph, add_name: str) -> int:
    """The paper's closed-form skip buffer size for one residual adder.

    §III-B5 sizes the delay buffer like the regular-path convolution's
    window buffer (``I·[L·(K−1)+K]``, the depth-first formula); when port 0
    is not a convolution the output tensor size is the defensive fallback,
    matching :func:`repro.hardware.resources._add_resources`.
    """
    parents = graph.parents(add_name)
    conv = graph.nodes[parents[0]] if parents else None
    if isinstance(conv, ConvNode):
        conv_in = graph.specs[graph.parents(parents[0])[0]]
        return depth_first_buffer_elements(
            conv_in.width + 2 * conv.pad, conv.in_channels, conv.kernel_size
        )
    return graph.specs[add_name].elements


def estimated_replay_cost(graph: LayerGraph) -> int:
    """Rough cost of the skip solver in kernel ops (drives the budget check).

    Counts ``SOLVER_IMAGES`` images, the count ``DEFAULT_REPLAY_BUDGET`` is set against.
    """
    from ..hardware.timing import estimate_network_timing

    timing = estimate_network_timing(graph)
    return SOLVER_IMAGES * timing.sequential_cycles


def solve_skip_capacities(
    graph: LayerGraph,
    partition: list[list[str]] | None = None,
) -> dict[str, int]:
    """Exact §III-B5 skip capacity per residual adder: ``{add_node: high-water}``.

    A view over the geometry's op-recurrence solve
    (:func:`repro.dataflow.schedule.replay_schedule`, cached on the graph
    and shared with the partition planner's exact prediction).
    """
    if not any(isinstance(node, AddNode) for node in graph.nodes.values()):
        return {}
    schedule = replay_schedule(graph, partition=partition)
    return {add: max(1, hw) for add, hw in schedule.skip_high_water.items()}


def check_skip_high_water(pipeline: "Pipeline", n_images: int) -> None:
    """Run-time §III-B5 sanitizer: measured high-water vs static prediction.

    With exact sizing and a steady-state closed-loop run (``n_images >=
    SOLVER_IMAGES``, no arrival schedule) the measured mark must *equal* the
    capacity the solver predicted.  A single-image run only fills the
    pipeline once, and an open-loop run whose arrivals leave gaps lets it
    drain between images; both may peak lower, so they are held to ``<=``.
    Called by :func:`repro.dataflow.manager.simulate` after every
    successful run.  A run handed the replay's solve reads its mark off the
    very solve that sized it; the independent evidence is the solve vs.
    reference-loop suites and ``mode="exhaustive"``.
    """
    steady = n_images >= SOLVER_IMAGES and pipeline.source.arrival_cycles is None
    for add_name, stream in pipeline.skip_streams.items():
        occ = stream.stats.max_occupancy
        cap = stream.capacity
        if occ > cap:
            raise RuntimeError(
                f"§III-B5 sanitizer: skip stream {stream.name!r} high-water {occ} "
                f"exceeds its capacity {cap} — FIFO accounting is broken"
            )
        # The prediction, not the stream's capacity: a skip edge that crosses
        # DFEs gets at least the link's buffering on top of it.
        predicted = pipeline.skip_capacities[add_name]
        if pipeline.skip_sizing == "exact" and steady and occ != predicted:
            raise RuntimeError(
                f"§III-B5 sanitizer: skip stream {stream.name!r} ({add_name}) "
                f"high-water {occ} != static prediction {predicted}; the solver and the "
                "engine disagree — run `python -m repro check`"
            )


# -- graph-level checks ---------------------------------------------------


def _graph_structure(graph: LayerGraph) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if graph.input_name is None:
        diags.append(
            _diag("V107", "error", graph.name, "graph has no input node", "§III-B")
        )
        return diags
    cycle = graph.find_cycle()
    if cycle:
        members = " -> ".join(cycle)
        diags.append(
            _diag(
                "V105",
                "error",
                graph.name,
                f"graph contains a cycle: {members} -> {cycle[0]}",
                "§III-B",
                cycle=cycle,
            )
        )
        return diags
    for name in graph.unreachable():
        diags.append(
            _diag(
                "V106",
                "error",
                name,
                "node is unreachable from the input",
                "§III-B",
            )
        )
    for name, node in graph.nodes.items():
        if isinstance(node, InputNode):
            continue
        ports = list(range(len(graph.producers[name])))
        if len(ports) != node.arity:
            diags.append(
                _diag(
                    "V103",
                    "error",
                    name,
                    f"expected input ports {list(range(node.arity))}, found {ports}",
                    "§III-B",
                    expected=node.arity,
                    found=ports,
                )
            )
    return diags


def _graph_skip_widths(graph: LayerGraph) -> list[Diagnostic]:
    """V202: every residual-add operand must fit the 16-bit skip adder."""
    diags: list[Diagnostic] = []
    for name, node in graph.nodes.items():
        if not isinstance(node, AddNode):
            continue
        for parent in graph.parents(name):
            bits = graph.specs[parent].bits
            if bits > SKIP_DTYPE_BITS:
                diags.append(
                    _diag(
                        "V202",
                        "error",
                        name,
                        f"operand from {parent!r} is {bits}-bit, exceeding the "
                        f"{SKIP_DTYPE_BITS}-bit skip-path adder",
                        "§III-B5",
                        parent=parent,
                        bits=bits,
                    )
                )
    return diags


def _graph_rates(
    graph: LayerGraph,
    partition: list[list[str]] | None,
) -> list[Diagnostic]:
    """V303: the initiation-interval algebra, reported as one rate summary.

    Per-kernel cycles/image come from the closed-form formulas in
    :mod:`repro.hardware.timing` (window fill, emit bursts, pooling
    decimation, drain tails).  Backpressure makes every *chain* FIFO safe at
    any capacity ≥ 1 — a slower consumer simply stalls its producer — so
    the only deadlock-capable edges are the reconvergent skip FIFOs, which
    V301/V401 size exactly.  The summary surfaces the bottleneck kernel
    (the steady-state interval) and the overlap speedup the paper claims.
    """
    from ..hardware.timing import estimate_network_timing

    timing = estimate_network_timing(graph, partition=partition)
    bn = timing.bottleneck
    return [
        _diag(
            "V303",
            "info",
            graph.name,
            f"steady-state interval {timing.interval_cycles:,} cycles/image "
            f"(bottleneck {bn.name!r}); latency ≈ {timing.latency_cycles:,} cycles; "
            f"overlap speedup {timing.overlap_speedup:.1f}x vs layer-sequential",
            "§IV-B4",
            interval_cycles=timing.interval_cycles,
            latency_cycles=timing.latency_cycles,
            bottleneck=bn.name,
            overlap_speedup=timing.overlap_speedup,
        )
    ]


def _graph_bram_audit(graph: LayerGraph) -> list[Diagnostic]:
    """V601: the §III-B1a BRAM geometry claim as a lint finding."""
    from ..hardware.resources import weight_cache_blocks

    diags: list[Diagnostic] = []
    for name, node in graph.nodes.items():
        if not isinstance(node, ConvNode):
            continue
        blocks, waste = weight_cache_blocks(node)
        if blocks and waste >= 0.25:
            diags.append(
                _diag(
                    "V601",
                    "info",
                    name,
                    f"weight cache ({node.out_channels} x "
                    f"{node.kernel_size * node.kernel_size * node.in_channels} bits) wastes "
                    f"{waste:.0%} of {blocks} M20K block(s) "
                    f"(paper: ≥25% whenever O ≤ 384)",
                    "§III-B1a",
                    blocks=blocks,
                    waste=waste,
                    out_channels=node.out_channels,
                )
            )
    return diags


def _graph_skip_requirements(
    graph: LayerGraph,
    exact: dict[str, int] | None,
) -> list[Diagnostic]:
    """V401/V402/V403: per-adder skip buffer requirement."""
    diags: list[Diagnostic] = []
    for name in graph.order:
        if not isinstance(graph.nodes[name], AddNode):
            continue
        bound = skip_formula_bound(graph, name)
        if exact is None:
            diags.append(
                _diag(
                    "V403",
                    "info",
                    name,
                    f"skip solver skipped (replay over budget); formula bound "
                    f"{bound} elements used",
                    "§III-B5",
                    bound=bound,
                )
            )
            continue
        required = exact[name]
        diags.append(
            _diag(
                "V401",
                "info",
                name,
                f"skip buffer needs exactly {required} elements "
                f"(formula bound {bound})",
                "§III-B5",
                required=required,
                bound=bound,
            )
        )
        if required > bound + SKIP_FORMULA_SLACK:
            diags.append(
                _diag(
                    "V402",
                    "warning",
                    name,
                    f"exact skip requirement {required} exceeds the §III-B5 formula "
                    f"bound {bound} (+{SKIP_FORMULA_SLACK} slack) — the regular path "
                    "delays more than one convolution buffer",
                    "§III-B5",
                    required=required,
                    bound=bound,
                )
            )
    return diags


def verify_graph(
    graph: LayerGraph,
    partition: list[list[str]] | None = None,
    exact_skip: dict[str, int] | None = None,
) -> VerifyReport:
    """Static checks that need only the IR graph (no pipeline build).

    ``exact_skip`` supplies pre-solved §III-B5 requirements (:func:`verify`
    solves them); without it the closed-form bound is reported.
    """
    report = VerifyReport(subject=graph.name, skip_mode="exact" if exact_skip else "bound")
    structure = _graph_structure(graph)
    report.extend(structure)
    if any(d.severity == "error" for d in structure):
        report.sort()
        return report
    report.extend(_graph_skip_widths(graph))
    report.extend(_graph_skip_requirements(graph, exact_skip))
    report.extend(_graph_rates(graph, partition))
    report.extend(_graph_bram_audit(graph))
    if exact_skip:
        report.skip_capacities = dict(exact_skip)
    report.sort()
    return report


# -- pipeline-level checks ------------------------------------------------


def _producer_node(pipeline: "Pipeline", stream: Any) -> str | None:
    """IR node whose tensor the stream carries (None for unknown writers)."""
    writer = stream.writer
    if writer is None:
        return None
    name = writer.name
    if name == pipeline.source.name:
        return pipeline.graph.input_name
    node = name.removesuffix(".fork")
    return node if node in pipeline.graph.specs else None


def _pipeline_bindings(pipeline: "Pipeline") -> list[Diagnostic]:
    """V101/V102: every stream fully bound, every port singly bound."""
    diags: list[Diagnostic] = []
    engine = pipeline.engine
    registered = {id(s) for s in engine.streams}
    for stream in engine.streams:
        for role, kernel, ports in (
            ("writer", stream.writer, lambda k: k.outputs),
            ("reader", stream.reader, lambda k: k.inputs),
        ):
            if kernel is None:
                diags.append(
                    _diag(
                        "V101",
                        "error",
                        stream.name,
                        f"dangling stream: no {role} endpoint",
                        "§III-B",
                        role=role,
                    )
                )
            elif not any(s is stream for s in ports(kernel)):
                diags.append(
                    _diag(
                        "V102",
                        "error",
                        stream.name,
                        f"{role} {kernel.name!r} does not list this stream on its ports",
                        "§III-B",
                        role=role,
                        kernel=kernel.name,
                    )
                )
    for kernel in engine.kernels:
        for role, streams in (("input", kernel.inputs), ("output", kernel.outputs)):
            for stream in streams:
                if id(stream) not in registered:
                    diags.append(
                        _diag(
                            "V101",
                            "error",
                            kernel.name,
                            f"{role} stream {stream.name!r} is not registered with the engine",
                            "§III-B",
                            stream=stream.name,
                        )
                    )
                    continue
                endpoint = stream.reader if role == "input" else stream.writer
                if endpoint is not kernel:
                    other = endpoint.name if endpoint is not None else None
                    diags.append(
                        _diag(
                            "V102",
                            "error",
                            kernel.name,
                            f"{role} stream {stream.name!r} is bound to "
                            f"{other!r}, not to this kernel (double-binding)",
                            "§III-B",
                            stream=stream.name,
                            bound_to=other,
                        )
                    )
    return diags


def _pipeline_arities(pipeline: "Pipeline") -> list[Diagnostic]:
    """V103/V104: kernel port counts match their type contracts."""
    from ..kernels.conv import ConvKernel
    from ..kernels.elementwise import AddKernel, ForkKernel
    from ..kernels.io import HostSink, HostSource
    from ..kernels.pooling import MaxPoolKernel
    from ..kernels.reduce import GlobalAvgSumKernel
    from ..kernels.threshold import ThresholdKernel

    diags: list[Diagnostic] = []
    expected: list[tuple[type, int, int]] = [
        (HostSource, 0, 1),
        (HostSink, 1, 0),
        (AddKernel, 2, 1),
        (ConvKernel, 1, 1),
        (MaxPoolKernel, 1, 1),
        (ThresholdKernel, 1, 1),
        (GlobalAvgSumKernel, 1, 1),
    ]
    for kernel in pipeline.engine.kernels:
        if isinstance(kernel, ForkKernel):
            if len(kernel.inputs) != 1 or len(kernel.outputs) < 2:
                diags.append(
                    _diag(
                        "V104",
                        "error",
                        kernel.name,
                        f"fork has {len(kernel.inputs)} input(s) and "
                        f"{len(kernel.outputs)} arm(s); needs 1 input and ≥ 2 arms",
                        "§III-B5",
                        inputs=len(kernel.inputs),
                        outputs=len(kernel.outputs),
                    )
                )
            continue
        for ktype, n_in, n_out in expected:
            if isinstance(kernel, ktype):
                if len(kernel.inputs) != n_in or len(kernel.outputs) != n_out:
                    diags.append(
                        _diag(
                            "V103",
                            "error",
                            kernel.name,
                            f"{ktype.__name__} expects {n_in} input(s) / {n_out} "
                            f"output(s), has {len(kernel.inputs)} / {len(kernel.outputs)}",
                            "§III-B",
                            expected=(n_in, n_out),
                            found=(len(kernel.inputs), len(kernel.outputs)),
                        )
                    )
                break
    return diags


def _pipeline_bits(pipeline: "Pipeline") -> list[Diagnostic]:
    """V201: declared Stream.bits vs the producing node's tensor spec."""
    diags: list[Diagnostic] = []
    for stream in pipeline.engine.streams:
        node = _producer_node(pipeline, stream)
        if node is None:
            continue
        spec = pipeline.graph.specs[node]
        if stream.bits != spec.stream_bits:
            diags.append(
                _diag(
                    "V201",
                    "error",
                    stream.name,
                    f"stream declares {stream.bits}-bit elements but producer "
                    f"{node!r} emits {spec.stream_bits}-bit {spec.kind!r} values",
                    "§III-B2",
                    declared=stream.bits,
                    expected=spec.stream_bits,
                    producer=node,
                )
            )
    return diags


def _pipeline_skip_capacities(
    pipeline: "Pipeline",
    exact: dict[str, int] | None,
) -> list[Diagnostic]:
    """V301: every skip FIFO holds at least its statically required minimum.

    Chain FIFOs are deadlock-free at any capacity ≥ 1 under backpressure
    (the producer stalls, nothing is lost); the reconvergent skip edges are
    the ones that deadlock when undersized — the fork cannot push the skip
    arm, the regular-path convolution starves, and the adder never drains
    either input.  With the exact solver the minimum is sharp; without it
    (bound mode) an undersized capacity is only *suspect*, so the severity
    drops to warning.
    """
    diags: list[Diagnostic] = []
    for add_name, stream in pipeline.skip_streams.items():
        bound = skip_formula_bound(pipeline.graph, add_name)
        required = exact.get(add_name) if exact is not None else None
        if required is not None:
            if stream.capacity < required:
                diags.append(
                    _diag(
                        "V301",
                        "error",
                        stream.name,
                        f"skip FIFO capacity {stream.capacity} < exact requirement "
                        f"{required}; the residual block will deadlock — minimum "
                        f"safe capacity is {required}",
                        "§III-B5",
                        capacity=stream.capacity,
                        required=required,
                        add=add_name,
                    )
                )
        elif stream.capacity < bound:
            diags.append(
                _diag(
                    "V301",
                    "warning",
                    stream.name,
                    f"skip FIFO capacity {stream.capacity} is below the §III-B5 "
                    f"formula bound {bound} and the exact solver did not run — "
                    "the residual block may deadlock",
                    "§III-B5",
                    capacity=stream.capacity,
                    bound=bound,
                    add=add_name,
                )
            )
    return diags


def _link_budget(crossings: list[LinkCrossing]) -> list[Diagnostic]:
    """V501/V502: §III-B6 MaxRing bandwidth of every crossing."""
    diags: list[Diagnostic] = []
    worst: tuple[float, str] | None = None
    for crossing in crossings:
        mbps = crossing.required_mbps
        util = link_utilization(mbps)
        edge = "->".join(crossing.edge)
        if util > 1.0:
            diags.append(
                _diag(
                    "V501",
                    "error",
                    edge,
                    f"crossing needs {mbps:,.0f} Mbps but {MAXRING.name} provides "
                    f"{MAXRING_MBPS:,.0f} Mbps ({util:.1f}x overcommitted)",
                    "§III-B6",
                    required_mbps=mbps,
                    capacity_mbps=MAXRING_MBPS,
                    utilization=util,
                )
            )
        elif worst is None or util > worst[0]:
            worst = (util, edge)
    if worst is not None:
        util, edge = worst
        diags.append(
            _diag(
                "V502",
                "info",
                edge,
                f"worst link utilization {util:.1%} ({1 / util:.0f}x headroom)"
                if util > 0
                else "links idle",
                "§III-B6",
                utilization=util,
            )
        )
    return diags


def _pipeline_links(pipeline: "Pipeline") -> list[Diagnostic]:
    """V501/V502/V503/V302: §III-B6 crossing feasibility and buffering."""
    diags = _link_budget(pipeline.crossings)
    skip_stream_ids = {id(s) for s in pipeline.skip_streams.values()}
    for stream in pipeline.engine.streams:
        if stream.latency > 0:
            min_cap = 2 * stream.latency + 2
            if stream.capacity < min_cap:
                diags.append(
                    _diag(
                        "V302",
                        "warning",
                        stream.name,
                        f"link-crossing FIFO capacity {stream.capacity} cannot cover "
                        f"the {stream.latency}-cycle link round trip (want ≥ {min_cap}); "
                        "throughput will degrade",
                        "§III-B6",
                        capacity=stream.capacity,
                        latency=stream.latency,
                    )
                )
            if id(stream) in skip_stream_ids:
                diags.append(
                    _diag(
                        "V503",
                        "warning",
                        stream.name,
                        "skip stream crosses a chip boundary; §III-B6 keeps residual "
                        "blocks on one DFE (see hardware.partition.allowed_cut_positions)",
                        "§III-B6",
                        latency=stream.latency,
                    )
                )
    return diags


def verify_pipeline(
    pipeline: "Pipeline",
    exact_skip: dict[str, int] | None = None,
    solve: bool = True,
) -> VerifyReport:
    """Contract checks over a built pipeline (no engine run).

    ``exact_skip`` supplies pre-solved §III-B5 requirements; otherwise
    ``solve=True`` (default) runs :func:`solve_skip_capacities` — cached on
    the graph, so a pipeline built with exact sizing re-uses its own
    solution.  ``solve=False`` falls back to the closed-form bound.
    """
    if exact_skip is None and solve and pipeline.skip_streams:
        exact_skip = solve_skip_capacities(pipeline.graph, partition=pipeline.partition)
    report = VerifyReport(
        subject=pipeline.graph.name,
        skip_mode="exact" if exact_skip is not None or not pipeline.skip_streams else "bound",
    )
    report.extend(_pipeline_bindings(pipeline))
    report.extend(_pipeline_arities(pipeline))
    report.extend(_pipeline_bits(pipeline))
    report.extend(_pipeline_skip_capacities(pipeline, exact_skip))
    report.extend(_pipeline_links(pipeline))
    if exact_skip:
        report.skip_capacities = dict(exact_skip)
    report.sort()
    return report


# -- partition scoring (planner API) --------------------------------------


def partition_feasibility(
    graph: LayerGraph,
    partition: list[list[str]],
    *,
    device: "FPGASpec | None" = None,
    fill_cap: float = 0.8,
    slo_fps: float | None = None,
) -> list[Diagnostic]:
    """Score a candidate partition statically — no pipeline build, no replay.

    The reusable feasibility core behind the partition planner's search
    loop: per-DFE LUT/FF/BRAM budgets at the fill cap (V701/V702/V703),
    §III-B6 link bandwidth on every crossing (V501, with the worst-case
    headroom as V502), skip streams crossing a chip boundary (V503), and an
    optional throughput SLO against the analytic rate model (V704).  An
    empty list means the candidate is feasible.
    """
    from ..hardware.device import STRATIX_V_5SGSD8
    from ..hardware.partition import partition_resources

    dev = device if device is not None else STRATIX_V_5SGSD8
    per_dfe = partition_resources(graph, partition)

    diags: list[Diagnostic] = []
    budgets = (
        ("V701", "LUT", dev.luts * fill_cap, lambda e: e.luts),
        ("V702", "FF", dev.ffs * fill_cap, lambda e: e.ffs),
        ("V703", "BRAM Kbit", dev.bram_kbits * fill_cap, lambda e: e.bram_kbits),
    )
    for idx, est in enumerate(per_dfe):
        for code, label, budget, used_of in budgets:
            used = used_of(est)
            if used > budget:
                diags.append(
                    _diag(
                        code,
                        "error",
                        f"dfe{idx}",
                        f"{label} usage {used:,.0f} exceeds the {dev.name} budget "
                        f"{budget:,.0f} (fill cap {fill_cap:.0%})",
                        "§III-B6",
                        dfe=idx,
                        used=used,
                        budget=budget,
                        fill_cap=fill_cap,
                    )
                )

    diags += _link_budget(partition_crossings(graph, partition))

    dfe_of = {n: idx for idx, group in enumerate(partition) for n in group}
    for name, node in graph.nodes.items():
        if not isinstance(node, AddNode) or name not in dfe_of:
            continue
        for parent in graph.parents(name):
            if parent in dfe_of and dfe_of[parent] != dfe_of[name]:
                diags.append(
                    _diag(
                        "V503",
                        "warning",
                        name,
                        f"skip operand from {parent!r} crosses a chip boundary; "
                        "§III-B6 keeps residual blocks on one DFE",
                        "§III-B6",
                        parent=parent,
                        parent_dfe=dfe_of[parent],
                        add_dfe=dfe_of[name],
                    )
                )

    if slo_fps is not None:
        from ..hardware.timing import estimate_network_timing

        timing = estimate_network_timing(graph, partition=partition)
        if timing.throughput_fps < slo_fps:
            diags.append(
                _diag(
                    "V704",
                    "error",
                    graph.name,
                    f"predicted throughput {timing.throughput_fps:,.1f} fps misses the "
                    f"{slo_fps:,.1f} fps SLO (bottleneck {timing.bottleneck.name!r})",
                    "§IV-B4",
                    throughput_fps=timing.throughput_fps,
                    slo_fps=slo_fps,
                    bottleneck=timing.bottleneck.name,
                )
            )
    return diags


def verify(
    graph: LayerGraph,
    partition: list[list[str]] | None = None,
    exact: bool | None = None,
    replay_budget: int = DEFAULT_REPLAY_BUDGET,
    build: bool = True,
) -> VerifyReport:
    """Full static verification of a topology: graph checks + a build + pipeline checks.

    ``partition`` (one node group per DFE, ``None`` for one DFE) places the
    graph; its crossings are :func:`~repro.dataflow.links.partition_crossings`,
    each held to one MaxRing link by
    :func:`~repro.dataflow.links.link_utilization` (V501, the worst
    headroom as V502).  There is no link argument: MaxRing is the one
    inter-DFE link.

    ``exact=None`` (default) runs the §III-B5 exact solver whenever its
    replay cost estimate fits ``replay_budget`` and falls back to the
    closed-form bound otherwise (reported as V403).  ``build=False`` skips
    pipeline construction — useful for paper-scale graphs whose kernels are
    expensive to instantiate — and keeps only the graph-level checks.
    No engine cycle is ever simulated on real data.
    """
    has_adds = any(isinstance(node, AddNode) for node in graph.nodes.values())
    structure = _graph_structure(graph)
    if any(d.severity == "error" for d in structure):
        report = VerifyReport(subject=graph.name, skip_mode="bound")
        report.extend(structure)
        report.sort()
        return report
    if exact is None:
        exact = not has_adds or estimated_replay_cost(graph) <= replay_budget
    exact_skip: dict[str, int] | None = None
    if exact and has_adds:
        exact_skip = solve_skip_capacities(graph, partition=partition)
    report = verify_graph(graph, partition=partition, exact_skip=exact_skip)
    report.skip_mode = "exact" if exact_skip is not None or not has_adds else "bound"
    if build:
        from .manager import build_pipeline

        spec = graph.input_spec
        zeros = np.zeros((1, spec.height, spec.width, spec.channels), dtype=np.int64)
        pipeline = build_pipeline(
            graph,
            zeros,
            partition=partition,
            skip_sizing="exact" if exact_skip is not None else "bound",
        )
        pipe_report = verify_pipeline(pipeline, exact_skip=exact_skip, solve=False)
        report.extend(pipe_report.diagnostics)
        if pipe_report.skip_capacities:
            report.skip_capacities.update(pipe_report.skip_capacities)
    report.sort()
    return report
