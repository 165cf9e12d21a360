"""Bottleneck attribution: who is stalling whom, and through which edge.

``python -m repro stats`` runs a pipeline (or inspects one that just ran)
and produces a ranked report: every kernel with its stall-adjusted
utilization (``busy / (busy + starved + blocked)``), a verdict naming the
dominant stall cause, and the specific edge responsible — the input FIFO
that ran dry for a starved kernel, the output FIFO that filled for a
blocked one.  Edge names are the engine's stream names, the same strings
:mod:`repro.dataflow.verify` anchors its diagnostics to, so the report and
``repro check`` point at the same place (tested property: on an
undersized-skip topology the attribution's root edge equals V301's
``where``).

For a deadlocked run the root cause is found by walking the blame chain
downstream: start from any kernel blocked on a full output and follow full
streams reader-to-reader until the reader is no longer blocked — the last
full stream is the root edge (for an undersized skip FIFO: the fork is
blocked on the full skip arm while the adder starves on port 0, so the
walk stops at the skip stream, exactly where V301 points).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..dataflow.engine import DEFAULT_MAX_CYCLES, CycleBudgetExceeded
from ..dataflow.interval import mean_completion_interval
from ..dataflow.links import MAX4_FABRIC_MHZ, MAXRING, MAXRING_MBPS, link_utilization
from ..dataflow.tracing import LayerRow, LayerTable

if TYPE_CHECKING:
    from ..dataflow.engine import Engine
    from ..dataflow.manager import Pipeline
    from ..nn.graph import LayerGraph

__all__ = [
    "AttributionReport",
    "deadlock_root_edge",
    "attribute_run",
    "run_attributed",
]


@dataclass(slots=True)
class AttributionReport:
    """The full bottleneck report for one run."""

    graph_name: str
    cycles: int
    aborted: bool
    abort_message: str | None
    images: int
    latency_cycles: int | None
    interval_cycles: float | None
    fps: float | None
    initiation_cycles: int | None
    kernels: list[LayerRow] = field(default_factory=list)
    root_edge: str | None = None
    root_capacity: int | None = None
    root_required: int | None = None
    links: list[dict[str, Any]] = field(default_factory=list)
    bram: list[dict[str, Any]] = field(default_factory=list)

    def render(self) -> str:
        status = "ABORTED (deadlock or budget)" if self.aborted else "ok"
        lines = [
            f"stats {self.graph_name}: {status} after {self.cycles:,} cycles, "
            f"{self.images} image(s) completed"
        ]
        if self.root_edge is not None:
            detail = ""
            if self.root_required is not None and self.root_capacity is not None:
                detail = (
                    f" (capacity {self.root_capacity}, minimum safe capacity "
                    f"{self.root_required} per the SIII-B5 solver)"
                )
            lines.append(f"  root bottleneck edge: {self.root_edge!r}{detail}")
        lines.append("  kernels by stall-adjusted utilization (worst first):")
        header = f"    {'kernel':<22} {'util':>6} {'busy':>10} {'starved':>10} {'blocked':>10} {'idle':>10}  cause"
        lines.append(header)
        for k in self.kernels:
            cause = k.verdict
            if k.edge is not None:
                cause += f" ({k.edge_role} edge {k.edge!r})"
            lines.append(
                f"    {k.name:<22} {k.utilization:>6.1%} {k.busy:>10,} {k.starved:>10,} "
                f"{k.blocked:>10,} {k.idle:>10,}  {cause}"
            )
        lines.append("  paper summary:")
        # Explicit n/a markers: an aborted/deadlocked run may have zero
        # completed images, and silently omitting the headline quantities
        # reads like an oversight rather than a measurement that does not
        # exist.
        if self.initiation_cycles is not None:
            lines.append(f"    initiation interval: {self.initiation_cycles:,} cycles  [SIV-B4]")
        else:
            lines.append("    initiation interval: n/a (no kernel became active)")
        if self.latency_cycles is not None:
            lines.append(f"    first-image latency: {self.latency_cycles:,} cycles")
        else:
            lines.append("    first-image latency: n/a (no image completed)")
        if self.interval_cycles is not None and self.fps is not None:
            lines.append(
                f"    steady-state interval: {self.interval_cycles:,.1f} cycles/image "
                f"-> {self.fps:,.1f} FPS @ {MAX4_FABRIC_MHZ:g} MHz"
            )
        else:
            lines.append(
                "    steady-state interval / FPS: n/a (needs two completed images)"
            )
        for link in self.links:
            lines.append(
                f"    link {link['edge']}: {link['required_mbps']:,.0f} Mbps required vs "
                f"{link['capacity_mbps']:,.0f} Mbps capacity "
                f"({link['utilization']:.1%} used)  [SIII-B6]"
            )
        for row in self.bram:
            lines.append(
                f"    BRAM {row['node']}: wastes {row['waste']:.0%} of {row['blocks']} "
                f"M20K block(s)  [SIII-B1a]"
            )
        return "\n".join(lines)


def deadlock_root_edge(engine: "Engine") -> str | None:
    """Walk the blame chain to the full stream that originates the backpressure."""

    def blocked_output(kernel: Any) -> Any:
        for stream in kernel.outputs:
            if stream.occupancy >= stream.capacity:
                return stream
        return None

    start = None
    for kernel in engine.kernels:
        start = blocked_output(kernel)
        if start is not None:
            break
    if start is None:
        return None
    visited = {id(start)}
    current = start
    while True:
        reader = current.reader
        if reader is None:
            return current.name
        downstream = blocked_output(reader)
        if downstream is None or id(downstream) in visited:
            return current.name
        visited.add(id(downstream))
        current = downstream


def attribute_run(
    pipeline: "Pipeline",
    cycles: int,
    aborted: bool = False,
    abort_message: str | None = None,
) -> AttributionReport:
    """Build the attribution report from a pipeline's post-run engine state."""
    from ..hardware.resources import weight_cache_blocks
    from ..nn.graph import ConvNode

    engine = pipeline.engine
    table = LayerTable.of(pipeline)

    completions = pipeline.sink.completion_cycles
    latency = completions[0] if completions else None
    interval = mean_completion_interval(completions)
    fps = MAX4_FABRIC_MHZ * 1e6 / interval if interval else None

    root_edge: str | None = None
    root_capacity: int | None = None
    root_required: int | None = None
    if aborted:
        root_edge = deadlock_root_edge(engine)
        if root_edge is not None:
            stream = next((s for s in engine.streams if s.name == root_edge), None)
            if stream is not None:
                root_capacity = stream.capacity
            # If the root is a skip FIFO, the SIII-B5 solver names the
            # minimum safe capacity — the same number V301 reports.
            for add_name, skip in pipeline.skip_streams.items():
                if skip.name == root_edge:
                    from ..dataflow.verify import solve_skip_capacities

                    required = solve_skip_capacities(pipeline.graph, partition=pipeline.partition)
                    root_required = required[add_name]
                    break

    links: list[dict[str, Any]] = [
        {
            "edge": "->".join(crossing.edge),
            "required_mbps": crossing.required_mbps,
            "capacity_mbps": MAXRING_MBPS,
            "utilization": link_utilization(crossing.required_mbps),
            "link": MAXRING.name,
        }
        for crossing in pipeline.crossings
    ]

    bram: list[dict[str, Any]] = []
    for name, node in pipeline.graph.nodes.items():
        if not isinstance(node, ConvNode):
            continue
        blocks, waste = weight_cache_blocks(node)
        if blocks and waste >= 0.25:
            bram.append({"node": name, "blocks": blocks, "waste": waste})

    return AttributionReport(
        graph_name=pipeline.graph.name,
        cycles=cycles,
        aborted=aborted,
        abort_message=abort_message,
        images=len(completions),
        latency_cycles=latency,
        interval_cycles=interval,
        fps=fps,
        initiation_cycles=table.initiation_interval,
        kernels=sorted(table.rows, key=lambda k: (k.utilization, k.name)),
        root_edge=root_edge,
        root_capacity=root_capacity,
        root_required=root_required,
        links=links,
        bram=bram,
    )


def run_attributed(
    graph: "LayerGraph",
    images: np.ndarray,
    *,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    mode: str = "leap",
    skip_sizing: "str | dict[str, int]" = "exact",
) -> AttributionReport:
    """Run ``images`` through ``graph`` and attribute the result.

    Unlike :func:`repro.dataflow.manager.simulate`, a run that exhausts its
    cycle budget (deadlock or too small a budget) does not propagate: the
    engine's settled stall counters at the abort point are exactly what
    the attribution needs, so the report is built either way and carries
    the abort message.  Any other error propagates.
    """
    from ..dataflow.manager import simulate

    try:
        run = simulate(graph, images, max_cycles=max_cycles, skip_sizing=skip_sizing, mode=mode)
    except CycleBudgetExceeded as err:
        return attribute_run(err.pipeline, max_cycles, aborted=True, abort_message=str(err))
    return attribute_run(run.pipeline, run.cycles)
