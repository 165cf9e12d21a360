"""Multi-DFE partitioning (paper §III-B6).

"Since our architecture comprises independent kernels and the Maxeler
platform allows data to directly flow from DFE to DFE, the workload can be
divided into multiple DFEs with very small performance degradation if the
design cannot fit one DFE."

The partitioner assigns the kernel chain to the minimum number of DFEs such
that each DFE stays under a routing-friendly fill cap, keeping assignments
*contiguous in topological order* (streams only ever flow forward through
the MaxRing daisy chain).  Residual blocks are kept whole on one DFE so
skip streams never cross chips.
"""

from __future__ import annotations

from dataclasses import dataclass

# `partition_crossings` lives with MaxRing in the lowest layer; re-exported here.
from ..dataflow.links import LinkCrossing, link_utilization, partition_crossings
from ..nn.graph import AddNode, InputNode, LayerGraph
from .calibration import DEFAULT_RESOURCE_CAL as cal
from .device import FPGASpec, STRATIX_V_5SGSD8
from .resources import M20K_KBITS, ResourceEstimate, estimate_node

__all__ = [
    "PartitionResult",
    "partition_network",
    "allowed_cut_positions",
    "infrastructure_estimate",
    "per_kernel_overhead",
    "group_estimate",
    "partition_resources",
    "partition_crossings",
]


@dataclass
class PartitionResult:
    """A feasible multi-DFE assignment."""

    groups: list[list[str]]
    per_dfe: list[ResourceEstimate]
    crossings: list[LinkCrossing]
    device: FPGASpec
    fill_cap: float

    @property
    def n_dfes(self) -> int:
        return len(self.groups)

    def utilization(self, dfe: int) -> dict[str, float]:
        est = self.per_dfe[dfe]
        return {
            "lut": est.luts / self.device.luts,
            "ff": est.ffs / self.device.ffs,
            "bram": est.bram_kbits / self.device.bram_kbits,
        }

    def link_feasible(self) -> bool:
        """Every crossing fits one MaxRing link (§III-B6)."""
        return all(link_utilization(c.required_mbps) <= 1.0 for c in self.crossings)


def _compute_nodes(graph: LayerGraph) -> list[str]:
    return [n for n in graph.order if not isinstance(graph.nodes[n], InputNode)]


def allowed_cut_positions(graph: LayerGraph) -> list[int]:
    """Cut positions (in compute-node order) that keep residual blocks whole.

    Position ``p`` cuts between ``nodes[p-1]`` and ``nodes[p]``.  A position
    strictly between a residual adder and any of its operand producers would
    route a skip stream across chips (V503), so it is excluded; for linear
    graphs every interior position is allowed.  This is the one atomicity
    rule: the greedy :func:`partition_network` and the planner's search
    both cut only here.
    """
    nodes = _compute_nodes(graph)
    index = {name: i for i, name in enumerate(nodes)}
    forbidden: set[int] = set()
    for name, node in graph.nodes.items():
        if not isinstance(node, AddNode):
            continue
        a = index[name]
        for parent in graph.parents(name):
            if parent in index:
                forbidden.update(range(index[parent] + 1, a + 1))
    return [p for p in range(1, len(nodes)) if p not in forbidden]


def infrastructure_estimate() -> ResourceEstimate:
    """Per-DFE Maxeler infrastructure (PCIe/MaxRing/manager fabric)."""
    return ResourceEstimate(
        luts=cal.lut_infrastructure,
        ffs=cal.ff_infrastructure,
        bram_blocks=int(round(cal.bram_kbits_infrastructure / M20K_KBITS)),
    )


def per_kernel_overhead() -> ResourceEstimate:
    """Per-kernel manager overhead (stream FIFOs, control)."""
    return ResourceEstimate(bram_blocks=int(round(cal.bram_kbits_per_kernel / M20K_KBITS)))


def group_estimate(
    graph: LayerGraph,
    group: list[str],
    node_estimates: dict[str, ResourceEstimate] | None = None,
) -> ResourceEstimate:
    """Resources of one contiguous node group, excluding DFE infrastructure.

    ``node_estimates`` lets :func:`partition_network`, which prices every
    node once, reuse those estimates across its groups.
    """
    overhead = per_kernel_overhead()
    est = ResourceEstimate()
    for name in group:
        node_est = (
            node_estimates[name]
            if node_estimates is not None
            else estimate_node(graph, name).estimate
        )
        est = est + node_est + overhead
    return est


def partition_resources(graph: LayerGraph, partition: list[list[str]]) -> list[ResourceEstimate]:
    """Per-DFE resource ledger (infrastructure + kernels) for a partition."""
    infra = infrastructure_estimate()
    return [infra + group_estimate(graph, group) for group in partition]


def partition_network(
    graph: LayerGraph,
    device: FPGASpec = STRATIX_V_5SGSD8,
    fill_cap: float = 0.8,
) -> PartitionResult:
    """Greedy first-fit contiguous partition under the fill cap.

    The atomic units are the runs of compute nodes between consecutive
    :func:`allowed_cut_positions`, so a residual block never spans two
    DFEs.  Raises if a single unit exceeds one device (the design cannot
    be built at all, regardless of DFE count).
    """
    infra = infrastructure_estimate()
    caps = {
        "lut": device.luts * fill_cap,
        "ff": device.ffs * fill_cap,
        "bram": device.bram_kbits * fill_cap,
    }

    def fits(est: ResourceEstimate) -> bool:
        return (
            est.luts <= caps["lut"] and est.ffs <= caps["ff"] and est.bram_kbits <= caps["bram"]
        )

    groups_out: list[list[str]] = [[]]
    per_dfe: list[ResourceEstimate] = [infra]
    node_estimates = {name: estimate_node(graph, name).estimate for name in graph.order}
    nodes = _compute_nodes(graph)
    bounds = [0, *allowed_cut_positions(graph), len(nodes)]

    for lo, hi in zip(bounds, bounds[1:]):
        group = nodes[lo:hi]
        group_est = group_estimate(graph, group, node_estimates)
        if not fits(infra + group_est):
            raise ValueError(
                f"atomic group {group[0]}..{group[-1]} exceeds a single "
                f"{device.name} even empty; cannot partition"
            )
        candidate = per_dfe[-1] + group_est
        if fits(candidate):
            per_dfe[-1] = candidate
            groups_out[-1].extend(group)
        else:
            groups_out.append(list(group))
            per_dfe.append(infra + group_est)

    return PartitionResult(
        groups=groups_out,
        per_dfe=per_dfe,
        crossings=partition_crossings(graph, groups_out),
        device=device,
        fill_cap=fill_cap,
    )
