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

from ..dataflow.links import MAXRING, LinkSpec, required_bandwidth_mbps
from ..nn.graph import AddNode, InputNode, LayerGraph
from .calibration import DEFAULT_RESOURCE_CAL, ResourceCalibration
from .device import FPGASpec, STRATIX_V_5SGSD8
from .resources import M20K_KBITS, ResourceEstimate, estimate_node

__all__ = [
    "PartitionResult",
    "partition_network",
    "atomic_groups",
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
    crossings: list[tuple[str, str, float]]  # (from, to, required Mbps)
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

    def link_feasible(self, link: LinkSpec = MAXRING) -> bool:
        return all(mbps <= link.bandwidth_gbps * 1000.0 for _, _, mbps in self.crossings)


def atomic_groups(graph: LayerGraph) -> list[list[str]]:
    """Split node order into atomic units that must share a DFE.

    A residual block (everything between a fork point and its re-joining
    AddNode chain) is atomic: skip streams stay on-chip.  We approximate
    this by grouping each AddNode with every node between its two parents'
    common ancestor and itself; for graphs built by the exporter this keeps
    each ``QResidualBlock`` expansion together.
    """
    order = [n for n in graph.order if not isinstance(graph.nodes[n], InputNode)]
    groups: list[list[str]] = []
    i = 0
    name_to_idx = {n: i for i, n in enumerate(order)}
    while i < len(order):
        name = order[i]
        # Find the furthest AddNode consumer chain reachable through fan-out.
        j = i
        frontier = [name]
        while frontier:
            nxt: list[str] = []
            for n in frontier:
                for consumer in graph.consumers(n):
                    if isinstance(graph.nodes[consumer], AddNode):
                        j = max(j, name_to_idx[consumer])
                        nxt.append(consumer)
            frontier = nxt
        if j == i:
            groups.append([name])
            i += 1
        else:
            groups.append(order[i : j + 1])
            i = j + 1
    return groups


def infrastructure_estimate(cal: ResourceCalibration = DEFAULT_RESOURCE_CAL) -> ResourceEstimate:
    """Per-DFE Maxeler infrastructure (PCIe/MaxRing/manager fabric)."""
    return ResourceEstimate(
        luts=cal.lut_infrastructure,
        ffs=cal.ff_infrastructure,
        bram_blocks=int(round(cal.bram_kbits_infrastructure / M20K_KBITS)),
    )


def per_kernel_overhead(cal: ResourceCalibration = DEFAULT_RESOURCE_CAL) -> ResourceEstimate:
    """Per-kernel manager overhead (stream FIFOs, control)."""
    return ResourceEstimate(bram_blocks=int(round(cal.bram_kbits_per_kernel / M20K_KBITS)))


def group_estimate(
    graph: LayerGraph,
    group: list[str],
    cal: ResourceCalibration = DEFAULT_RESOURCE_CAL,
    node_estimates: dict[str, ResourceEstimate] | None = None,
) -> ResourceEstimate:
    """Resources of one contiguous node group, excluding DFE infrastructure.

    ``node_estimates`` lets callers that score many candidate partitions
    (the planner's DP) amortize the per-node estimation over the search.
    """
    overhead = per_kernel_overhead(cal)
    est = ResourceEstimate()
    for name in group:
        node_est = (
            node_estimates[name]
            if node_estimates is not None
            else estimate_node(graph, name, cal).estimate
        )
        est = est + node_est + overhead
    return est


def partition_resources(
    graph: LayerGraph,
    partition: list[list[str]],
    cal: ResourceCalibration = DEFAULT_RESOURCE_CAL,
    node_estimates: dict[str, ResourceEstimate] | None = None,
) -> list[ResourceEstimate]:
    """Per-DFE resource ledger (infrastructure + kernels) for a partition."""
    infra = infrastructure_estimate(cal)
    return [
        infra + group_estimate(graph, group, cal, node_estimates) for group in partition
    ]


def partition_crossings(
    graph: LayerGraph,
    partition: list[list[str]],
    fclk_mhz: float = 105.0,
) -> list[tuple[str, str, float]]:
    """Inter-DFE edges of a partition with their §III-B6 bandwidth needs.

    Nodes absent from every group (the input) are attributed to DFE 0.
    """
    dfe_of: dict[str, int] = {}
    for idx, g in enumerate(partition):
        for n in g:
            dfe_of[n] = idx
    if graph.input_name is not None:
        dfe_of.setdefault(graph.input_name, 0)
    crossings: list[tuple[str, str, float]] = []
    # Producers in construction order, each one's consumers in added order:
    # reports list the crossings in this order.
    for u in graph.order:
        for v in graph.fanout[u]:
            if dfe_of.get(u, 0) != dfe_of.get(v, 0):
                bits = graph.specs[u].stream_bits
                crossings.append((u, v, required_bandwidth_mbps(bits, fclk_mhz)))
    return crossings


def partition_network(
    graph: LayerGraph,
    device: FPGASpec = STRATIX_V_5SGSD8,
    cal: ResourceCalibration = DEFAULT_RESOURCE_CAL,
    fill_cap: float = 0.8,
    fclk_mhz: float = 105.0,
) -> PartitionResult:
    """Greedy first-fit contiguous partition under the fill cap.

    Raises if a single atomic group exceeds one device (the design cannot
    be built at all, regardless of DFE count).
    """
    infra = infrastructure_estimate(cal)
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
    node_estimates = {name: estimate_node(graph, name, cal).estimate for name in graph.order}

    for group in atomic_groups(graph):
        group_est = group_estimate(graph, group, cal, node_estimates)
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
        crossings=partition_crossings(graph, groups_out, fclk_mhz),
        device=device,
        fill_cap=fill_cap,
    )
