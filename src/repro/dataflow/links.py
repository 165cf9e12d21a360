"""Inter-chip link models: PCIe (CPU <-> DFE) and MaxRing (DFE <-> DFE).

The paper's §III-B6 bandwidth argument: a 2-bit pixel stream at a 105 MHz
fabric clock needs only 210 Mbps of DFE-to-DFE bandwidth, while a MaxRing
link provides several Gbps — so splitting a network across DFEs is
essentially free.

:data:`MAXRING` is the one inter-DFE link and :data:`MAX4_FABRIC_MHZ` the
simulator side's one fabric clock: nothing on that side takes a link or a
clock argument, and every cycle-to-seconds conversion outside the
device-priced hardware models (:mod:`repro.hardware.timing`,
:mod:`repro.hardware.power`) reads the clock.  A partition's crossings
have one home, :func:`partition_crossings`: the pipeline builder gives
exactly those edges MaxRing's latency, and the verifier and the
partitioners score the same list.  The §III-B6 rule is one function,
:func:`link_utilization` (required Mbps over :data:`MAXRING_MBPS`; a
crossing fits at most 1), read by V501/V502, ``PartitionResult.link_feasible``,
``repro stats`` and the telemetry link gauges.  :data:`PCIE_GEN2_X8` is
the host link the fleet's shared ingress serializes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..nn.graph import LayerGraph

__all__ = [
    "LinkCrossing",
    "LinkSpec",
    "MAXRING",
    "MAXRING_MBPS",
    "MAX4_FABRIC_MHZ",
    "PCIE_GEN2_X8",
    "link_utilization",
    "partition_crossings",
    "required_bandwidth_mbps",
]

# The paper's measured designs close timing at 105 MHz on the MAX4 fabric.
MAX4_FABRIC_MHZ = 105.0


@dataclass(frozen=True)
class LinkSpec:
    """An inter-chip serial link."""

    name: str
    bandwidth_gbps: float
    latency_cycles: int


# The paper: "this link can be set to rates of up to several Gbps".
MAXRING = LinkSpec(name="MaxRing", bandwidth_gbps=4.0, latency_cycles=16)
MAXRING_MBPS = MAXRING.bandwidth_gbps * 1000.0

# The host link; generous for a 2-bit pixel stream either way.
PCIE_GEN2_X8 = LinkSpec(name="PCIe Gen2 x8", bandwidth_gbps=32.0, latency_cycles=64)


def required_bandwidth_mbps(stream_bits: int) -> float:
    """Bandwidth for one element per clock: ``bits × f_clk`` (the paper's 210 Mbps)."""
    return stream_bits * MAX4_FABRIC_MHZ


def link_utilization(required_mbps: float) -> float:
    """Share of one MaxRing link a crossing needs (§III-B6); it fits at most 1."""
    return required_mbps / MAXRING_MBPS


@dataclass(frozen=True)
class LinkCrossing:
    """A graph edge whose endpoints sit on different DFEs, with its §III-B6 need."""

    edge: tuple[str, str]
    required_mbps: float


def partition_crossings(graph: LayerGraph, partition: list[list[str]]) -> list[LinkCrossing]:
    """The MaxRing crossings of ``partition``, one per inter-DFE graph edge.

    The input node, when no group names it, sits with the first compute
    node: the host's PCIe hop is not a MaxRing crossing.  Producers come in
    construction order, each one's consumers in added order; reports list
    the crossings in this order.
    """
    dfe_of = {name: idx for idx, group in enumerate(partition) for name in group}
    if graph.input_name is not None:
        dfe_of.setdefault(graph.input_name, dfe_of.get(graph.topological()[1], 0))
    return [
        LinkCrossing((u, v), required_bandwidth_mbps(graph.specs[u].stream_bits))
        for u in graph.order
        for v in graph.fanout[u]
        if dfe_of.get(u, 0) != dfe_of.get(v, 0)
    ]
