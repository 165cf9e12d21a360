"""Inter-chip link models: PCIe (CPU <-> DFE) and MaxRing (DFE <-> DFE).

The paper's §III-B6 bandwidth argument: a 2-bit pixel stream at a 105 MHz
fabric clock needs only 210 Mbps of DFE-to-DFE bandwidth, while a MaxRing
link provides several Gbps — so splitting a network across DFEs is
essentially free.  These classes carry the numbers; the cycle simulator
realises a link as extra stream latency, and the verifier compares each
crossing's :func:`required_bandwidth_mbps` with the link's capacity.

:data:`MAX4_FABRIC_MHZ` is the simulator side's one fabric clock: every
cycle-to-seconds conversion outside the device-priced hardware models
(:mod:`repro.hardware.timing`, :mod:`repro.hardware.power`) reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LinkSpec", "MAXRING", "MAX4_FABRIC_MHZ", "PCIE_GEN2_X8", "required_bandwidth_mbps"]

# The paper's measured designs close timing at 105 MHz on the MAX4 fabric.
MAX4_FABRIC_MHZ = 105.0


@dataclass(frozen=True)
class LinkSpec:
    """An inter-chip serial link."""

    name: str
    bandwidth_gbps: float
    latency_cycles: int


def required_bandwidth_mbps(stream_bits: int) -> float:
    """Bandwidth for one element per clock: ``bits × f_clk`` (the paper's 210 Mbps)."""
    return stream_bits * MAX4_FABRIC_MHZ


# The paper: "this link can be set to rates of up to several Gbps".
MAXRING = LinkSpec(name="MaxRing", bandwidth_gbps=4.0, latency_cycles=16)

# The host link; generous for a 2-bit pixel stream either way.
PCIE_GEN2_X8 = LinkSpec(name="PCIe Gen2 x8", bandwidth_gbps=32.0, latency_cycles=64)
