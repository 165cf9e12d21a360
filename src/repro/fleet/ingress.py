"""Shared PCIe ingress: one host link feeding every DFE replica.

The paper's MPC-X node hangs 8 MAX4 DFEs off one host; images reach a
replica through the node's PCIe fabric, not through private wires.  The
fleet simulator therefore serializes every image transfer over a single
:class:`~repro.dataflow.links.LinkSpec` (PCIe Gen2 x8 by default): a
transfer occupies the link for ``ceil(image_bits / bits_per_cycle)``
cycles, transfers queue FIFO in host-arrival order, and a replica sees the
image only ``link.latency_cycles`` after its transfer drains.  At the
paper's 2-bit pixel streams the link is generous (§III-C's argument), so
ingress sharing costs almost nothing at sane rates — but it is exactly
what clips the frontier when a router drives many replicas near capacity,
which is why it is modeled rather than assumed away.

Everything here is integer arithmetic over the same link math
:mod:`repro.dataflow.links` gives the cycle simulator, so fleet reports
stay deterministic and byte-identical across serial and worker-pool runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..dataflow.links import MAX4_FABRIC_MHZ, PCIE_GEN2_X8, LinkSpec

if TYPE_CHECKING:
    from ..nn.graph import TensorSpec

__all__ = ["IngressTransfer", "SharedIngress"]


@dataclass(frozen=True, slots=True)
class IngressTransfer:
    """One image's trip over the shared host link."""

    request: int  # global request index
    arrival: int  # host arrival cycle (the load generator's clock)
    start: int  # cycle the transfer won the link
    done: int  # cycle the last bit left the host
    fabric_arrival: int  # done + link latency: when the replica can see it

    @property
    def wait_cycles(self) -> int:
        """Cycles the image queued behind other transfers."""
        return self.start - self.arrival


class SharedIngress:
    """Serializes image transfers over one host link, FIFO in arrival order."""

    def __init__(self, link: LinkSpec = PCIE_GEN2_X8) -> None:
        self.link = link
        self._free_at = 0  # first cycle the link is idle again
        self.busy_cycles = 0
        self.transfers: list[IngressTransfer] = []

    def bits_per_cycle(self) -> float:
        """Link bits deliverable per fabric clock (bandwidth / f_clk)."""
        return self.link.bandwidth_gbps * 1000.0 / MAX4_FABRIC_MHZ

    def transfer_cycles(self, spec: "TensorSpec") -> int:
        """Whole cycles one image of ``spec`` occupies the link."""
        image_bits = spec.elements * spec.stream_bits
        return max(1, math.ceil(image_bits / self.bits_per_cycle()))

    def admit(self, request: int, arrival: int, spec: "TensorSpec") -> IngressTransfer:
        """Queue one image; returns its transfer span.  Call in arrival order."""
        if self.transfers and arrival < self.transfers[-1].arrival:
            raise ValueError(
                f"ingress admissions must be fed in arrival order "
                f"(got {arrival} after {self.transfers[-1].arrival})"
            )
        cycles = self.transfer_cycles(spec)
        start = max(arrival, self._free_at)
        done = start + cycles
        self._free_at = done
        self.busy_cycles += cycles
        transfer = IngressTransfer(
            request=request,
            arrival=arrival,
            start=start,
            done=done,
            fabric_arrival=done + self.link.latency_cycles,
        )
        self.transfers.append(transfer)
        return transfer

    def utilization(self) -> float:
        """Busy fraction of the link over the span it was in use."""
        if not self.transfers:
            return 0.0
        span = self.transfers[-1].done - self.transfers[0].arrival
        return self.busy_cycles / span if span > 0 else 1.0
