"""FPGA power and energy models (Figures 7 and 8).

Board power is static die power + board overhead per DFE, plus dynamic
power proportional to utilised resources and fabric clock — the standard
first-order CMOS model (dynamic power ∝ switched capacitance × frequency).
The calibration reproduces the paper's 12 W single-DFE operating point
(Table IVa); power then *grows with the number of DFEs* exactly as Figure 7
shows for three-DFE AlexNet.

Energy per image (Figure 8) is board power × single-image latency, matching
the paper's single-picture inference methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calibration import DEFAULT_POWER_CAL as cal
from .device import FPGASpec, MAX4_FABRIC_MHZ
from .resources import NetworkResources, ResourceEstimate

__all__ = ["FPGAPowerModel", "PowerReport"]


@dataclass(frozen=True)
class PowerReport:
    """Power breakdown of a (possibly multi-DFE) design."""

    static_w: float
    dynamic_w: float
    board_overhead_w: float
    n_dfes: int

    @property
    def total_w(self) -> float:
        return self.static_w + self.dynamic_w + self.board_overhead_w

    def energy_per_image_j(self, latency_ms: float) -> float:
        return self.total_w * latency_ms / 1000.0


class FPGAPowerModel:
    """Resource- and clock-aware FPGA board power estimator."""

    def __init__(self, device: FPGASpec) -> None:
        self.device = device

    def power(
        self,
        resources: NetworkResources | ResourceEstimate,
        n_dfes: int = 1,
        fclk_mhz: float | None = None,
    ) -> PowerReport:
        """Board power for a design using ``resources`` spread over ``n_dfes``."""
        fclk = self.device.fabric_mhz if fclk_mhz is None else fclk_mhz
        est = resources.total if isinstance(resources, NetworkResources) else resources
        scale = fclk / MAX4_FABRIC_MHZ
        dynamic = scale * (
            cal.w_per_lut_at_105mhz * est.luts
            + cal.w_per_ff_at_105mhz * est.ffs
            + cal.w_per_bram_kbit_at_105mhz * est.bram_kbits
        )
        return PowerReport(
            static_w=self.device.static_power_w * n_dfes,
            dynamic_w=dynamic,
            board_overhead_w=cal.board_overhead_w * n_dfes,
            n_dfes=n_dfes,
        )
