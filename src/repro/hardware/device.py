"""Hardware specifications (paper Table II) and device projections.

The FPGA is Intel Stratix V 5SGSD8 (one per MAX4 "Maia" DFE of the Maxeler
MPC-X node used in the paper); GPUs are the paper's two baselines.  The
Stratix 10 projection implements the paper's §IV-B4 forecast: "Intel's
upcoming Stratix 10 FPGA promises 5x higher frequency".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataflow.links import MAX4_FABRIC_MHZ

__all__ = ["FPGASpec", "GPUSpec", "STRATIX_V_5SGSD8", "STRATIX_10_PROJECTION", "P100", "GTX1080", "MAX4_FABRIC_MHZ"]


@dataclass(frozen=True)
class FPGASpec:
    """An FPGA device: capacity (Table IIb) and base power characteristics."""

    name: str
    alms: int
    m20k_blocks: int
    ffs: int
    fabric_mhz: float
    static_power_w: float

    @property
    def luts(self) -> int:
        """Usable LUT capacity: each Stratix ALM packs two combinational LUTs."""
        return 2 * self.alms

    @property
    def bram_kbits(self) -> int:
        """Total block-RAM capacity in Kbits (M20K = 20 Kbit each)."""
        return self.m20k_blocks * 20


@dataclass(frozen=True)
class GPUSpec:
    """A GPU baseline device (Table IIa) with power envelope."""

    name: str
    cuda_cores: int
    core_clock_mhz: float
    tdp_w: float
    idle_power_w: float

    @property
    def peak_fp32_gflops(self) -> float:
        """2 FLOPs per core per clock (FMA)."""
        return 2.0 * self.cuda_cores * self.core_clock_mhz / 1000.0


STRATIX_V_5SGSD8 = FPGASpec(
    name="Stratix V 5SGSD8",
    alms=262_400,
    m20k_blocks=2_567,
    ffs=1_050_000,
    fabric_mhz=MAX4_FABRIC_MHZ,
    static_power_w=2.5,
)

# §IV-B4: 5x the fabric clock, and a larger device (Stratix 10 GX 2800-class
# capacity) so bigger networks fit a single chip.
STRATIX_10_PROJECTION = FPGASpec(
    name="Stratix 10 (projection)",
    alms=933_120,
    m20k_blocks=11_721,
    ffs=3_732_480,
    fabric_mhz=5 * MAX4_FABRIC_MHZ,
    static_power_w=5.0,
)

P100 = GPUSpec(
    name="Tesla P100-12GB",
    cuda_cores=3_584,
    core_clock_mhz=1_480.0,
    tdp_w=250.0,
    idle_power_w=30.0,
)

GTX1080 = GPUSpec(
    name="GeForce GTX 1080",
    cuda_cores=2_560,
    core_clock_mhz=1_733.0,
    tdp_w=180.0,
    idle_power_w=10.0,
)
