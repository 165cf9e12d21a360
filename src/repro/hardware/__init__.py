"""Hardware cost models: devices, resources, timing, power, GPU baseline."""

from .calibration import (
    DEFAULT_GPU_CAL,
    DEFAULT_POWER_CAL,
    DEFAULT_RESOURCE_CAL,
    GPUCalibration,
    PowerCalibration,
    ResourceCalibration,
)
from .device import (
    GTX1080,
    MAX4_FABRIC_MHZ,
    P100,
    STRATIX_10_PROJECTION,
    STRATIX_V_5SGSD8,
    FPGASpec,
    GPUSpec,
)
from .gpu import GPUModel, GPUTimingReport, gpu_launch_count, network_macs
from .partition import (
    PartitionResult,
    allowed_cut_positions,
    group_estimate,
    infrastructure_estimate,
    partition_crossings,
    partition_network,
    partition_resources,
    per_kernel_overhead,
)
from .power import FPGAPowerModel, PowerReport
from .report import DesignReport, build_design_report
from .resources import (
    M20K_CONFIGS,
    NetworkResources,
    NodeResources,
    ResourceEstimate,
    estimate_network,
    estimate_node,
    m20k_blocks,
    weight_cache_blocks,
)
from .timing import KernelTiming, NetworkTiming, estimate_network_timing, kernel_timing

__all__ = [
    "DEFAULT_GPU_CAL",
    "DEFAULT_POWER_CAL",
    "DEFAULT_RESOURCE_CAL",
    "GPUCalibration",
    "PowerCalibration",
    "ResourceCalibration",
    "GTX1080",
    "MAX4_FABRIC_MHZ",
    "P100",
    "STRATIX_10_PROJECTION",
    "STRATIX_V_5SGSD8",
    "FPGASpec",
    "GPUSpec",
    "GPUModel",
    "GPUTimingReport",
    "gpu_launch_count",
    "network_macs",
    "PartitionResult",
    "allowed_cut_positions",
    "partition_network",
    "group_estimate",
    "infrastructure_estimate",
    "partition_crossings",
    "partition_resources",
    "per_kernel_overhead",
    "DesignReport",
    "build_design_report",
    "FPGAPowerModel",
    "PowerReport",
    "M20K_CONFIGS",
    "NetworkResources",
    "NodeResources",
    "ResourceEstimate",
    "estimate_network",
    "estimate_node",
    "m20k_blocks",
    "weight_cache_blocks",
    "KernelTiming",
    "NetworkTiming",
    "estimate_network_timing",
    "kernel_timing",
]
