"""Whole-design reports: one call from network graph to deployment summary.

Bundles the cost models into the report a user actually wants when deciding
whether (and how) a network deploys on the DFE platform: resources per
kernel, partition across devices, timing, power, energy, link budgets and
the GPU baseline comparison — the full Table-III/Figure-5/7/8 story for an
arbitrary LayerGraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.graph import LayerGraph
from .device import GPUSpec, P100, STRATIX_V_5SGSD8, FPGASpec
from .gpu import GPUModel
from .partition import PartitionResult, partition_network
from .power import FPGAPowerModel, PowerReport
from .resources import NetworkResources, estimate_network
from .timing import NetworkTiming, estimate_network_timing

__all__ = ["DesignReport", "build_design_report"]


@dataclass
class DesignReport:
    """Everything the cost models can say about one network on one device."""

    graph: LayerGraph
    device: FPGASpec
    resources: NetworkResources
    partition: PartitionResult
    timing: NetworkTiming
    power: PowerReport
    gpu_spec: GPUSpec
    gpu_ms: float
    gpu_w: float

    @property
    def energy_per_image_j(self) -> float:
        return self.power.energy_per_image_j(self.timing.latency_ms)

    @property
    def gpu_energy_per_image_j(self) -> float:
        return self.gpu_w * self.gpu_ms / 1000.0

    def render(self) -> str:
        g, t, p = self.graph, self.timing, self.power
        lines = [
            f"=== design report: {g.name} on {self.device.name} ===",
            f"kernels: {len(g.nodes) - 1}; 1-bit weights: {g.total_weight_bits():,} bits",
            f"resources: {self.resources.total.luts:,.0f} LUT, "
            f"{self.resources.total.ffs:,.0f} FF, "
            f"{self.resources.total.bram_kbits:,.0f} Kbit BRAM",
            f"DFEs: {self.partition.n_dfes} (fill cap {self.partition.fill_cap:.0%})",
        ]
        for i in range(self.partition.n_dfes):
            util = self.partition.utilization(i)
            lines.append(
                f"  DFE {i}: LUT {util['lut']:.0%}, FF {util['ff']:.0%}, "
                f"BRAM {util['bram']:.0%} ({len(self.partition.groups[i])} kernels)"
            )
        for crossing in self.partition.crossings:
            u, v = crossing.edge
            lines.append(f"  link {u} -> {v}: {crossing.required_mbps:.0f} Mbps")
        lines += [
            f"latency: {t.latency_cycles:,} cycles = {t.latency_ms:.2f} ms @{t.fclk_mhz:.0f} MHz",
            f"throughput: {t.throughput_fps:,.0f} fps pipelined "
            f"(interval {t.interval_cycles:,} cycles, bottleneck {t.bottleneck.name})",
            f"overlap speedup vs layer-sequential: {t.overlap_speedup:.1f}x",
            f"power: {p.total_w:.1f} W "
            f"(static {p.static_w:.1f} + dynamic {p.dynamic_w:.1f} + board {p.board_overhead_w:.1f})",
            f"energy/image: {self.energy_per_image_j * 1000:.1f} mJ",
            f"{self.gpu_spec.name} baseline: {self.gpu_ms:.2f} ms, {self.gpu_w:.0f} W, "
            f"{self.gpu_energy_per_image_j * 1000:.1f} mJ "
            f"(DFE/GPU runtime {t.latency_ms / self.gpu_ms:.2f}x, "
            f"energy {self.gpu_energy_per_image_j / max(self.energy_per_image_j, 1e-12):.1f}x in our favour)",
        ]
        return "\n".join(lines)


def build_design_report(
    graph: LayerGraph,
    device: FPGASpec = STRATIX_V_5SGSD8,
    gpu: GPUSpec = P100,
    fill_cap: float = 0.8,
) -> DesignReport:
    """Run every cost model over ``graph`` and bundle the results."""
    partition = partition_network(graph, device=device, fill_cap=fill_cap)
    resources = estimate_network(graph, n_dfes=partition.n_dfes)
    timing = estimate_network_timing(graph, fclk_mhz=device.fabric_mhz, partition=partition.groups)
    power = FPGAPowerModel(device).power(resources, n_dfes=partition.n_dfes)
    gpu_model = GPUModel(gpu)
    return DesignReport(
        graph=graph,
        device=device,
        resources=resources,
        partition=partition,
        timing=timing,
        power=power,
        gpu_spec=gpu,
        gpu_ms=gpu_model.time_per_image(graph).per_image_ms,
        gpu_w=gpu_model.power_w(),
    )
