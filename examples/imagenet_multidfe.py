"""ImageNet-scale networks across multiple DFEs: the paper's Table III scenario.

Builds the full ResNet-18 (Table I) and AlexNet graphs at 224x224,
partitions them across Stratix V DFEs, and reports resources, timing, power
and MaxRing bandwidth — the quantities behind Tables III and Figures 5/7/8
— plus the Stratix 10 projection of §IV-B4.

Run:  python examples/imagenet_multidfe.py
"""

from repro.dataflow.links import link_utilization
from repro.hardware import (
    P100,
    STRATIX_10_PROJECTION,
    STRATIX_V_5SGSD8,
    FPGAPowerModel,
    GPUModel,
    estimate_network,
    estimate_network_timing,
    partition_network,
)
from repro.models import direct_alexnet_graph, direct_resnet18_graph


def report(name: str, graph) -> None:
    print(f"\n=== {name} @224x224 ===")
    part = partition_network(graph)
    resources = estimate_network(graph, n_dfes=part.n_dfes)
    timing = estimate_network_timing(graph, partition=part.groups)
    power = FPGAPowerModel(STRATIX_V_5SGSD8).power(resources, n_dfes=part.n_dfes)

    print(f"1-bit weights:    {graph.total_weight_bits():,} bits")
    print(f"resources:        {resources.total.luts:,.0f} LUT  "
          f"{resources.total.ffs:,.0f} FF  {resources.total.bram_kbits:,.0f} Kbit BRAM")
    print(f"DFEs required:    {part.n_dfes} (fill cap {part.fill_cap:.0%})")
    for i in range(part.n_dfes):
        util = part.utilization(i)
        print(f"  DFE {i}: LUT {util['lut']:.0%}  FF {util['ff']:.0%}  BRAM {util['bram']:.0%}  "
              f"({len(part.groups[i])} kernels)")
    for crossing in part.crossings:
        u, v = crossing.edge
        mbps = crossing.required_mbps
        print(f"  MaxRing crossing {u} -> {v}: {mbps:.0f} Mbps "
              f"({link_utilization(mbps):.1%} of link)")
    print(f"latency:          {timing.latency_cycles:,} cycles = {timing.latency_ms:.2f} ms @105 MHz")
    print(f"throughput:       {timing.throughput_fps:,.0f} fps (pipelined)")
    print(f"overlap speedup:  {timing.overlap_speedup:.1f}x vs layer-sequential")
    print(f"board power:      {power.total_w:.1f} W; energy/image "
          f"{power.energy_per_image_j(timing.latency_ms) * 1000:.1f} mJ")

    gpu = GPUModel(P100)
    gpu_ms = gpu.time_per_image(graph).per_image_ms
    print(f"P100 baseline:    {gpu_ms:.2f} ms, {gpu.power_w():.0f} W "
          f"(DFE/GPU runtime ratio {timing.latency_ms / gpu_ms:.2f})")

    s10 = timing.at_clock(STRATIX_10_PROJECTION.fabric_mhz)
    print(f"Stratix 10 (5x):  {s10.latency_ms:.2f} ms projected")


def main() -> None:
    print("building full-size graphs (random weights; cost study only)...")
    report("ResNet-18", direct_resnet18_graph())
    report("AlexNet", direct_alexnet_graph())


if __name__ == "__main__":
    main()
