"""Ablation (§III-B6): multi-DFE scale-out cost.

The paper: "the workload can be divided into multiple DFEs with very small
performance degradation", needing only 210 Mbps of the multi-Gbps MaxRing.
This bench sweeps 1..4-way splits of the same network through the cycle
simulator and measures the actual degradation, and checks the bandwidth
arithmetic on the full-size ResNet-18 partition.
"""

import numpy as np

from repro.dataflow import MAXRING, simulate
from repro.dataflow.links import link_utilization
from repro.eval.reporting import ExperimentResult
from repro.hardware import partition_network
from repro.models import direct_resnet18_graph
from repro.nn import input_to_levels
from repro.nn.export import export_model
from tests.conftest import make_tiny_chain_model


def multidfe_sweep() -> tuple[ExperimentResult, list[float]]:
    model = make_tiny_chain_model()
    graph = export_model(model, (16, 16, 3), name="tiny-chain")
    rng = np.random.default_rng(1)
    images = rng.uniform(0, 1, size=(2, 16, 16, 3))
    levels = input_to_levels(images, model.layers[0].quantizer)
    names = [n for n in graph.order if n != graph.input_name]

    rows, latencies = [], []
    base = None
    for n_dfes in (1, 2, 3, 4):
        chunk = (len(names) + n_dfes - 1) // n_dfes
        part = [names[i : i + chunk] for i in range(0, len(names), chunk)] if n_dfes > 1 else None
        sr = simulate(graph, levels, partition=part)
        if base is None:
            base = sr.latency_cycles
        latencies.append(sr.latency_cycles)
        rows.append(
            {
                "DFEs": n_dfes,
                "latency (cycles)": sr.latency_cycles,
                "degradation": f"{(sr.latency_cycles / base - 1) * 100:+.2f}%",
                "crossings": len(sr.pipeline.crossings),
            }
        )
    result = ExperimentResult(
        exp_id="ablation-multidfe",
        title="Multi-DFE scale-out degradation (§III-B6)",
        columns=["DFEs", "latency (cycles)", "degradation", "crossings"],
        rows=rows,
    )
    return result, latencies


def test_multidfe_degradation_negligible(benchmark, reporter):
    result, latencies = benchmark(multidfe_sweep)
    reporter(benchmark, result)
    base = latencies[0]
    for n_dfes, lat in enumerate(latencies[1:], start=2):
        crossings = n_dfes - 1
        extra = lat - base
        # the only cost is link latency per crossing (plus a few cycles of
        # re-buffering): on a full-size network (~1e6 cycles) this is <0.01%.
        assert 0 <= extra <= crossings * (MAXRING.latency_cycles + 8), (
            f"{n_dfes} DFEs: {extra} extra cycles for {crossings} crossings"
        )


def test_resnet18_maxring_bandwidth(benchmark):
    """Full ResNet-18 partition: every crossing needs exactly 210 Mbps."""

    def build():
        return partition_network(direct_resnet18_graph())

    part = benchmark(build)
    assert part.n_dfes == 2
    assert part.link_feasible()
    for crossing in part.crossings:
        assert crossing.required_mbps == 210.0
        assert link_utilization(crossing.required_mbps) < 0.06  # far below capacity
