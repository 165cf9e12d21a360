"""Reproduction of the paper's figures (5–8) and the §IV-B4 scalability analysis."""

from __future__ import annotations

from ..hardware import (
    GTX1080,
    P100,
    STRATIX_10_PROJECTION,
    STRATIX_V_5SGSD8,
    FPGAPowerModel,
    GPUModel,
    estimate_network,
    estimate_network_timing,
    partition_network,
)
from .reporting import ExperimentResult
from .tables import cached_graph

__all__ = [
    "figure5_runtime",
    "figure6_resources",
    "figure7_power",
    "figure8_energy",
    "scalability_analysis",
    "minibatch_analysis",
    "VGG_SWEEP_SIZES",
]

# The paper's input-size sweep: CIFAR-10 (32), STL-10 (96), STL-10 resized
# (144) on the VGG-like network, plus ImageNet (224) on ResNet-18/AlexNet.
VGG_SWEEP_SIZES = (32, 96, 144)


def _dfe_point(kind: str, size: int) -> dict:
    """(latency_ms, power_w, n_dfes, energy_j) for a network on DFEs."""
    pool_to = 4 if kind == "vgg" else None
    g = cached_graph(kind, size, pool_to=pool_to)
    part = partition_network(g)
    r = estimate_network(g, n_dfes=part.n_dfes)
    t = estimate_network_timing(g, partition=part.groups)
    power = FPGAPowerModel(STRATIX_V_5SGSD8).power(r, n_dfes=part.n_dfes)
    return {
        "latency_ms": t.latency_ms,
        "power_w": power.total_w,
        "n_dfes": part.n_dfes,
        "energy_j": power.energy_per_image_j(t.latency_ms),
        "graph": g,
    }


def _sweep_rows() -> list[dict]:
    """One row per (input size, network) operating point of Figures 5/7/8."""
    rows = []
    for size in VGG_SWEEP_SIZES:
        rows.append({"input": f"{size}x{size}", "network": "vgg-like", "kind": "vgg", "size": size})
    rows.append({"input": "224x224", "network": "alexnet", "kind": "alexnet", "size": 224})
    rows.append({"input": "224x224", "network": "resnet18", "kind": "resnet18", "size": 224})
    return rows


def figure5_runtime() -> ExperimentResult:
    """Figure 5: runtime of our architecture vs GPUs across input sizes."""
    rows = []
    for point in _sweep_rows():
        dfe = _dfe_point(point["kind"], point["size"])
        g = dfe["graph"]
        row = {
            "input": point["input"],
            "network": point["network"],
            "DFE (ms)": dfe["latency_ms"],
            "P100 (ms)": GPUModel(P100).time_per_image(g).per_image_ms,
            "GTX1080 (ms)": GPUModel(GTX1080).time_per_image(g).per_image_ms,
            "DFEs": dfe["n_dfes"],
        }
        row["DFE/GPU"] = row["DFE (ms)"] / row["P100 (ms)"]
        rows.append(row)
    notes = [
        "paper: DFE ~12% faster than GPU at 32x32; GPUs faster at larger inputs "
        "(ResNet-18 ~4x); ours reproduces both directions "
        f"(32x32 ratio {rows[0]['DFE/GPU']:.2f}, ResNet {rows[-1]['DFE/GPU']:.2f}).",
        "paper DFE measurements: 0.8 ms @32 (Table IV), 13.7/16.1 ms AlexNet/ResNet (Table III).",
    ]
    return ExperimentResult(
        exp_id="figure5",
        title="Runtime comparison vs GPUs (ms)",
        columns=["input", "network", "DFE (ms)", "P100 (ms)", "GTX1080 (ms)", "DFE/GPU", "DFEs"],
        rows=rows,
        notes=notes,
    )


def figure6_resources(sizes: tuple[int, ...] = (32, 64, 96, 144, 224)) -> ExperimentResult:
    """Figure 6: resource utilisation vs input size, change from 32x32 baseline."""
    base = estimate_network(cached_graph("vgg", 32, pool_to=4)).total
    rows = []
    for size in sizes:
        tot = estimate_network(cached_graph("vgg", size, pool_to=4)).total
        rows.append(
            {
                "input": f"{size}x{size}",
                "LUT": round(tot.luts),
                "FF": round(tot.ffs),
                "BRAM (Kbits)": round(tot.bram_kbits),
                "LUT vs 32": f"{(tot.luts / base.luts - 1) * 100:+.1f}%",
                "FF vs 32": f"{(tot.ffs / base.ffs - 1) * 100:+.1f}%",
                "BRAM vs 32": f"{(tot.bram_kbits / base.bram_kbits - 1) * 100:+.1f}%",
            }
        )
    notes = [
        "paper: 32x32 -> 96x96 increases every resource class by ~5%.",
        "the FC stage pools to a fixed 4x4 geometry (see build_vgg_like(pool_to=4)); "
        "growth therefore comes only from line-buffer length, as in the paper.",
    ]
    return ExperimentResult(
        exp_id="figure6",
        title="Resource utilisation vs input size (change from 32x32)",
        columns=["input", "LUT", "FF", "BRAM (Kbits)", "LUT vs 32", "FF vs 32", "BRAM vs 32"],
        rows=rows,
        notes=notes,
    )


def figure7_power() -> ExperimentResult:
    """Figure 7: power of FPGA- vs GPU-based systems (W)."""
    rows = []
    for point in _sweep_rows():
        dfe = _dfe_point(point["kind"], point["size"])
        row = {
            "input": point["input"],
            "network": point["network"],
            "DFE (W)": dfe["power_w"],
            "P100 (W)": GPUModel(P100).power_w(),
            "GTX1080 (W)": GPUModel(GTX1080).power_w(),
            "DFEs": dfe["n_dfes"],
        }
        row["GPU/DFE"] = row["P100 (W)"] / row["DFE (W)"]
        rows.append(row)
    notes = [
        "paper: DFE power at least 15x lower for VGG-like networks; rises when "
        "multiple DFEs are needed (AlexNet: 3).",
        f"ours: single-DFE ratio {rows[0]['GPU/DFE']:.1f}x; "
        f"AlexNet (3 DFEs) {rows[3]['GPU/DFE']:.1f}x.",
    ]
    return ExperimentResult(
        exp_id="figure7",
        title="Power comparison (W)",
        columns=["input", "network", "DFE (W)", "P100 (W)", "GTX1080 (W)", "GPU/DFE", "DFEs"],
        rows=rows,
        notes=notes,
    )


def figure8_energy() -> ExperimentResult:
    """Figure 8: energy per single-image inference (J)."""
    rows = []
    for point in _sweep_rows():
        dfe = _dfe_point(point["kind"], point["size"])
        g = dfe["graph"]
        row = {
            "input": point["input"],
            "network": point["network"],
            "DFE (J)": dfe["energy_j"],
            "P100 (J)": GPUModel(P100).energy_per_image_j(g),
            "GTX1080 (J)": GPUModel(GTX1080).energy_per_image_j(g),
        }
        row["GPU/DFE"] = row["P100 (J)"] / row["DFE (J)"]
        rows.append(row)
    notes = [
        "paper: energy up to 20x better on FPGA; at least 50% less even multi-DFE.",
        f"ours: best ratio {max(r['GPU/DFE'] for r in rows):.1f}x, "
        f"worst {min(r['GPU/DFE'] for r in rows):.1f}x.",
    ]
    return ExperimentResult(
        exp_id="figure8",
        title="Energy per inference (J)",
        columns=["input", "network", "DFE (J)", "P100 (J)", "GTX1080 (J)", "GPU/DFE"],
        rows=rows,
        notes=notes,
    )


def scalability_analysis() -> ExperimentResult:
    """§IV-B4: clocks per picture and the Stratix 10 projection."""
    g = cached_graph("resnet18")
    t = estimate_network_timing(g)
    t10 = t.at_clock(STRATIX_10_PROJECTION.fabric_mhz)
    part = partition_network(g)
    rows = [
        {
            "quantity": "ResNet-18 clocks/picture (ours)",
            "value": t.latency_cycles,
            "paper": "~1.85e6",
        },
        {"quantity": "runtime @105 MHz (ms)", "value": t.latency_ms, "paper": "16.1 measured"},
        {
            "quantity": "runtime @Stratix-10 5x clock (ms)",
            "value": t10.latency_ms,
            "paper": "3-4 projected",
        },
        {"quantity": "throughput (fps, pipelined)", "value": t.throughput_fps, "paper": ">60 required"},
        {"quantity": "DFEs required", "value": part.n_dfes, "paper": "2 (abstract)"},
        {
            "quantity": "DFEs required on Stratix 10",
            "value": partition_network(g, device=STRATIX_10_PROJECTION).n_dfes,
            "paper": "1 ('fit even bigger networks onto a single FPGA')",
        },
        {
            "quantity": "Stratix-10 DFE / P100 runtime ratio",
            "value": t10.latency_ms / GPUModel(P100).time_per_image(g).per_image_ms,
            "paper": "<1 speculated ('could outperform GPUs')",
        },
        {
            "quantity": "overlap speedup vs layer-sequential",
            "value": t.overlap_speedup,
            "paper": "(the architecture's premise)",
        },
        {
            "quantity": "one-time parameter load (ms)",
            "value": t.parameter_load_ms,
            "paper": "(loaded once before inference, §III-B1a)",
        },
    ]
    return ExperimentResult(
        exp_id="scalability",
        title="Scalability analysis (§IV-B4)",
        columns=["quantity", "value", "paper"],
        rows=rows,
    )


def minibatch_analysis(batches: tuple[int, ...] = (1, 8, 32, 128, 256)) -> ExperimentResult:
    """§IV-B1 discussion: GPUs amortise overheads over minibatches.

    "Modern GPUs can process at least 128-256 inputs with very small
    inference time degradation.  While this is not helpful in real-time
    applications, it can speed up the process if a large amount of
    already-available data must be processed."  The DFE column is constant:
    the streaming pipeline processes one image at a time by construction.
    """
    g = cached_graph("resnet18")
    dfe_ms = estimate_network_timing(g).latency_ms
    rows = []
    for batch in batches:
        rows.append(
            {
                "batch": batch,
                "P100 ms/image": GPUModel(P100).time_per_image(g, batch=batch).per_image_ms,
                "GTX1080 ms/image": GPUModel(GTX1080).time_per_image(g, batch=batch).per_image_ms,
                "DFE ms/image": dfe_ms,
            }
        )
    return ExperimentResult(
        exp_id="minibatch",
        title="GPU minibatch amortisation vs single-image DFE streaming (ResNet-18)",
        columns=["batch", "P100 ms/image", "GTX1080 ms/image", "DFE ms/image"],
        rows=rows,
        notes=[
            "real-time (batch 1): the DFE's gap to the GPU is smallest; "
            "bulk processing: GPUs pull further ahead, exactly as §IV-B1 concedes.",
        ],
    )
