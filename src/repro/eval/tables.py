"""Reproduction of the paper's tables (I–IV)."""

from __future__ import annotations

from functools import lru_cache

from ..baselines.finn import FINN_PAPER_POINT, finn_performance_model
from ..datasets import make_dataset
from ..hardware import (
    GTX1080,
    P100,
    STRATIX_V_5SGSD8,
    FPGAPowerModel,
    estimate_network,
    estimate_network_timing,
    partition_network,
)
from ..models import build_vgg_like, direct_alexnet_graph, direct_resnet18_graph, direct_vgg_graph
from ..nn import export_model, input_to_levels
from ..nn.graph import LayerGraph
from ..nn.training import train
from .reporting import ExperimentResult

__all__ = [
    "cached_graph",
    "table1_resnet_architecture",
    "table2_hardware_spec",
    "table3_resnet_vs_alexnet",
    "table4_finn_comparison",
    "accuracy_experiment",
]


@lru_cache(maxsize=16)
def cached_graph(kind: str, size: int = 224, pool_to: int | None = None) -> LayerGraph:
    """Build-once cache for the cost-model graphs used across experiments."""
    if kind == "vgg":
        return direct_vgg_graph(size, pool_to=pool_to)
    if kind == "alexnet":
        return direct_alexnet_graph(size)
    if kind == "resnet18":
        return direct_resnet18_graph(size)
    raise ValueError(f"unknown graph kind {kind!r}")


def table1_resnet_architecture() -> ExperimentResult:
    """Table I: the ResNet-18 layer table, derived from the built graph."""
    g = cached_graph("resnet18")
    rows = []
    spec = g.specs["conv1"]
    rows.append(
        {"layer": "conv1", "output size": f"{spec.height}x{spec.width}", "parameters": "7x7, 64, stride 2"}
    )
    stage_names = ["conv2_x", "conv3_x", "conv4_x", "conv5_x"]
    stage_channels = [64, 128, 256, 512]
    for i, (nm, c) in enumerate(zip(stage_names, stage_channels)):
        out = g.specs[f"conv{i + 2}_2.bnact2"]
        extra = "3x3 max pool /2; " if i == 0 else ""
        rows.append(
            {
                "layer": nm,
                "output size": f"{out.height}x{out.width}",
                "parameters": f"{extra}[3x3, {c}] x2 blocks x2",
            }
        )
    fc = g.specs["fc"]
    rows.append(
        {"layer": "head", "output size": "1x1", "parameters": f"avg pool, {fc.channels}-d fc, softmax"}
    )
    expected = {"conv1": (112, 112), "conv2_x": (56, 56), "conv3_x": (28, 28), "conv4_x": (14, 14), "conv5_x": (7, 7)}
    notes = []
    for row in rows[:-1]:
        nm = row["layer"]
        if nm in expected:
            got = tuple(int(v) for v in row["output size"].split("x"))
            status = "OK" if got == expected[nm] else f"MISMATCH (paper {expected[nm]})"
            notes.append(f"{nm}: {row['output size']} {status}")
    return ExperimentResult(
        exp_id="table1",
        title="ResNet-18 architecture (derived from the constructed graph)",
        columns=["layer", "output size", "parameters"],
        rows=rows,
        notes=notes,
    )


def table2_hardware_spec() -> ExperimentResult:
    """Table II: hardware specifications used by the models."""
    rows = [
        {"device": P100.name, "CUDA cores": P100.cuda_cores, "clock (MHz)": P100.core_clock_mhz},
        {"device": GTX1080.name, "CUDA cores": GTX1080.cuda_cores, "clock (MHz)": GTX1080.core_clock_mhz},
        {
            "device": STRATIX_V_5SGSD8.name,
            "ALMs": STRATIX_V_5SGSD8.alms,
            "M20K": STRATIX_V_5SGSD8.m20k_blocks,
            "FFs": STRATIX_V_5SGSD8.ffs,
        },
    ]
    return ExperimentResult(
        exp_id="table2",
        title="Hardware specifications",
        columns=["device", "CUDA cores", "clock (MHz)", "ALMs", "M20K", "FFs"],
        rows=rows,
    )


# Paper Table III values.
_TABLE3_PAPER = {
    "alexnet": {"LUT": 343295, "BRAM (Kbits)": 34600, "FF": 664767, "runtime (ms)": 13.7},
    "resnet18": {"LUT": 596081, "BRAM (Kbits)": 30854, "FF": 1175373, "runtime (ms)": 16.1},
}


def table3_resnet_vs_alexnet() -> ExperimentResult:
    """Table III: ResNet-18 vs AlexNet resources and runtime at 224x224."""
    rows = []
    results = {}
    for kind in ("alexnet", "resnet18"):
        g = cached_graph(kind)
        r = estimate_network(g)
        t = estimate_network_timing(g)
        p = partition_network(g)
        paper = _TABLE3_PAPER[kind]
        results[kind] = (r, t, p)
        rows.append(
            {
                "network": kind,
                "LUT": round(r.total.luts),
                "BRAM (Kbits)": round(r.total.bram_kbits),
                "FF": round(r.total.ffs),
                "runtime (ms)": t.latency_ms,
                "DFEs": p.n_dfes,
                "paper LUT": paper["LUT"],
                "paper BRAM": paper["BRAM (Kbits)"],
                "paper FF": paper["FF"],
                "paper ms": paper["runtime (ms)"],
            }
        )
    r_ax, t_ax, _ = results["alexnet"]
    r_rn, t_rn, _ = results["resnet18"]
    notes = [
        f"ResNet/AlexNet LUT ratio: ours {r_rn.total.luts / r_ax.total.luts:.2f} vs paper {596081 / 343295:.2f}",
        f"ResNet BRAM < AlexNet BRAM: ours {r_rn.total.bram_kbits < r_ax.total.bram_kbits} (paper: True)",
        f"ResNet/AlexNet runtime: ours {t_rn.latency_ms / t_ax.latency_ms:.2f}x vs paper 1.18x",
        "AlexNet BRAM exceeds the paper's figure: its 62.4 Mbit of raw 1-bit weights "
        "cannot fit 34.6 Mbit; see EXPERIMENTS.md.",
    ]
    return ExperimentResult(
        exp_id="table3",
        title="ResNet-18 vs AlexNet (224x224)",
        columns=[
            "network", "LUT", "BRAM (Kbits)", "FF", "runtime (ms)", "DFEs",
            "paper LUT", "paper BRAM", "paper FF", "paper ms",
        ],
        rows=rows,
        notes=notes,
    )


def accuracy_experiment(
    act_bits: int,
    input_size: int = 16,
    width: float = 0.25,
    classes: int = 5,
    epochs: int = 6,
    n_train: int = 320,
    n_test: int = 160,
    seed: int = 0,
) -> float:
    """Train a (scaled-down) VGG-like QNN and return integer-path accuracy.

    Used for the accuracy rows of Table IV and the 1-bit-vs-2-bit
    activation claim: the same topology trained with 1-bit and 2-bit
    activations, evaluated through the exported integer graph.
    """
    ds = make_dataset("cifar10-like", n_train=n_train, n_test=n_test, classes=classes,
                      size=input_size, seed=seed)
    model = build_vgg_like(
        input_size=input_size, classes=classes, act_bits=act_bits, width=width, seed=seed
    )
    train(model, ds.x_train, ds.y_train, epochs=epochs, batch_size=32, lr=2e-3, seed=seed)
    graph = export_model(model, ds.input_shape, name=f"vgg-acc-{act_bits}b")
    in_q = model.layers[0].quantizer
    levels = input_to_levels(ds.x_test, in_q)
    from ..nn.inference import classify

    preds = classify(graph, levels)
    return float((preds == ds.y_test).mean())


def table4_finn_comparison(train_accuracy: bool = True) -> ExperimentResult:
    """Table IV: comparison with FINN at 32x32.

    Resources/time/power for our DFE come from the cost models on the full
    VGG-like network; the FINN column reports their published point plus
    our folded-MVU throughput model.  Accuracy (when ``train_accuracy``)
    comes from actually training scaled-down 1-bit vs 2-bit instances on
    the synthetic CIFAR-like dataset — reproducing the *ordering*, not the
    absolute ImageNet-scale numbers.
    """
    g = cached_graph("vgg", 32)
    r = estimate_network(g)
    t = estimate_network_timing(g)
    power = FPGAPowerModel(STRATIX_V_5SGSD8).power(r)
    finn_perf = finn_performance_model(g)

    acc_ours = acc_finn = float("nan")
    if train_accuracy:
        acc_ours = accuracy_experiment(act_bits=2)
        acc_finn = accuracy_experiment(act_bits=1)

    rows = [
        {
            "metric": "time (ms)",
            "FINN": FINN_PAPER_POINT.time_ms,
            "FINN (our model)": finn_perf["time_ms"],
            "DFE (ours)": t.latency_ms,
            "DFE (paper)": 0.8,
        },
        {
            "metric": "power (W)",
            "FINN": FINN_PAPER_POINT.power_w,
            "DFE (ours)": power.total_w,
            "DFE (paper)": 12.0,
        },
        {
            "metric": "accuracy",
            "FINN": FINN_PAPER_POINT.accuracy,
            "FINN (our model)": acc_finn,
            "DFE (ours)": acc_ours,
            "DFE (paper)": 0.842,
        },
        {
            "metric": "LUT",
            "FINN": FINN_PAPER_POINT.luts,
            "DFE (ours)": round(r.total.luts),
            "DFE (paper)": 133887,
        },
        {
            "metric": "BRAM (Kbits)",
            "FINN": FINN_PAPER_POINT.bram_kbits,
            "DFE (ours)": round(r.total.bram_kbits),
            "DFE (paper)": 11020,
        },
        {
            "metric": "FF",
            "DFE (ours)": round(r.total.ffs),
            "DFE (paper)": 278501,
        },
    ]
    notes = [
        "FINN accuracy/resources are their published Zynq numbers (different vendor; "
        "the paper compares trends, not absolutes).",
        "accuracy rows are synthetic-data scaled-down instances: the reproduced claim "
        "is the ordering 2-bit > 1-bit, matching 84.2% > 80.1%.",
    ]
    return ExperimentResult(
        exp_id="table4",
        title="Comparison with FINN (32x32)",
        columns=["metric", "FINN", "FINN (our model)", "DFE (ours)", "DFE (paper)"],
        rows=rows,
        notes=notes,
    )
