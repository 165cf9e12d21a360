"""FPGA resource estimation for a LayerGraph (paper Tables III, IV; Figure 6).

The estimators implement the storage arithmetic the paper spells out and
translate it to LUT/FF/BRAM with the calibrated constants:

* **Weight cache** (§III-B1a): each conv/FC layer stores ``O`` entries of
  ``K·K·I`` bits so one output pixel's weights are readable in one cycle.
  M20K block RAMs have fixed width/depth configurations with minimum depth
  512, so "at least 25% of each BRAM used for weights cache is wasted"
  whenever ``O <= 384`` — the waste emerges from the geometry model here.
* **Normalization cache**: ``O`` entries of 64 bits (two packed 32-bit
  parameters per channel, §III-B3).
* **Window buffers** (§III-B1b): depth-first shift registers of
  ``I·L·(K−1) + I·K`` elements, held in flip-flops.
* **Skip delay buffers** (§III-B5): same element count as the skipped
  convolution's buffer, 16 bits wide, held in FMem (BRAM).
* **Compute**: XNOR + popcount adder trees sized by ``K·K·I`` inputs per
  activation bit-plane; 16-bit adders for residual sums; a ``2^n -> 1``
  multiplexer + comparator cascade per threshold unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..dataflow.window import depth_first_buffer_elements
from ..nn.graph import (
    AddNode,
    ConvNode,
    GlobalAvgSumNode,
    InputNode,
    LayerGraph,
    MaxPoolNode,
    ThresholdNode,
)
from .calibration import DEFAULT_RESOURCE_CAL as cal  # the fitted constants every estimator reads
from .device import FPGASpec

__all__ = [
    "M20K_CONFIGS",
    "m20k_blocks",
    "ResourceEstimate",
    "NodeResources",
    "NetworkResources",
    "weight_cache_blocks",
    "estimate_node",
    "estimate_network",
]

# Stratix V M20K width/depth configurations (bits x entries).
M20K_CONFIGS: tuple[tuple[int, int], ...] = (
    (512, 40),
    (1024, 20),
    (2048, 10),
    (4096, 5),
    (8192, 2),
    (16384, 1),
)

M20K_KBITS = 20


def m20k_blocks(width_bits: int, depth: int) -> int:
    """Minimum M20K blocks for a ``depth x width`` single-port memory.

    Tries every legal configuration and tiles the requested geometry; the
    minimum-depth-512 constraint is what makes shallow weight caches wasteful.
    """
    if width_bits <= 0 or depth <= 0:
        return 0
    return min(
        -(-width_bits // cfg_width) * -(-depth // cfg_depth)
        for cfg_depth, cfg_width in M20K_CONFIGS
    )


@dataclass(frozen=True)
class ResourceEstimate:
    """A LUT / FF / BRAM triple (BRAM in allocated blocks and Kbits)."""

    luts: float = 0.0
    ffs: float = 0.0
    bram_blocks: int = 0

    @property
    def bram_kbits(self) -> float:
        return self.bram_blocks * M20K_KBITS

    def __add__(self, other: "ResourceEstimate") -> "ResourceEstimate":
        return ResourceEstimate(
            luts=self.luts + other.luts,
            ffs=self.ffs + other.ffs,
            bram_blocks=self.bram_blocks + other.bram_blocks,
        )

    def scaled(self, factor: float) -> "ResourceEstimate":
        return ResourceEstimate(
            luts=self.luts * factor,
            ffs=self.ffs * factor,
            bram_blocks=int(round(self.bram_blocks * factor)),
        )


@dataclass(frozen=True)
class NodeResources:
    """Resources of one kernel plus explanatory detail."""

    name: str
    kind: str
    estimate: ResourceEstimate
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class NetworkResources:
    """Roll-up over a LayerGraph."""

    per_node: list[NodeResources]
    infrastructure: ResourceEstimate
    total: ResourceEstimate

    def utilization(self, device: FPGASpec) -> dict[str, float]:
        """Fraction of device capacity consumed per resource class."""
        return {
            "lut": self.total.luts / device.luts,
            "ff": self.total.ffs / device.ffs,
            "bram": self.total.bram_kbits / device.bram_kbits,
        }

    def max_utilization(self, device: FPGASpec) -> float:
        return max(self.utilization(device).values())


def weight_cache_blocks(node: ConvNode) -> tuple[int, float]:
    """(M20K blocks, waste fraction) of a conv layer's weight cache.

    The cache stores ``O`` entries of ``K·K·I`` bits (one output pixel's
    weights per entry, §III-B1a).
    """
    width = node.kernel_size * node.kernel_size * node.in_channels
    depth = node.out_channels
    blocks = m20k_blocks(width, depth)
    raw_bits = width * depth
    allocated_bits = blocks * M20K_KBITS * 1024
    waste = 1.0 - raw_bits / allocated_bits if allocated_bits else 0.0
    return blocks, waste


def _conv_resources(graph: LayerGraph, name: str, node: ConvNode) -> NodeResources:
    in_spec = graph.specs[graph.parents(name)[0]]
    padded_line = in_spec.width + 2 * node.pad
    buffer_elements = depth_first_buffer_elements(padded_line, node.in_channels, node.kernel_size)
    buffer_bits = buffer_elements * in_spec.bits
    popcount_inputs = node.kernel_size * node.kernel_size * node.in_channels
    tree_bits = popcount_inputs * max(1, in_spec.bits)

    luts = (
        cal.lut_per_popcount_bit * tree_bits
        + cal.lut_per_buffer_bit * buffer_bits
        + cal.lut_kernel_base
    )
    ffs = (
        cal.ff_per_buffer_bit * buffer_bits
        + cal.ff_pipeline_per_popcount_bit * tree_bits
        + cal.ff_kernel_base
    )
    wblocks, waste = weight_cache_blocks(node)
    blocks = wblocks
    detail = {
        "buffer_elements": buffer_elements,
        "buffer_bits": buffer_bits,
        "popcount_inputs": popcount_inputs,
        "weight_cache_blocks": wblocks,
        "weight_cache_waste": waste,
        "weight_bits": node.weight_count,
    }
    if node.threshold is not None:
        # Normalization cache: O entries x 64 bits; comparator + mux logic.
        blocks += m20k_blocks(64, node.out_channels)
        levels = 1 << node.threshold.bits
        luts += cal.lut_per_adder_bit * 16 * (levels - 1) + levels  # comparators + mux
    return NodeResources(
        name=name,
        kind="conv",
        estimate=ResourceEstimate(luts=luts, ffs=ffs, bram_blocks=blocks),
        detail=detail,
    )


def _pool_resources(graph: LayerGraph, name: str, node: MaxPoolNode) -> NodeResources:
    in_spec = graph.specs[graph.parents(name)[0]]
    padded_line = in_spec.width + 2 * node.pad
    buffer_elements = depth_first_buffer_elements(padded_line, in_spec.channels, node.kernel_size)
    buffer_bits = buffer_elements * in_spec.bits
    # Comparators over the K x K window of n-bit values.
    luts = (
        cal.lut_per_adder_bit * in_spec.bits * (node.kernel_size**2 - 1)
        + cal.lut_per_buffer_bit * buffer_bits
        + cal.lut_kernel_base * 0.5
    )
    ffs = cal.ff_per_buffer_bit * buffer_bits + cal.ff_kernel_base * 0.5
    return NodeResources(
        name=name,
        kind="maxpool",
        estimate=ResourceEstimate(luts=luts, ffs=ffs, bram_blocks=0),
        detail={"buffer_elements": buffer_elements, "buffer_bits": buffer_bits},
    )


def _threshold_resources(graph: LayerGraph, name: str, node: ThresholdNode) -> NodeResources:
    levels = 1 << node.unit.bits
    luts = cal.lut_per_adder_bit * 16 * (levels - 1) + levels + cal.lut_kernel_base * 0.25
    ffs = cal.ff_kernel_base * 0.25
    blocks = m20k_blocks(64, node.unit.channels)
    return NodeResources(
        name=name,
        kind="threshold",
        estimate=ResourceEstimate(luts=luts, ffs=ffs, bram_blocks=blocks),
        detail={"channels": node.unit.channels},
    )


def _add_resources(graph: LayerGraph, name: str, node: AddNode) -> NodeResources:
    """The §III-B5 skip infrastructure: one 16-bit adder + the delay buffer.

    The delay buffer matches the convolution buffer of the regular-path
    convolution feeding port 0 ("exactly same size ... not accidental") and
    lives in FMem at 16 bits per element.
    """
    parents = graph.parents(name)
    conv_parent = graph.nodes[parents[0]]
    if isinstance(conv_parent, ConvNode):
        conv_in = graph.specs[graph.parents(parents[0])[0]]
        padded_line = conv_in.width + 2 * conv_parent.pad
        elements = depth_first_buffer_elements(
            padded_line, conv_parent.in_channels, conv_parent.kernel_size
        )
    else:  # defensive: size on the output tensor
        elements = graph.specs[name].elements
    skip_bits = elements * 16
    blocks = m20k_blocks(16, elements)
    luts = cal.lut_per_adder_bit * 16 + cal.lut_per_skip_bit * skip_bits + cal.lut_kernel_base * 0.1
    ffs = cal.ff_per_skip_bit * skip_bits + cal.ff_kernel_base * 0.1
    return NodeResources(
        name=name,
        kind="add",
        estimate=ResourceEstimate(luts=luts, ffs=ffs, bram_blocks=blocks),
        detail={"skip_buffer_elements": elements, "skip_buffer_bits": skip_bits},
    )


def _avg_resources(graph: LayerGraph, name: str, node: GlobalAvgSumNode) -> NodeResources:
    spec = graph.specs[name]
    acc_bits = spec.bits
    ffs = spec.channels * acc_bits + cal.ff_kernel_base * 0.25
    luts = cal.lut_per_adder_bit * acc_bits + cal.lut_kernel_base * 0.25
    return NodeResources(
        name=name, kind="avgsum", estimate=ResourceEstimate(luts=luts, ffs=ffs), detail={}
    )


def estimate_node(graph: LayerGraph, name: str) -> NodeResources:
    """Resource estimate of a single IR node's streaming kernel."""
    node = graph.nodes[name]
    if isinstance(node, ConvNode):
        return _conv_resources(graph, name, node)
    if isinstance(node, MaxPoolNode):
        return _pool_resources(graph, name, node)
    if isinstance(node, ThresholdNode):
        return _threshold_resources(graph, name, node)
    if isinstance(node, AddNode):
        return _add_resources(graph, name, node)
    if isinstance(node, GlobalAvgSumNode):
        return _avg_resources(graph, name, node)
    if isinstance(node, InputNode):
        return NodeResources(name=name, kind="input", estimate=ResourceEstimate(), detail={})
    raise TypeError(f"no resource model for {type(node).__name__}")


def estimate_network(
    graph: LayerGraph,
    n_dfes: int = 1,
) -> NetworkResources:
    """Estimate the whole network, including per-DFE Maxeler infrastructure."""
    per_node = [estimate_node(graph, name) for name in graph.order]
    kernel_count = sum(1 for nr in per_node if nr.kind != "input")
    infra = ResourceEstimate(
        luts=cal.lut_infrastructure * n_dfes,
        ffs=cal.ff_infrastructure * n_dfes,
        bram_blocks=int(
            round(
                (cal.bram_kbits_infrastructure * n_dfes + cal.bram_kbits_per_kernel * kernel_count)
                / M20K_KBITS
            )
        ),
    )
    total = infra
    for nr in per_node:
        total = total + nr.estimate
    return NetworkResources(per_node=per_node, infrastructure=infra, total=total)
