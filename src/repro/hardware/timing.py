"""Analytic timing model: clocks per picture, latency, throughput (§IV-B4).

The paper validates its design with a closed-form clock count ("our
theoretical estimation of the number of clocks per picture for ResNet-18
... approximately 1.85e6 ... matches the measured time at 105 MHz").  This
module implements the same style of estimate from the IR alone, using the
per-kernel cycle formulas the streaming kernels obey:

* convolution: scan of the padded grid (one element per clock, padding
  injected) plus ``O`` emit clocks at every valid output position;
* pooling / threshold / add / fork: one element per clock, no extra stalls;
* global average: the scan plus ``C`` drain clocks.

From these the model derives

* ``interval_cycles`` — steady-state clocks between consecutive images
  (the pipelined throughput bound: the slowest kernel);
* ``latency_cycles`` — single-image end-to-end clocks via a fill/tail
  recurrence over the DAG (validated against the cycle simulator);
* ``sequential_cycles`` — the sum over kernels, i.e. the "traditional
  approach in which the computation of the current layer starts once the
  previous one has finished"; the overlap speedup the streaming
  architecture buys is ``sequential / latency``.

Multi-DFE execution adds one link latency per crossing to the image
latency and (§III-B6) changes nothing else as long as the links sustain
``bits x f_clk`` — reproducing "the workload can be divided into multiple
DFEs with very small performance degradation".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataflow.links import MAXRING
from ..nn.graph import (
    AddNode,
    ConvNode,
    GlobalAvgSumNode,
    InputNode,
    LayerGraph,
    MaxPoolNode,
    ThresholdNode,
)
from .device import MAX4_FABRIC_MHZ

__all__ = ["KernelTiming", "NetworkTiming", "kernel_timing", "estimate_network_timing"]


@dataclass(frozen=True)
class KernelTiming:
    """Cycle characteristics of one streaming kernel."""

    name: str
    kind: str
    cycles_per_image: int
    fill_cycles: int
    tail_cycles: int


def kernel_timing(graph: LayerGraph, name: str) -> KernelTiming:
    """Closed-form per-image cycles for one node's kernel."""
    node = graph.nodes[name]
    parents = graph.parents(name)
    in_spec = graph.specs[parents[0]] if parents else None

    if isinstance(node, InputNode):
        spec = graph.specs[name]
        return KernelTiming(name, "input", spec.elements, 0, 0)
    if isinstance(node, ConvNode):
        hp = in_spec.height + 2 * node.pad
        wp = in_spec.width + 2 * node.pad
        scan = hp * wp * in_spec.channels
        out_spec = graph.specs[name]
        emits = out_spec.pixels * node.out_channels
        k = node.kernel_size
        fill = ((k - 1) * wp + k) * in_spec.channels + node.out_channels
        return KernelTiming(name, "conv", scan + emits, fill, node.out_channels)
    if isinstance(node, MaxPoolNode):
        hp = in_spec.height + 2 * node.pad
        wp = in_spec.width + 2 * node.pad
        scan = hp * wp * in_spec.channels
        k = node.kernel_size
        fill = ((k - 1) * wp + k) * in_spec.channels
        return KernelTiming(name, "maxpool", scan, fill, 1)
    if isinstance(node, ThresholdNode):
        return KernelTiming(name, "threshold", in_spec.elements, 1, 1)
    if isinstance(node, AddNode):
        return KernelTiming(name, "add", graph.specs[name].elements, 1, 1)
    if isinstance(node, GlobalAvgSumNode):
        c = graph.specs[name].channels
        return KernelTiming(name, "avgsum", in_spec.elements + c, in_spec.elements + 1, c)
    raise TypeError(f"no timing model for {type(node).__name__}")


@dataclass
class NetworkTiming:
    """Whole-network timing summary."""

    per_kernel: list[KernelTiming]
    interval_cycles: int
    latency_cycles: int
    sequential_cycles: int
    link_crossings: int
    fclk_mhz: float
    parameter_load_cycles: int = 0

    @property
    def bottleneck(self) -> KernelTiming:
        return max(self.per_kernel, key=lambda t: t.cycles_per_image)

    @property
    def latency_ms(self) -> float:
        return self.latency_cycles / (self.fclk_mhz * 1e3)

    @property
    def interval_ms(self) -> float:
        return self.interval_cycles / (self.fclk_mhz * 1e3)

    @property
    def throughput_fps(self) -> float:
        return 1000.0 / self.interval_ms

    @property
    def overlap_speedup(self) -> float:
        """How much layer overlap beats run-to-completion scheduling."""
        return self.sequential_cycles / self.latency_cycles

    @property
    def parameter_load_ms(self) -> float:
        """One-time cache-fill cost before inference starts (§III-B1a)."""
        return self.parameter_load_cycles / (self.fclk_mhz * 1e3)

    def at_clock(self, fclk_mhz: float) -> "NetworkTiming":
        """Re-time at another fabric clock (the Stratix 10 projection)."""
        return NetworkTiming(
            per_kernel=self.per_kernel,
            interval_cycles=self.interval_cycles,
            latency_cycles=self.latency_cycles,
            sequential_cycles=self.sequential_cycles,
            link_crossings=self.link_crossings,
            fclk_mhz=fclk_mhz,
            parameter_load_cycles=self.parameter_load_cycles,
        )


def estimate_network_timing(
    graph: LayerGraph,
    fclk_mhz: float = MAX4_FABRIC_MHZ,
    partition: list[list[str]] | None = None,
) -> NetworkTiming:
    """Analytic latency/throughput for ``graph`` (optionally multi-DFE).

    The latency recurrence per node::

        first_out(v) = max_parent first_out(p) + fill(v)
        last_out(v)  = max( max_parent last_out(p) + tail(v),
                            max_parent first_out(p) + cycles(v) )

    i.e. a kernel finishes either as soon as its last input arrives (plus
    its drain tail) or as late as its own throughput allows from the moment
    it started.  Cross-DFE edges add the MaxRing latency to both terms.
    """
    timings = {name: kernel_timing(graph, name) for name in graph.order}
    dfe_of: dict[str, int] = {}
    if partition:
        for idx, group in enumerate(partition):
            for n in group:
                dfe_of[n] = idx

    first_out: dict[str, float] = {}
    last_out: dict[str, float] = {}
    crossings = 0
    for name in graph.topological():
        t = timings[name]
        parents = graph.parents(name)
        if not parents:
            first_out[name] = 1.0
            last_out[name] = float(t.cycles_per_image)
            continue
        link_lat = 0
        for p in parents:
            if dfe_of and dfe_of.get(p, 0) != dfe_of.get(name, 0):
                crossings += 1
                link_lat = MAXRING.latency_cycles
        pf = max(first_out[p] for p in parents) + link_lat
        pl = max(last_out[p] for p in parents) + link_lat
        first_out[name] = pf + t.fill_cycles
        last_out[name] = max(pl + t.tail_cycles, pf + t.cycles_per_image)

    compute = [timings[n] for n in graph.order if timings[n].kind != "input"]
    interval = max(t.cycles_per_image for t in compute)
    sequential = sum(t.cycles_per_image for t in compute)
    latency = int(np.ceil(last_out[graph.output_name]))

    # One-time parameter fetch (§III-B1a): "the weights and normalization
    # parameters ... are loaded into their dedicated caches only once,
    # before inference of images starts."  One cache entry per cycle.
    load = 0
    for name in graph.order:
        node = graph.nodes[name]
        if isinstance(node, ConvNode):
            load += node.out_channels  # weight-cache entries
            if node.threshold is not None:
                load += node.out_channels  # normalization-cache words
        elif isinstance(node, ThresholdNode):
            load += node.unit.channels

    return NetworkTiming(
        per_kernel=compute,
        interval_cycles=interval,
        latency_cycles=latency,
        sequential_cycles=sequential,
        link_crossings=crossings,
        fclk_mhz=fclk_mhz,
        parameter_load_cycles=load,
    )
