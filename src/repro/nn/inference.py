"""Functional (vectorised) execution of the integer inference IR.

This is the reference backend: it walks the :class:`~repro.nn.graph.LayerGraph`
in topological order and evaluates each node with dense NumPy integer math.
The cycle-driven streaming backend (:mod:`repro.dataflow`) is verified
bit-exact against this executor, and this executor in turn is verified
bit-exact (modulo the documented affine) against the floating-point training
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import InputNode, LayerGraph

__all__ = ["run_graph", "classify", "InferenceResult"]


@dataclass
class InferenceResult:
    """Outputs of a graph execution."""

    output: np.ndarray
    activations: dict[str, np.ndarray]

    def logits(self, graph: LayerGraph) -> np.ndarray:
        """Float logits recovered through the exporter's output affine."""
        if graph.output_affine is None:
            raise ValueError("graph has no output affine; was it built by the exporter?")
        out = self.output
        if out.ndim >= 3 and out.shape[-3] == 1 and out.shape[-2] == 1:
            out = out[..., 0, 0, :]
        return graph.output_affine.apply(out)


def run_graph(
    graph: LayerGraph,
    x: np.ndarray,
    keep_activations: bool = False,
    use_bitops: bool = False,
) -> InferenceResult:
    """Execute ``graph`` on integer level input ``x`` (HWC or NHWC).

    Parameters
    ----------
    graph:
        The IR to execute.
    x:
        Input levels in ``[0, 2**bits)`` with shape matching the graph's
        input spec (``(H, W, C)`` or ``(N, H, W, C)``).
    keep_activations:
        Retain every node's output (for debugging / cross-backend checks).
    use_bitops:
        Evaluate convolutions through the packed XNOR/AND-popcount path
        instead of dense integer matmul.  Identical results, different
        arithmetic route — the hardware-faithful one.
    """
    graph.validate()
    spec = graph.input_spec
    x = np.asarray(x)
    expected = (spec.height, spec.width, spec.channels)
    if x.shape[-3:] != expected:
        raise ValueError(f"input shape {x.shape} does not match graph input {expected}")
    if x.min(initial=0) < 0 or x.max(initial=0) >= (1 << spec.bits):
        raise ValueError(f"input levels out of range for {spec.bits}-bit input")

    values: dict[str, np.ndarray] = {}
    for name in graph.topological():
        node = graph.nodes[name]
        if isinstance(node, InputNode):
            values[name] = x.astype(np.int64)
            continue
        inputs = [values[p] for p in graph.parents(name)]
        if use_bitops and hasattr(node, "accumulate_bitpacked"):
            in_spec = graph.specs[graph.parents(name)[0]]
            if in_spec.kind == "levels":
                acc = node.accumulate_bitpacked(inputs[0], in_spec.bits)
                unit = node.threshold
                values[name] = acc if unit is None else unit.apply(acc, channel_axis=-1)
                continue
        values[name] = node.compute(inputs)

    output = values[graph.output_name]
    acts = values if keep_activations else {}
    return InferenceResult(output=output, activations=acts)


def classify(graph: LayerGraph, x: np.ndarray) -> np.ndarray:
    """Top-1 class prediction for a batch of inputs."""
    result = run_graph(graph, x)
    logits = result.logits(graph)
    return np.argmax(logits, axis=-1)
