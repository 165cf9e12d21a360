"""Integer inference IR: the layer graph shared by every execution backend.

A :class:`LayerGraph` is a DAG of integer-domain nodes.  The same graph is

* executed functionally (vectorised NumPy) by :mod:`repro.nn.inference`,
* lowered to cycle-driven streaming kernels by :mod:`repro.dataflow.manager`,
* costed by the FPGA resource/timing/power models in :mod:`repro.hardware`.

All tensors in the IR are integers:

* ``levels`` — n-bit activation codes in ``[0, 2**bits)`` (what the FPGA
  streams between layers: 2 bits/pixel in the paper),
* ``acc`` — convolution accumulators / residual sums (16-bit integers on
  the paper's skip path).

The mapping back to the floating-point training semantics is an affine
``float = scale * int + offset[c]`` tracked per edge by the exporter
(:mod:`repro.nn.export`); the IR itself never touches floats except inside
pre-folded threshold units.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..quantization.bitops import BitPackedMatrix, BitplaneTensor, bitplane_gemm
from ..quantization.thresholds import ThresholdUnit
from . import functional as F

__all__ = [
    "TensorSpec",
    "Affine",
    "Node",
    "InputNode",
    "ConvNode",
    "ThresholdNode",
    "MaxPoolNode",
    "GlobalAvgSumNode",
    "AddNode",
    "LayerGraph",
]

SKIP_DTYPE_BITS = 16  # the paper carries 16-bit integers on skip connections


@dataclass(frozen=True)
class TensorSpec:
    """Shape and integer kind of an IR edge (single image, HWC)."""

    height: int
    width: int
    channels: int
    kind: str  # "levels" | "acc"
    bits: int  # level bit-width, or accumulator width bound for "acc"

    def __post_init__(self) -> None:
        if self.kind not in ("levels", "acc"):
            raise ValueError(f"unknown tensor kind {self.kind!r}")

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def elements(self) -> int:
        return self.pixels * self.channels

    @property
    def stream_bits(self) -> int:
        """Bits per element on a stream carrying this tensor."""
        return self.bits


@dataclass(frozen=True)
class Affine:
    """float = scale * int + offset; offset is scalar or per-channel."""

    scale: float
    offset: np.ndarray | float

    def offset_vector(self, channels: int) -> np.ndarray:
        off = np.asarray(self.offset, dtype=np.float64)
        if off.ndim == 0:
            return np.full(channels, float(off))
        if off.shape != (channels,):
            raise ValueError(f"offset shape {off.shape} does not match {channels} channels")
        return off

    def apply(self, ints: np.ndarray) -> np.ndarray:
        """Map integer IR values back to training-domain floats."""
        return self.scale * np.asarray(ints, dtype=np.float64) + np.asarray(self.offset)


class Node:
    """Base IR node.  Subclasses implement shape inference and compute."""

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def arity(self) -> int:
        return 1

    def infer(self, in_specs: list[TensorSpec]) -> TensorSpec:  # pragma: no cover - abstract
        raise NotImplementedError

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class InputNode(Node):
    """Graph input: a stream of n-bit pixel levels from the host CPU."""

    def __init__(self, name: str, height: int, width: int, channels: int, bits: int) -> None:
        super().__init__(name)
        self.height = height
        self.width = width
        self.channels = channels
        self.bits = bits

    @property
    def arity(self) -> int:
        return 0

    def infer(self, in_specs: list[TensorSpec]) -> TensorSpec:
        return TensorSpec(self.height, self.width, self.channels, "levels", self.bits)

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        raise RuntimeError("InputNode values are provided by the executor")


def _acc_bits(k: int, in_channels: int, in_bits: int) -> int:
    """Worst-case accumulator width for a K x K x I dot with ±1 weights."""
    max_abs = k * k * in_channels * ((1 << in_bits) - 1)
    return int(np.ceil(np.log2(max_abs + 1))) + 1 if max_abs else 1


class ConvNode(Node):
    """Convolution kernel with 1-bit weights (paper §III-B1).

    ``weights`` are ±1 signs of shape ``(K, K, I, O)``.  If ``threshold`` is
    set, the node fuses BatchNorm + n-bit activation (the normal case,
    matching the hardware kernel of Figure 3); otherwise it emits raw
    accumulators (the residual-block case, where BatchNorm/activation are
    applied after the skip add).  Fully connected layers are this node with
    ``k`` equal to the full spatial extent (§III-B4, all-convolutional).
    """

    def __init__(
        self,
        name: str,
        weights: np.ndarray,
        stride: int = 1,
        pad: int = 0,
        pad_level: int = 0,
        threshold: ThresholdUnit | None = None,
    ) -> None:
        super().__init__(name)
        weights = np.asarray(weights)
        if weights.ndim != 4 or weights.shape[0] != weights.shape[1]:
            raise ValueError(f"expected (K, K, I, O) sign weights, got {weights.shape}")
        if not np.isin(weights, (-1, 1)).all():
            raise ValueError("ConvNode weights must be ±1 signs")
        self.weights = weights.astype(np.int8)
        self.stride = stride
        self.pad = pad
        self.pad_level = pad_level
        self.threshold = threshold
        self._packed: BitPackedMatrix | None = None

    @property
    def kernel_size(self) -> int:
        return int(self.weights.shape[0])

    @property
    def in_channels(self) -> int:
        return int(self.weights.shape[2])

    @property
    def out_channels(self) -> int:
        return int(self.weights.shape[3])

    @property
    def weight_count(self) -> int:
        return int(self.weights.size)

    def packed_weights(self) -> BitPackedMatrix:
        """Weight-cache view: O entries of K*K*I bits (lazily packed)."""
        if self._packed is None:
            wmat = self.weights.reshape(-1, self.out_channels).T  # (O, K*K*I)
            self._packed = BitPackedMatrix.from_signs(wmat)
        return self._packed

    def infer(self, in_specs: list[TensorSpec]) -> TensorSpec:
        (spec,) = in_specs
        if spec.channels != self.in_channels:
            raise ValueError(
                f"{self.name}: input has {spec.channels} channels, weights expect {self.in_channels}"
            )
        if spec.kind == "levels" and not (0 <= self.pad_level < (1 << spec.bits)):
            raise ValueError(f"{self.name}: pad level {self.pad_level} out of range")
        ho = F.conv_output_size(spec.height, self.kernel_size, self.stride, self.pad)
        wo = F.conv_output_size(spec.width, self.kernel_size, self.stride, self.pad)
        if self.threshold is not None:
            if self.threshold.channels != self.out_channels:
                raise ValueError(f"{self.name}: threshold has wrong channel count")
            return TensorSpec(ho, wo, self.out_channels, "levels", self.threshold.bits)
        bits = _acc_bits(self.kernel_size, self.in_channels, spec.bits)
        return TensorSpec(ho, wo, self.out_channels, "acc", min(bits, SKIP_DTYPE_BITS))

    def accumulate(self, x: np.ndarray) -> np.ndarray:
        """Integer convolution accumulators via dense matmul (reference)."""
        x = np.asarray(x, dtype=np.int64)
        xp = F.pad2d(x, self.pad, self.pad_level)
        cols = F.im2col(xp, self.kernel_size, self.stride)
        wmat = self.weights.reshape(-1, self.out_channels).astype(np.int64)
        return cols @ wmat

    def accumulate_bitpacked(self, x: np.ndarray, bits: int) -> np.ndarray:
        """Integer accumulators via the XNOR/AND-popcount path (hardware math).

        Only valid for ``levels`` inputs; bit-plane decomposes every im2col
        patch and multiplies with the packed weight cache.
        """
        x = np.asarray(x, dtype=np.int64)
        xp = F.pad2d(x, self.pad, self.pad_level)
        cols = F.im2col(xp, self.kernel_size, self.stride)
        batched = cols.ndim == 4
        if not batched:
            cols = cols[None]
        n, ho, wo, taps = cols.shape
        flat = cols.reshape(-1, taps)
        planes = BitplaneTensor.from_levels(flat, bits)
        acc = bitplane_gemm(self.packed_weights().words, list(planes.planes))
        acc = acc.reshape(n, ho, wo, self.out_channels)
        return acc if batched else acc[0]

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        acc = self.accumulate(inputs[0])
        if self.threshold is not None:
            return self.threshold.apply(acc, channel_axis=-1)
        return acc


class ThresholdNode(Node):
    """Standalone fused BatchNorm + n-bit activation (post-residual-add)."""

    def __init__(self, name: str, unit: ThresholdUnit) -> None:
        super().__init__(name)
        self.unit = unit

    def infer(self, in_specs: list[TensorSpec]) -> TensorSpec:
        (spec,) = in_specs
        if spec.channels != self.unit.channels:
            raise ValueError(f"{self.name}: channel mismatch")
        return replace(spec, kind="levels", bits=self.unit.bits)

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        return self.unit.apply(inputs[0], channel_axis=-1)


class MaxPoolNode(Node):
    """Max pooling (paper §III-B2: output produced the cycle input arrives).

    Optional padding injects level 0, which is neutral under max because
    levels are non-negative (the hardware equivalent of −inf padding).
    """

    def __init__(
        self, name: str, kernel_size: int, stride: int | None = None, pad: int = 0
    ) -> None:
        super().__init__(name)
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self.pad = pad

    def infer(self, in_specs: list[TensorSpec]) -> TensorSpec:
        (spec,) = in_specs
        if self.pad and spec.kind != "levels":
            raise ValueError(f"{self.name}: padded max pooling requires a level stream")
        ho = (spec.height + 2 * self.pad - self.kernel_size) // self.stride + 1
        wo = (spec.width + 2 * self.pad - self.kernel_size) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ValueError(f"{self.name}: pooling window larger than input")
        return replace(spec, height=ho, width=wo)

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        x = np.asarray(inputs[0], dtype=np.int64)
        if self.pad:
            x = F.pad2d(x, self.pad, 0)
        return F.maxpool2d(x, self.kernel_size, self.stride)


class GlobalAvgSumNode(Node):
    """Global average pooling kept exact as an integer *sum*.

    The divisor (H·W) is folded into the edge affine by the exporter, so the
    integer path stays exact.  Used for ResNet-18's final pooling (the one
    place the paper uses average rather than max pooling).
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)

    def infer(self, in_specs: list[TensorSpec]) -> TensorSpec:
        (spec,) = in_specs
        max_abs = spec.pixels * ((1 << spec.bits) - 1)
        bits = int(np.ceil(np.log2(max_abs + 1))) + 1
        return TensorSpec(1, 1, spec.channels, "acc", bits)

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        x = np.asarray(inputs[0], dtype=np.int64)
        if x.ndim == 3:
            return x.sum(axis=(0, 1), keepdims=True)
        return x.sum(axis=(1, 2), keepdims=True)


class AddNode(Node):
    """Residual adder: one integer add per element (paper §III-B5).

    The skip path carries 16-bit integers in hardware; ``compute`` checks
    the accumulated values actually fit that width and records the high
    -water mark in :attr:`max_abs_seen`.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.max_abs_seen = 0

    @property
    def arity(self) -> int:
        return 2

    def infer(self, in_specs: list[TensorSpec]) -> TensorSpec:
        a, b = in_specs
        if (a.height, a.width, a.channels) != (b.height, b.width, b.channels):
            raise ValueError(f"{self.name}: cannot add {a} and {b}")
        bits = min(max(a.bits, b.bits) + 1, SKIP_DTYPE_BITS)
        return TensorSpec(a.height, a.width, a.channels, "acc", bits)

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        a = np.asarray(inputs[0], dtype=np.int64)
        b = np.asarray(inputs[1], dtype=np.int64)
        out = a + b
        self.max_abs_seen = max(self.max_abs_seen, int(np.abs(out).max(initial=0)))
        limit = 1 << (SKIP_DTYPE_BITS - 1)
        if self.max_abs_seen >= limit:
            raise OverflowError(
                f"{self.name}: residual sum {self.max_abs_seen} exceeds "
                f"{SKIP_DTYPE_BITS}-bit skip-path range"
            )
        return out


@dataclass
class LayerGraph:
    """A DAG of IR nodes with shape inference and edge specs.

    Nodes are added in construction order; ``inputs`` names the producing
    nodes.  ``specs[name]`` is the output :class:`TensorSpec` of each node,
    available immediately after ``add``.  The edges live in two tables
    filled by ``add``: ``producers[name]`` holds the node's producers in
    port order (port ``i`` is ``producers[name][i]``) and ``fanout[name]``
    its consumers in the order they were added.
    """

    nodes: dict[str, Node] = field(default_factory=dict)
    specs: dict[str, TensorSpec] = field(default_factory=dict)
    producers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    fanout: dict[str, list[str]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    input_name: str | None = None
    output_name: str | None = None
    output_affine: Affine | None = None
    name: str = "network"

    def add(self, node: Node, inputs: tuple[str, ...] | list[str] = ()) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        inputs = tuple(inputs)
        if len(inputs) != node.arity:
            raise ValueError(f"{node.name}: expected {node.arity} inputs, got {len(inputs)}")
        for i, parent in enumerate(inputs):
            if parent not in self.nodes:
                raise ValueError(f"{node.name}: unknown input {parent!r}")
            if parent in inputs[:i]:
                raise ValueError(f"{node.name}: input {parent!r} is repeated")
        if isinstance(node, InputNode) and self.input_name is not None:
            raise ValueError("LayerGraph supports a single input node")
        in_specs = [self.specs[p] for p in inputs]
        spec = node.infer(in_specs)
        self.nodes[node.name] = node
        self.specs[node.name] = spec
        self.order.append(node.name)
        self.producers[node.name] = inputs
        self.fanout[node.name] = []
        for parent in inputs:
            self.fanout[parent].append(node.name)
        if isinstance(node, InputNode):
            self.input_name = node.name
        self.output_name = node.name
        return node

    def parents(self, name: str) -> list[str]:
        """Producing nodes of ``name`` in port order."""
        return list(self.producers[name])

    def consumers(self, name: str) -> list[str]:
        """Consuming nodes of ``name`` in the order they were added."""
        return list(self.fanout[name])

    def topological(self) -> list[str]:
        """Kahn's algorithm by generations, each node's consumers in added order.

        The first generation is in construction order.  Kernel order, and
        with it every report, trace and plan byte, follows this order;
        ``tests/test_graph_ir.py`` checks it against a graph library.
        """
        indegree = {name: len(self.producers[name]) for name in self.order}
        generation = [name for name, degree in indegree.items() if degree == 0]
        order: list[str] = []
        while generation:
            order.extend(generation)
            ready: list[str] = []
            for name in generation:
                for child in self.fanout[name]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        ready.append(child)
            generation = ready
        if len(order) != len(indegree):
            raise ValueError("graph has cycles")
        return order

    def find_cycle(self) -> list[str]:
        """One cycle of the producer table in edge order, or ``[]`` if acyclic.

        Both structural checks read ``producers`` alone, so a corrupted port
        table shows in them.
        """
        # Peel every node whose producers are all peeled.  Each node left has
        # a producer left, so walking producers from one must revisit a node.
        left = dict(self.producers)
        while True:
            count = len(left)
            for name in list(left):
                if not any(p in left for p in left[name]):
                    del left[name]
            if len(left) == count:
                break
        if not left:
            return []
        path = [next(iter(left))]
        while True:
            parent = next(p for p in left[path[-1]] if p in left)
            if parent in path:
                # parent -> path[-1] -> ... -> parent: reversed, that is edge order.
                return path[path.index(parent):][::-1]
            path.append(parent)

    def unreachable(self) -> list[str]:
        """Nodes the producer table does not connect to the input, sorted."""
        reached = {self.input_name}
        grew = True
        while grew:
            grew = False
            for name in self.order:
                if name not in reached and any(p in reached for p in self.producers[name]):
                    reached.add(name)
                    grew = True
        return sorted(set(self.nodes) - reached)

    @property
    def input_spec(self) -> TensorSpec:
        if self.input_name is None:
            raise ValueError("graph has no input node")
        return self.specs[self.input_name]

    @property
    def output_spec(self) -> TensorSpec:
        if self.output_name is None:
            raise ValueError("graph is empty")
        return self.specs[self.output_name]

    def conv_nodes(self) -> list[ConvNode]:
        return [n for n in (self.nodes[name] for name in self.order) if isinstance(n, ConvNode)]

    def total_weight_bits(self) -> int:
        """Total 1-bit weight storage across all conv/FC layers."""
        return sum(n.weight_count for n in self.conv_nodes())

    def validate(self) -> None:
        """Structural checks: single component, acyclic, one input."""
        if self.input_name is None:
            raise ValueError("graph has no input")
        if self.find_cycle():
            raise ValueError("graph has cycles")
        unreachable = self.unreachable()
        if unreachable:
            raise ValueError(f"nodes unreachable from input: {unreachable}")
