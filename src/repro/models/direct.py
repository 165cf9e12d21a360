"""Direct IR builders: construct LayerGraphs without a float training model.

The exporter path (`build_* -> export_model`) is the semantically faithful
route and is used wherever outputs matter.  For *cost* studies — resource
utilisation, timing, power, partitioning across a sweep of input sizes —
only the graph structure matters, and building float shadow weights for a
224x224 VGG (an ~800 MB tensor for its first FC layer) is pure waste.
These builders create the identical topologies with random ±1 ``int8``
weights and random valid threshold units, two orders of magnitude lighter.

Structural equality with the exporter route is covered by tests (same node
kinds, shapes, and specs for matching configurations).
"""

from __future__ import annotations

import numpy as np

from ..nn.graph import (
    AddNode,
    ConvNode,
    GlobalAvgSumNode,
    InputNode,
    LayerGraph,
    MaxPoolNode,
    ThresholdNode,
)
from ..quantization.thresholds import ThresholdUnit
from .alexnet import ALEXNET_CONV_PLAN
from .resnet import RESNET18_STAGES
from .vgg import vgg_channel_plan

__all__ = [
    "check_geometry",
    "parse_topology",
    "random_threshold_unit",
    "direct_vgg_graph",
    "direct_alexnet_graph",
    "direct_resnet18_graph",
]


def check_geometry(input_size: int, width: float) -> None:
    """Refuse an input size under 8 or a width that is not positive.

    Every builder below applies this rule before building, so a zero or
    negative size or width is malformed input, never a request for a
    default; only a positive width is rounded and clamped to one channel.
    """
    if input_size < 8:
        raise ValueError(f"size must be >= 8, got {input_size}")
    if not width > 0:
        raise ValueError(f"width must be > 0, got {width}")


def parse_topology(spec: str) -> tuple[str, int | None, float | None]:
    """Split a ``name[:size[:width]]`` spec; an omitted size or width is ``None``.

    Each caller applies its own defaults and graph builder.  A non-integer
    size, a non-numeric width or a fourth field raises ``ValueError``.
    """
    name, size, width, *extra = spec.split(":") + ["", ""]
    try:
        parsed = name, int(size) if size else None, float(width) if width else None
    except ValueError:
        parsed = None
    if parsed is None or any(extra):
        raise ValueError("want name[:size[:width]] with an integer size and a numeric width")
    return parsed


def random_threshold_unit(rng: np.random.Generator, channels: int, bits: int) -> ThresholdUnit:
    """A valid, diverse threshold unit (random τ, step of either sign)."""
    tau = rng.normal(0.0, 5.0, channels)
    step = rng.uniform(0.5, 3.0, channels) * rng.choice([-1.0, 1.0], channels)
    return ThresholdUnit(
        tau=tau,
        step=step,
        slope_sign=np.sign(step).astype(np.int64),
        const_level=np.zeros(channels, dtype=np.int64),
        bits=bits,
    )


def _signs(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return (rng.integers(0, 2, size=shape, dtype=np.int8) * 2 - 1).astype(np.int8)


def direct_vgg_graph(
    input_size: int = 32,
    in_channels: int = 3,
    classes: int = 10,
    act_bits: int = 2,
    input_bits: int = 2,
    width: float = 1.0,
    fc_features: int = 512,
    pool_to: int | None = None,
    seed: int = 0,
) -> LayerGraph:
    """The VGG-like network as a bare IR graph (see build_vgg_like)."""
    check_geometry(input_size, width)
    if input_size % 8 != 0:
        raise ValueError(f"size must be divisible by 8, got {input_size}")
    rng = np.random.default_rng(seed)
    chans = vgg_channel_plan(width)
    fc = max(1, int(round(fc_features * width)))
    g = LayerGraph(name=f"vgg-like-{input_size}-direct")
    g.add(InputNode("input", input_size, input_size, in_channels, input_bits))
    prev_name = "input"
    prev = in_channels
    idx = 0
    for bi, c in enumerate(chans):
        for ci in range(2):
            idx += 1
            node = ConvNode(
                f"conv{bi + 1}_{ci + 1}",
                _signs(rng, (3, 3, prev, c)),
                stride=1,
                pad=1,
                threshold=random_threshold_unit(rng, c, act_bits),
            )
            g.add(node, [prev_name])
            prev_name, prev = node.name, c
        pool = MaxPoolNode(f"pool{bi + 1}", 2)
        g.add(pool, [prev_name])
        prev_name = pool.name
    feat = input_size // 8
    if pool_to is not None and feat > pool_to:
        stride = feat // pool_to
        k = feat - (pool_to - 1) * stride
        pnode = MaxPoolNode("pool_fc", k, stride)
        g.add(pnode, [prev_name])
        prev_name = pnode.name
        feat = pool_to
    for fi, out in enumerate([fc, fc]):
        k = feat if fi == 0 else 1
        node = ConvNode(
            f"fc{fi + 1}",
            _signs(rng, (k, k, prev, out)),
            threshold=random_threshold_unit(rng, out, act_bits),
        )
        g.add(node, [prev_name])
        prev_name, prev = node.name, out
    head = ConvNode("fc3", _signs(rng, (1, 1, prev, classes)))
    g.add(head, [prev_name])
    g.validate()
    return g


def direct_alexnet_graph(
    input_size: int = 224,
    in_channels: int = 3,
    classes: int = 1000,
    act_bits: int = 2,
    input_bits: int = 2,
    width: float = 1.0,
    fc_features: int = 4096,
    seed: int = 0,
) -> LayerGraph:
    """AlexNet as a bare IR graph."""
    check_geometry(input_size, width)
    rng = np.random.default_rng(seed)
    g = LayerGraph(name=f"alexnet-{input_size}-direct")
    g.add(InputNode("input", input_size, input_size, in_channels, input_bits))
    prev_name, prev, size = "input", in_channels, input_size
    for li, (c_out, k, s, p, pool) in enumerate(ALEXNET_CONV_PLAN):
        c = max(1, int(round(c_out * width)))
        node = ConvNode(
            f"conv{li + 1}",
            _signs(rng, (k, k, prev, c)),
            stride=s,
            pad=p,
            threshold=random_threshold_unit(rng, c, act_bits),
        )
        g.add(node, [prev_name])
        prev_name, prev = node.name, c
        size = (size + 2 * p - k) // s + 1
        if pool:
            pnode = MaxPoolNode(f"pool{li + 1}", 3, 2)
            g.add(pnode, [prev_name])
            prev_name = pnode.name
            size = (size - 3) // 2 + 1
    fc = max(1, int(round(fc_features * width)))
    for fi, out in enumerate([fc, fc]):
        k = size if fi == 0 else 1
        node = ConvNode(
            f"fc{fi + 6}",
            _signs(rng, (k, k, prev, out)),
            threshold=random_threshold_unit(rng, out, act_bits),
        )
        g.add(node, [prev_name])
        prev_name, prev = node.name, out
    g.add(ConvNode("fc8", _signs(rng, (1, 1, prev, classes))), [prev_name])
    g.validate()
    return g


def direct_resnet18_graph(
    input_size: int = 224,
    in_channels: int = 3,
    classes: int = 1000,
    act_bits: int = 2,
    input_bits: int = 2,
    width: float = 1.0,
    stages: list[tuple[int, int, int]] | None = None,
    seed: int = 0,
) -> LayerGraph:
    """ResNet-18 (Table I) as a bare IR graph with explicit skip structure."""
    check_geometry(input_size, width)
    rng = np.random.default_rng(seed)
    stages = RESNET18_STAGES if stages is None else stages
    g = LayerGraph(name=f"resnet18-{input_size}-direct")
    g.add(InputNode("input", input_size, input_size, in_channels, input_bits))
    stem_out = max(1, int(round(stages[0][0] * width)))
    stem = ConvNode(
        "conv1",
        _signs(rng, (7, 7, in_channels, stem_out)),
        stride=2,
        pad=3,
        threshold=random_threshold_unit(rng, stem_out, act_bits),
    )
    g.add(stem, ["input"])
    pool = MaxPoolNode("maxpool", 3, 2, pad=1)
    g.add(pool, ["conv1"])
    prev_name, prev = "maxpool", stem_out

    for si, (c_out, blocks, first_stride) in enumerate(stages):
        c = max(1, int(round(c_out * width)))
        for bi in range(blocks):
            stride = first_stride if bi == 0 else 1
            tag = f"conv{si + 2}_{bi + 1}"
            c1 = ConvNode(f"{tag}.conv1", _signs(rng, (3, 3, prev, c)), stride=stride, pad=1)
            g.add(c1, [prev_name])
            if stride != 1 or prev != c:
                proj = ConvNode(f"{tag}.proj", _signs(rng, (1, 1, prev, c)), stride=stride)
                g.add(proj, [prev_name])
                identity = proj.name
            else:
                identity = prev_name
            add1 = AddNode(f"{tag}.add1")
            g.add(add1, [c1.name, identity])
            th1 = ThresholdNode(f"{tag}.bnact1", random_threshold_unit(rng, c, act_bits))
            g.add(th1, [add1.name])
            c2 = ConvNode(f"{tag}.conv2", _signs(rng, (3, 3, c, c)), stride=1, pad=1)
            g.add(c2, [th1.name])
            add2 = AddNode(f"{tag}.add2")
            g.add(add2, [c2.name, add1.name])
            th2 = ThresholdNode(f"{tag}.bnact2", random_threshold_unit(rng, c, act_bits))
            g.add(th2, [add2.name])
            prev_name, prev = th2.name, c

    g.add(GlobalAvgSumNode("avgpool"), [prev_name])
    g.add(ConvNode("fc", _signs(rng, (1, 1, prev, classes))), ["avgpool"])
    g.validate()
    return g
