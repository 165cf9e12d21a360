"""Export trained QAT models into the integer inference IR.

The exporter performs the paper's deployment step: the CPU holds trained
floating-point parameters; before inference they are folded into the forms
the DFE actually stores — 1-bit packed weights and the two-parameter
threshold units of §III-B3 — and the network becomes a chain of integer
kernels.

Correctness contract.  Every IR edge carries integers related to the
floating-point training value by an affine map ``float = scale * int +
offset[c]`` that the exporter tracks symbolically:

* an n-bit activation output has ``scale = d`` and a scalar offset (the
  dequantized value of level 0);
* a convolution multiplies integers by ±1 weights, so ``scale`` is
  preserved and the new per-output-channel offset is ``sum_w w * offset``;
* BatchNorm + activation consume the affine: the folded threshold unit is
  built over the *integer accumulator* domain, so the streamed levels are
  bit-exact with the float model evaluated in eval mode;
* the global average pool is exported as an integer **sum**, dividing
  ``scale`` by the pixel count instead;
* the final affine is stored on the graph (``output_affine``) so logits are
  recovered exactly on the host side — just as the paper keeps softmax and
  class readout on the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..quantization.quantizers import UniformQuantizer
from ..quantization.thresholds import BatchNormParams, ThresholdUnit, fold_batchnorm, fold_batchnorm_sign
from .graph import AddNode, Affine, ConvNode, GlobalAvgSumNode, InputNode, LayerGraph, MaxPoolNode, ThresholdNode
from .modules import (
    BatchNorm2d,
    Flatten,
    GlobalAvgPool,
    MaxPool2d,
    Module,
    QActivation,
    QConv2d,
    QLinear,
    QResidualBlock,
    Sequential,
    SignActivation,
)

__all__ = ["export_model", "input_to_levels", "ExportError"]


class ExportError(ValueError):
    """Raised when a module sequence cannot be lowered to the IR."""


def input_to_levels(images: np.ndarray, quantizer: UniformQuantizer) -> np.ndarray:
    """Quantize host-side float images into the input level stream."""
    return quantizer.quantize_level(images)


@dataclass
class _State:
    """Walker state: last emitted node, its affine, and layout bookkeeping."""

    node_name: str
    affine: Affine
    height: int
    width: int
    channels: int
    flattened: bool = False


def _sign_weights(w: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(w) >= 0, 1, -1).astype(np.int8)


def _conv_offset(signs: np.ndarray, offset: np.ndarray | float, in_channels: int) -> np.ndarray:
    """Per-output-channel offset after a ±1-weight convolution."""
    off = np.asarray(offset, dtype=np.float64)
    if off.ndim == 0:
        off = np.full(in_channels, float(off))
    # signs: (K, K, I, O); sum over taps weighted by the input-channel offset
    return np.einsum("abio,i->o", signs.astype(np.float64), off)


def _acc_domain_params(bn: BatchNorm2d, affine: Affine, channels: int) -> BatchNormParams:
    """Re-express BatchNorm statistics over the integer accumulator domain.

    With ``float = scale * acc + off[c]``, BatchNorm(float) becomes an
    affine in ``acc`` with slope ``γ·i·scale`` and centre ``(µ − off)/scale``.
    """
    off = affine.offset_vector(channels)
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    return BatchNormParams(
        gamma=bn.gamma.data.copy(),
        mu=(bn.running_mean - off) / affine.scale,
        inv_std=inv_std * affine.scale,
        beta=bn.beta.data.copy(),
    )


def _activation_affine(act: Module) -> Affine:
    if isinstance(act, QActivation):
        q = act.quantizer
        offset = q.lo + (0.5 if q.midpoint else 0.0) * q.d
        return Affine(scale=q.d, offset=offset)
    if isinstance(act, SignActivation):
        # level in {0, 1} maps to float ±1
        return Affine(scale=2.0, offset=-1.0)
    raise ExportError(f"unsupported activation module {type(act).__name__}")


def _fold(bn: BatchNorm2d, act: Module, affine: Affine, channels: int) -> ThresholdUnit:
    params = _acc_domain_params(bn, affine, channels)
    if isinstance(act, QActivation):
        return fold_batchnorm(params, act.quantizer)
    if isinstance(act, SignActivation):
        return fold_batchnorm_sign(params)
    raise ExportError(f"unsupported activation module {type(act).__name__}")


def _check_pad(conv: QConv2d, affine: Affine) -> None:
    """The hardware pads with level 0; training must pad with its float value."""
    if conv.pad == 0:
        return
    off = np.asarray(affine.offset, dtype=np.float64)
    if off.ndim != 0:
        raise ExportError(
            f"{conv.name}: padding after a per-channel-offset edge is not representable"
        )
    if not np.isclose(conv.pad_value, float(off)):
        raise ExportError(
            f"{conv.name}: pad_value {conv.pad_value} does not equal the level-0 "
            f"float value {float(off)}; the integer path would diverge"
        )


class _Exporter:
    def __init__(self, graph: LayerGraph) -> None:
        self.graph = graph
        self._counter = 0

    def _name(self, base: str) -> str:
        self._counter += 1
        return f"{base}_{self._counter}"

    # -- individual lowerings -----------------------------------------
    def conv(self, conv: QConv2d, st: _State, bn: BatchNorm2d | None, act: Module | None) -> _State:
        if not conv.binary:
            raise ExportError(f"{conv.name}: only binary-weight convolutions are exportable")
        _check_pad(conv, st.affine)
        signs = _sign_weights(conv.weight.data)
        acc_offset = _conv_offset(signs, st.affine.offset, conv.in_channels)
        acc_affine = Affine(scale=st.affine.scale, offset=acc_offset)
        threshold = None
        out_affine = acc_affine
        if bn is not None:
            if act is None:
                raise ExportError(f"{conv.name}: BatchNorm must be followed by an activation")
            threshold = _fold(bn, act, acc_affine, conv.out_channels)
            out_affine = _activation_affine(act)
        node = ConvNode(
            self._name(conv.name or "conv"),
            signs,
            stride=conv.stride,
            pad=conv.pad,
            pad_level=0,
            threshold=threshold,
        )
        self.graph.add(node, [st.node_name])
        spec = self.graph.specs[node.name]
        return _State(node.name, out_affine, spec.height, spec.width, spec.channels)

    def linear(self, lin: QLinear, st: _State, bn: BatchNorm2d | None, act: Module | None) -> _State:
        if not lin.binary:
            raise ExportError(f"{lin.name}: only binary-weight FC layers are exportable")
        if st.height != st.width:
            raise ExportError(f"{lin.name}: FC-as-convolution requires a square feature map")
        expected = st.height * st.width * st.channels
        if lin.in_features != expected:
            raise ExportError(
                f"{lin.name}: in_features {lin.in_features} != flattened input {expected}"
            )
        signs = _sign_weights(
            lin.weight.data.reshape(st.height, st.width, st.channels, lin.out_features)
        )
        acc_offset = _conv_offset(signs, st.affine.offset, st.channels)
        acc_affine = Affine(scale=st.affine.scale, offset=acc_offset)
        threshold = None
        out_affine = acc_affine
        if bn is not None:
            if act is None:
                raise ExportError(f"{lin.name}: BatchNorm must be followed by an activation")
            threshold = _fold(bn, act, acc_affine, lin.out_features)
            out_affine = _activation_affine(act)
        node = ConvNode(self._name(lin.name or "fc"), signs, stride=1, pad=0, threshold=threshold)
        self.graph.add(node, [st.node_name])
        spec = self.graph.specs[node.name]
        return _State(node.name, out_affine, spec.height, spec.width, spec.channels)

    def residual_block(self, block: QResidualBlock, st: _State) -> _State:
        conv1 = block.conv1
        _check_pad(conv1, st.affine)
        signs1 = _sign_weights(conv1.weight.data)
        n1 = ConvNode(
            self._name(f"{block.name}.conv1"), signs1, stride=conv1.stride, pad=conv1.pad
        )
        self.graph.add(n1, [st.node_name])
        off1 = _conv_offset(signs1, st.affine.offset, conv1.in_channels)

        if block.downsample is not None:
            proj = block.downsample
            signs_p = _sign_weights(proj.weight.data)
            np_ = ConvNode(
                self._name(f"{block.name}.proj"), signs_p, stride=proj.stride, pad=proj.pad
            )
            self.graph.add(np_, [st.node_name])
            identity_name = np_.name
            off_id = _conv_offset(signs_p, st.affine.offset, proj.in_channels)
        else:
            identity_name = st.node_name
            off_id = st.affine.offset_vector(st.channels) if np.ndim(st.affine.offset) else np.full(
                conv1.out_channels, float(st.affine.offset)
            )
            off_id = np.broadcast_to(np.asarray(off_id, dtype=np.float64), (conv1.out_channels,))

        add1 = AddNode(self._name(f"{block.name}.add1"))
        self.graph.add(add1, [n1.name, identity_name])
        sum_affine = Affine(scale=st.affine.scale, offset=off1 + off_id)

        th1 = ThresholdNode(
            self._name(f"{block.name}.bnact1"),
            _fold(block.bn1, block.act1, sum_affine, block.conv1.out_channels),
        )
        self.graph.add(th1, [add1.name])
        act1_affine = _activation_affine(block.act1)

        conv2 = block.conv2
        if not np.isclose(act1_affine.scale, st.affine.scale):
            raise ExportError(
                f"{block.name}: skip-path scale {st.affine.scale} differs from "
                f"activation scale {act1_affine.scale}; residual add would be inexact"
            )
        _check_pad(conv2, act1_affine)
        signs2 = _sign_weights(conv2.weight.data)
        n2 = ConvNode(self._name(f"{block.name}.conv2"), signs2, stride=conv2.stride, pad=conv2.pad)
        self.graph.add(n2, [th1.name])
        off2 = _conv_offset(signs2, act1_affine.offset, conv2.in_channels)

        add2 = AddNode(self._name(f"{block.name}.add2"))
        self.graph.add(add2, [n2.name, add1.name])
        sum2_affine = Affine(scale=act1_affine.scale, offset=off2 + sum_affine.offset_vector(conv2.out_channels))

        th2 = ThresholdNode(
            self._name(f"{block.name}.bnact2"),
            _fold(block.bn2, block.act2, sum2_affine, conv2.out_channels),
        )
        self.graph.add(th2, [add2.name])
        spec = self.graph.specs[th2.name]
        return _State(
            th2.name, _activation_affine(block.act2), spec.height, spec.width, spec.channels
        )


def export_model(
    model: Sequential,
    input_shape: tuple[int, int, int],
    name: str = "network",
) -> LayerGraph:
    """Lower a trained :class:`Sequential` QAT model to a :class:`LayerGraph`.

    The model must begin with an input :class:`QActivation` (the host-side
    quantizer that produces the pixel level stream) and otherwise consist of
    the supported module vocabulary: ``QConv2d``/``QLinear`` optionally
    followed by ``BatchNorm2d`` + activation, ``MaxPool2d``,
    ``GlobalAvgPool``, ``Flatten`` and ``QResidualBlock``.

    Parameters
    ----------
    model:
        The trained model (will be switched to eval mode).
    input_shape:
        ``(H, W, C)`` of a single input image.
    """
    model.eval()
    layers = list(model)
    if not layers or not isinstance(layers[0], QActivation):
        raise ExportError("model must start with a QActivation input quantizer")
    in_q: QActivation = layers[0]
    h, w, c = input_shape

    graph = LayerGraph(name=name)
    inp = InputNode("input", h, w, c, in_q.bits)
    graph.add(inp)
    state = _State("input", _activation_affine(in_q), h, w, c)
    exp = _Exporter(graph)

    i = 1
    while i < len(layers):
        layer = layers[i]
        if isinstance(layer, (QConv2d, QLinear)):
            bn: BatchNorm2d | None = None
            act: Module | None = None
            j = i + 1
            if j < len(layers) and isinstance(layers[j], BatchNorm2d):
                bn = layers[j]
                j += 1
                if j < len(layers) and isinstance(layers[j], (QActivation, SignActivation)):
                    act = layers[j]
                    j += 1
                else:
                    raise ExportError(
                        f"BatchNorm after {layer.name} must be followed by an activation"
                    )
            if isinstance(layer, QConv2d):
                if state.flattened:
                    raise ExportError("convolution after Flatten is not supported")
                state = exp.conv(layer, state, bn, act)
            else:
                state = exp.linear(layer, state, bn, act)
                state.flattened = False
            i = j
            continue
        if isinstance(layer, QResidualBlock):
            state = exp.residual_block(layer, state)
            i += 1
            continue
        if isinstance(layer, MaxPool2d):
            if layer.pad:
                off = np.asarray(state.affine.offset, dtype=np.float64)
                if off.ndim != 0:
                    raise ExportError("padded max pooling after a per-channel-offset edge")
                if not np.isclose(layer.pad_value, float(off)):
                    raise ExportError(
                        f"max pool pad_value {layer.pad_value} != level-0 value {float(off)}"
                    )
            node = MaxPoolNode(exp._name("maxpool"), layer.kernel_size, layer.stride, pad=layer.pad)
            graph.add(node, [state.node_name])
            spec = graph.specs[node.name]
            state = _State(node.name, state.affine, spec.height, spec.width, spec.channels, state.flattened)
            i += 1
            continue
        if isinstance(layer, GlobalAvgPool):
            node = GlobalAvgSumNode(exp._name("avgpool"))
            graph.add(node, [state.node_name])
            pixels = state.height * state.width
            affine = Affine(scale=state.affine.scale / pixels, offset=state.affine.offset)
            state = _State(node.name, affine, 1, 1, state.channels)
            i += 1
            continue
        if isinstance(layer, Flatten):
            state.flattened = True
            i += 1
            continue
        raise ExportError(f"unsupported module {type(layer).__name__} at position {i}")

    graph.output_affine = Affine(
        scale=state.affine.scale,
        offset=state.affine.offset_vector(state.channels),
    )
    graph.validate()
    return graph
