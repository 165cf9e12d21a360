"""Leap mode: what extending a solved run by its period did, and the outputs it needs.

A closed-loop ``simulate(mode="leap")`` (or ``"fast"``) run solves a
prefix of its images from the kernels' op recurrences and extends it by
its certified per-image period — the steady state the paper's §IV-B4
clocks-per-picture model describes — without ticking
(:func:`repro.dataflow.schedule.solve_run`, where the argument that the
extension is exact lives).  :class:`LeapReport` records what that did.

No image's values are streamed on that path, so
:func:`batch_reference_outputs` recomputes every output through the
kernels' vectorized ``batch_compute`` methods, a slice of images at a
time.  Convolutions run their GEMMs in float32 when the layer's
accumulator bound is below 2**24 and in float64 otherwise, so the
arithmetic is exact integer arithmetic and bit-identical to the streaming
datapath — a tested property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .manager import Pipeline

__all__ = ["LeapReport", "batch_reference_outputs"]

# Images per slice of the batched output pass: only one slice's
# intermediate tensors are alive at a time.  On the 256-image vgg32 pass
# (2-vCPU x86 host) slices of 8 to 64 images time within about 20% of each
# other, and the whole batch at once is slower and holds every tensor.
_CHUNK_IMAGES = 16


@dataclass
class LeapReport:
    """What one ``mode="leap"`` run did.

    ``windows`` images past the solved prefix were added by the certified
    ``period`` (``leaps`` is 1 when there were any).  A run that could not
    be extended — an open-loop source, a tracer or telemetry (solved
    whole), or one that had to tick (a kernel without an op program) — sets
    ``demoted`` and names the cause in ``demotion_reason``, so the CLI can
    warn.  ``leaps == 0`` without ``demoted`` means the prefix reached every
    image: the whole run was solved.
    """

    leaps: int = 0  # 1 when the solved prefix was extended, else 0
    windows: int = 0  # images added past the solved prefix
    leaped_cycles: int = 0  # windows * period
    period: int = 0  # the certified cycles per image
    demoted: bool = False  # True when the run could not be extended at all
    demotion_reason: str | None = None


def batch_reference_outputs(pipeline: Pipeline, images: np.ndarray) -> np.ndarray:
    """All images' outputs through the kernels' batched functional paths.

    Walks the IR graph topologically, feeding each kernel's
    ``batch_compute`` the (port-ordered) parent tensors.  The walk runs on
    :data:`_CHUNK_IMAGES` images at a time and fills one preallocated
    output array, so only one slice's intermediate tensors are alive at
    once.  Bit-identical to both the streamed outputs and
    :func:`repro.nn.inference.run_graph` (tested properties); a solved run
    takes its outputs from here, as it streams no values.
    """
    graph = pipeline.graph
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]
    n = images.shape[0]
    spec = graph.output_spec
    out = np.empty((n, spec.height, spec.width, spec.channels), dtype=np.int64)
    order = [name for name in graph.topological() if name != graph.input_name]
    for start in range(0, n, _CHUNK_IMAGES):
        chunk = images[start : start + _CHUNK_IMAGES]
        values: dict[str, np.ndarray] = {graph.input_name: chunk.astype(np.int64)}
        for name in order:
            kernel = pipeline.kernels_by_node[name]
            ins = [values[p] for p in graph.parents(name)]
            compute = getattr(kernel, "batch_compute")
            values[name] = np.asarray(compute(*ins), dtype=np.int64)
        out[start : start + len(chunk)] = values[graph.output_name]
    return out
