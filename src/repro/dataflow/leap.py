"""Leap mode: how a solved run used its period, and the outputs it needs.

``simulate`` solves a run from the kernels' op recurrences instead of
ticking (:func:`repro.dataflow.schedule.solve_run`, where the argument
that the solve is exact lives).  A closed-loop run solves a prefix of its
images and extends it by its certified per-image period — the steady state
the paper's §IV-B4 clocks-per-picture model describes.  :class:`LeapReport`,
written by the solve, records how far the period carried the run, or why
it could not.

No image's values are streamed on that path, so
:func:`batch_reference_outputs` recomputes every output through the
kernels' vectorized ``batch_compute`` methods, a slice of images at a
time.  Convolutions run their GEMMs in float32 when the layer's
accumulator bound is below 2**24 and in float64 otherwise, so the
arithmetic is exact integer arithmetic and bit-identical to the streaming
datapath — a tested property.  Threshold units, fused or standalone,
count integer cuts (``ThresholdCuts``): an integer passes an endpoint
exactly when it passes the endpoint's ceiling, so one table of integer
cuts per unit replaces the float64 comparisons.  Level tensors stay in
their cut table's count dtype (``uint8`` up to 8-bit activations) through
max pools and into the next convolution's GEMM grid, as the hardware
streams 2-bit pixels; only sums that can outgrow a level — the residual
adder, raw accumulators and channel sums — widen to int64.
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


@dataclass(frozen=True, slots=True)
class LeapReport:
    """How one run was solved: how far its period carried it, or why it could not.

    ``windows`` images past the solved prefix were added by the certified
    ``period``.  Any other run names the cause in ``reason``: the solved
    prefix reached every image, or the run is ``demoted`` — solved whole
    because it is open-loop, traced or telemetered, or ticked by the
    engine's reference loop (``cycles`` is then ``None``) because it is
    exhaustive or the solver declines it.
    """

    cycles: int | None = None  # the solved cycle count; None when the engine ticked the run
    windows: int = 0  # images past the solved prefix, added by the period
    period: int = 0  # the certified cycles per image
    demoted: bool = False  # solved whole for a tracer, telemetry or open loop, or ticked
    reason: str | None = None  # why the period did not extend the run

    @property
    def leaps(self) -> int:
        """1 when the solved prefix was extended, else 0."""
        return int(self.windows > 0)

    @property
    def leaped_cycles(self) -> int:
        """Cycles the period added past the solved prefix."""
        return self.windows * self.period

    def line(self) -> str:
        """The report in one line, as ``repro simulate`` prints it."""
        if self.windows:
            return (
                f"leap: extended the solved prefix by {self.windows} image(s) of "
                f"{self.period:,} cycles ({self.leaped_cycles:,} cycles not solved)"
            )
        if self.cycles is None:
            return f"leap: the engine ticked the run: {self.reason}"
        return f"leap: solved whole: {self.reason}"


def batch_reference_outputs(pipeline: Pipeline, images: np.ndarray) -> np.ndarray:
    """All images' outputs through the kernels' batched functional paths.

    Walks the IR graph topologically, feeding each kernel's
    ``batch_compute`` the (port-ordered) parent tensors in the dtype the
    parent made them: integer images as they are (any other input is cast
    once to int64), levels in their count dtype.  The walk runs on
    :data:`_CHUNK_IMAGES` images at a time and fills one preallocated
    int64 output array, so only one slice's intermediate tensors are alive
    at once, each until its last reader has run.  Bit-identical to both the streamed outputs and
    :func:`repro.nn.inference.run_graph` (tested properties); a solved run
    takes its outputs from here, as it streams no values.
    """
    graph = pipeline.graph
    images = np.asarray(images)
    if images.dtype.kind not in "iu":
        images = images.astype(np.int64)
    if images.ndim == 3:
        images = images[None]
    n = images.shape[0]
    spec = graph.output_spec
    out = np.empty((n, spec.height, spec.width, spec.channels), dtype=np.int64)
    order = [name for name in graph.topological() if name != graph.input_name]
    # Dropping a tensor after its last reader hands its cache-warm memory
    # to the next kernel's result.
    last_read = {p: name for name in order for p in graph.parents(name)}
    for start in range(0, n, _CHUNK_IMAGES):
        chunk = images[start : start + _CHUNK_IMAGES]
        values: dict[str, np.ndarray] = {graph.input_name: chunk}
        for name in order:
            kernel = pipeline.kernels_by_node[name]
            parents = graph.parents(name)
            values[name] = getattr(kernel, "batch_compute")(*[values[p] for p in parents])
            for p in parents:
                if last_read[p] == name:
                    values.pop(p, None)
        out[start : start + len(chunk)] = values[graph.output_name]
    return out
