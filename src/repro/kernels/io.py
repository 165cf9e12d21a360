"""Host-side source and sink kernels (the CPU ends of the PCIe streams).

The paper keeps all pre-trained parameters on the CPU and streams images in
"directly from the CPU" (unlike FINN, which stores inputs on-chip); results
stream back for the CPU-side softmax/readout.  :class:`HostSource` replays
a batch of images as a depth-first element stream; :class:`HostSink`
reassembles output tensors and records per-image completion cycles — the
measurement point for latency, throughput and initiation-interval claims.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..dataflow.kernel import STALL_BLOCKED, STALL_IDLE, STALL_STARVED, Kernel, OpProgram
from ..nn.graph import TensorSpec

__all__ = ["HostSource", "HostSink"]


class HostSource(Kernel):
    """Streams a batch of images into the first on-fabric kernel.

    Each image's *admission cycle* — the cycle its first element entered the
    fabric — is stamped into :attr:`admission_cycles`, giving every image
    the ingest end of its lifecycle span (the sink records the completion
    end).  An optional ``arrival_cycles`` schedule turns the source into an
    **open-loop** load generator: image *i* is withheld until its arrival
    cycle, modelling requests landing at the host at a target rate instead
    of back-to-back.  The gap between arrival and admission is the
    host-queue wait (backpressure from a saturated pipeline shows up here
    first).  While waiting for a future arrival the source idles; a solved
    run floors each image's first push at its arrival instead.
    """

    blocked_rejects_output = True
    stall_order = (STALL_IDLE, STALL_BLOCKED)
    idles_when_done = True

    def __init__(
        self,
        name: str,
        images: np.ndarray,
        spec: TensorSpec,
        arrival_cycles: list[int] | None = None,
    ) -> None:
        super().__init__(name)
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        expected = (spec.height, spec.width, spec.channels)
        if images.shape[1:] != expected:
            raise ValueError(f"images shape {images.shape[1:]} != input spec {expected}")
        self.n_images = images.shape[0]
        self._images = images
        self._n = images.size
        self._per_image = spec.elements
        self._pos = 0
        # Position of the next image boundary: pos == _boundary means the
        # next element pushed is the first element of image len(admission_cycles).
        self._boundary = 0
        self.admission_cycles: list[int] = []
        if arrival_cycles is not None:
            arrival_cycles = [int(c) for c in arrival_cycles]
            if len(arrival_cycles) != self.n_images:
                raise ValueError(
                    f"arrival schedule has {len(arrival_cycles)} entries "
                    f"for {self.n_images} image(s)"
                )
            if any(c < 0 for c in arrival_cycles):
                raise ValueError("arrival cycles must be >= 0")
            if any(b < a for a, b in zip(arrival_cycles, arrival_cycles[1:])):
                raise ValueError("arrival cycles must be non-decreasing")
        self.arrival_cycles = arrival_cycles

    @property
    def done(self) -> bool:
        return self._pos >= self._n

    @cached_property
    def _flat(self) -> list[int]:
        """The depth-first element stream (row, column, channel — C order of HWC).

        Plain Python ints, so the per-cycle push path never touches numpy
        scalars.  Built on the first tick: a run the schedule path solves
        without ticking never needs it.
        """
        flat: list[int] = self._images.reshape(-1).astype(np.int64).tolist()
        return flat

    def op_program(self) -> OpProgram:
        """One push per element (closed loop: the replay never withholds an image)."""
        ops = np.arange(self._per_image)
        return OpProgram(ops=self._per_image, pops=(), pushes=(ops,))

    def tick(self, cycle: int) -> int | None:
        pos = self._pos
        if pos >= self._n:
            return self._idle(cycle)
        at_boundary = pos == self._boundary
        if at_boundary and self.arrival_cycles is not None:
            arrival = self.arrival_cycles[len(self.admission_cycles)]
            if cycle < arrival:
                # The next image has not arrived yet: idle until it does.
                return self._idle(cycle)
        if self.outputs[0].push(self._flat[pos], cycle):
            if at_boundary:
                self.admission_cycles.append(cycle)
                self._boundary += self._per_image
            self._pos = pos + 1
            stats = self.stats
            stats.elements_out += 1
            stats.active_cycles += 1
            if stats.first_active_cycle is None:
                stats.first_active_cycle = cycle
            stats.last_active_cycle = cycle
            return None
        else:
            return self._blocked(cycle)


class HostSink(Kernel):
    """Collects the output stream and reassembles per-image tensors."""

    stall_order = (STALL_STARVED,)
    idles_when_done = True

    def __init__(self, name: str, spec: TensorSpec, n_images: int) -> None:
        super().__init__(name)
        self.spec = spec
        self.n_images = n_images
        self._per_image = spec.elements
        self._total = n_images * self._per_image
        self._values: list[int] = []
        self._pos = 0
        self.completion_cycles: list[int] = []

    @property
    def done(self) -> bool:
        return self._pos >= self._total

    def op_program(self) -> OpProgram:
        ops = np.arange(self._per_image)
        return OpProgram(ops=self._per_image, pops=(ops,), pushes=())

    def tick(self, cycle: int) -> None:
        pos = self._pos
        if pos >= self._total:
            return self._idle(cycle)
        inp = self.inputs[0]
        fifo = inp._fifo
        if not (fifo and fifo[0][1] <= cycle):
            return self._starved(cycle)
        self._values.append(inp.pop(cycle))
        pos += 1
        self._pos = pos
        stats = self.stats
        stats.elements_in += 1
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        if pos % self._per_image == 0:
            self.completion_cycles.append(cycle)

    def output_tensor(self) -> np.ndarray:
        """The collected outputs, shape (N, H, W, C)."""
        if not self.done:
            raise RuntimeError(f"sink {self.name!r}: only {self._pos}/{self._total} elements received")
        return np.asarray(self._values, dtype=np.int64).reshape(
            self.n_images, self.spec.height, self.spec.width, self.spec.channels
        )
