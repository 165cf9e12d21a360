"""Depth-first scan order and the shift-register window buffer (§III-B1b).

The paper streams feature maps **pixel by pixel with channels innermost**
("depth-first", Figure 4a): element *t* of the stream is channel
``t mod I`` of pixel ``t // I``, pixels advancing column-then-row.  A K x K
convolution then only needs to retain ``K − 1`` full scan lines plus ``K``
pixels of the current line:

    buffer elements = I * L * (K − 1) + I * K

where ``L`` is the scanned line length.  (The paper writes the formula with
``H`` for the line; with row-major scanning the line length is the padded
width.)  Width-first (channel-outermost) scanning would instead require
``L * W * (I − 1) + L * (K − 1) + K`` elements — Θ(I·L + K) per line versus
Θ(I·K): the asymptotic argument reproduced by
:func:`width_first_buffer_elements` and benchmarked in the scan-order
ablation.

:class:`ScanWindow` implements the buffer behaviourally for the cycle
simulator; the resource model uses the closed-form sizes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "depth_first_buffer_elements",
    "width_first_buffer_elements",
    "skip_buffer_elements",
    "ScanWindow",
]


def depth_first_buffer_elements(line: int, channels: int, k: int) -> int:
    """Buffer elements for depth-first scanning: ``I·L·(K−1) + I·K``."""
    return channels * line * (k - 1) + channels * k


def width_first_buffer_elements(line: int, width: int, channels: int, k: int) -> int:
    """Buffer elements for width-first scanning: ``L·W·(I−1) + L·(K−1) + K``."""
    return line * width * (channels - 1) + line * (k - 1) + k


def skip_buffer_elements(line: int, channels: int, k: int) -> int:
    """Skip-connection delay buffer size (§III-B5).

    The paper proves this equals the convolution buffer of the skipped
    layer: ``I·[L·(K−1) + K]`` — "exactly same size as the buffer in a
    convolutional layer.  This is not accidental."
    """
    return channels * (line * (k - 1) + k)


class ScanWindow:
    """Behavioural line buffer for a K x K window over a depth-first stream.

    The simulator feeds one element per cycle (either a stream value or an
    injected padding level); :meth:`feed` returns the completed ``(K, K, I)``
    window whenever the element just written finishes a window position.
    The caller decides what to do with it (convolve, pool, ...).

    Parameters
    ----------
    height, width:
        Dimensions of the (already padded, if applicable) scanned grid.
    channels:
        Feature maps ``I``.
    k:
        Window size.
    """

    def __init__(self, height: int, width: int, channels: int, k: int) -> None:
        if k > height or k > width:
            raise ValueError(f"window {k} larger than scanned grid {height}x{width}")
        self.height = height
        self.width = width
        self.channels = channels
        self.k = k
        # Full-grid backing store: behaviourally identical to the K-line
        # shift register, while keeping window extraction a cheap slice.
        self._grid = np.zeros((height, width, channels), dtype=np.int64)
        self._flat = self._grid.reshape(-1)
        self._total = height * width * channels
        self._km1 = k - 1
        self._pos = 0  # linear element position: ((r * width) + c) * I + i
        # Scan coordinates maintained incrementally (hot path: one feed per
        # simulated cycle; divmod per element is measurably expensive).
        self._r = 0
        self._c = 0
        self._i = 0
        self._pixel = 0  # r * width + c

    @property
    def position(self) -> tuple[int, int, int]:
        """Current (row, col, channel) about to be written."""
        return self._r, self._c, self._i

    @property
    def done(self) -> bool:
        return self._pos >= self._total

    def feed(self, value: int) -> tuple[int, int, np.ndarray] | None:
        """Write one element; if a window just completed, return it.

        Returns ``(row, col, window)`` where ``(row, col)`` is the
        bottom-right pixel of the completed K x K window and ``window`` has
        shape ``(K, K, I)``, or ``None`` when no window completes.
        """
        pos = self._pos
        if pos >= self._total:
            raise RuntimeError("ScanWindow overfed; reset before the next image")
        self._flat[pos] = value
        self._pos = pos + 1
        i = self._i
        if i + 1 < self.channels:
            self._i = i + 1
            return None
        # Last channel of the pixel: the window (if any) completes here,
        # then the scan advances to the next pixel.
        self._i = 0
        r = self._r
        c = self._c
        km1 = self._km1
        if r >= km1 and c >= km1:
            window = self._grid[r - km1 : r + 1, c - km1 : c + 1, :]
            completed = (r, c, window)
        else:
            completed = None
        if c + 1 < self.width:
            self._c = c + 1
        else:
            self._c = 0
            self._r = r + 1
        self._pixel += 1
        return completed

    def reset(self) -> None:
        self._pos = 0
        self._r = 0
        self._c = 0
        self._i = 0
        self._pixel = 0
        self._grid.fill(0)
