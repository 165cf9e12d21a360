"""``python -m repro top``: a dashboard that replays a simulation's samples.

The dashboard is just another telemetry sample listener: for every sample
(every ``sample_every`` simulated cycles, read off the solved run and
handed over in cycle order) the listener re-renders kernel utilization
bars, FIFO occupancy, and the throughput headline.

On a real terminal it redraws in place with ANSI cursor control (no curses
dependency: ``ESC[H``/``ESC[J`` are universal and keep the renderer usable
inside pipes and CI logs); when stdout is not a TTY it degrades to
periodic plain-text frames.  Wall-clock throttling (``min_interval_s``)
limits how often it redraws: frames are dropped, samples are not, and the
final frame always lands.
"""

from __future__ import annotations

import sys
import time
from typing import IO, TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .collector import Telemetry

__all__ = ["Dashboard", "render_frame"]

_BAR_WIDTH = 24


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_frame(telemetry: "Telemetry", max_streams: int = 12) -> str:
    """One dashboard frame as plain text (also what the tests assert on)."""
    last = telemetry.last
    cycle = last.get("cycle", 0)
    images = last.get("images", 0)
    fps = last.get("fps")
    interval = last.get("interval")
    initiation = last.get("initiation")
    title = "run complete" if telemetry.finished else "running"
    head = [f"repro top — {title} @ cycle {cycle:,} | images {images}"]
    parts = []
    if fps is not None:
        parts.append(f"{fps:,.1f} FPS @ {telemetry.fclk_mhz:g} MHz")
    if interval is not None:
        parts.append(f"interval {interval:,.0f} cyc/img")
    if initiation is not None:
        parts.append(f"II {initiation:,} cyc")
    if parts:
        head.append("  " + " | ".join(parts))
    p99 = last.get("latency_p99")
    queue_depth = last.get("queue_depth")
    if p99 is not None:
        lat = (
            f"  latency p50 {last['latency_p50']:,} | p95 {last['latency_p95']:,} "
            f"| p99 {p99:,} | max {last['latency_max']:,} cyc"
        )
        if queue_depth:
            lat += f" | host queue {queue_depth}"
        head.append(lat)
    elif telemetry.finished and images == 0:
        head.append("  latency: n/a (no completed images)")

    lines = head + ["", "  kernel                  utilization              busy/starved/blocked"]
    for row in telemetry.kernel_rows():
        lines.append(
            f"  {row['name']:<22} [{_bar(row['utilization'])}] "
            f"{row['utilization']:>6.1%}  {row['busy']:,}/{row['starved']:,}/{row['blocked']:,}"
        )

    streams = telemetry.stream_rows()
    streams.sort(key=lambda r: (-(r["occupancy"] / r["capacity"] if r["capacity"] else 0), r["name"]))
    shown = streams[:max_streams]
    if shown:
        lines += ["", "  stream                  occupancy                occ/cap (peak)"]
        for row in shown:
            frac = row["occupancy"] / row["capacity"] if row["capacity"] else 0.0
            lines.append(
                f"  {row['name']:<22} [{_bar(frac)}] "
                f"{row['occupancy']:>6,}/{row['capacity']:,} ({row['peak']:,})"
            )
        if len(streams) > len(shown):
            lines.append(f"  ... and {len(streams) - len(shown)} more streams")
    return "\n".join(lines)


class Dashboard:
    """A sample listener that re-renders the dashboard as the samples arrive."""

    def __init__(
        self,
        out: IO[str] | None = None,
        min_interval_s: float = 0.2,
        ansi: bool | None = None,
        max_streams: int = 12,
    ) -> None:
        self.out: IO[str] = out if out is not None else sys.stdout
        self.min_interval_s = min_interval_s
        if ansi is None:
            ansi = bool(getattr(self.out, "isatty", lambda: False)())
        self.ansi = ansi
        self.max_streams = max_streams
        self.frames = 0
        self._last_render = 0.0

    def __call__(self, telemetry: "Telemetry", cycle: int) -> None:
        now = time.monotonic()
        if not telemetry.finished and now - self._last_render < self.min_interval_s:
            return  # drop the frame, keep the sample cheap
        self._last_render = now
        frame = render_frame(telemetry, max_streams=self.max_streams)
        if self.ansi:
            # Home the cursor and clear to end of screen: an in-place redraw.
            self.out.write("\x1b[H\x1b[J" + frame + "\n")
        else:
            if self.frames:
                self.out.write("\n")
            self.out.write(frame + "\n")
        self.out.flush()
        self.frames += 1
