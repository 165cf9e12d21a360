"""``python -m repro top``: one dashboard frame of a finished simulation.

:func:`render_frame` draws kernel utilization bars, FIFO occupancy and the
throughput headline from a :class:`~repro.telemetry.collector.Telemetry`
as of its last sample; ``repro top`` prints it once, after the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..dataflow.links import MAX4_FABRIC_MHZ

if TYPE_CHECKING:
    from .collector import Telemetry

__all__ = ["render_frame"]

_BAR_WIDTH = 24
_MAX_STREAMS = 12  # FIFO rows a frame shows, fullest first


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_frame(telemetry: "Telemetry") -> str:
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
        parts.append(f"{fps:,.1f} FPS @ {MAX4_FABRIC_MHZ:g} MHz")
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
    shown = streams[:_MAX_STREAMS]
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
