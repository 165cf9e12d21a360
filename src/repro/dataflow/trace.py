"""Structured event tracing for the dataflow simulator.

A :class:`Tracer` passed to :func:`~repro.dataflow.manager.simulate` holds
the run's *typed, cycle-exact* events:

* **kernel spans** — contiguous runs of identical per-cycle classifications
  (``compute`` / ``starved`` / ``blocked`` / ``idle``);
* **stream events** — every push and pop with the post-event occupancy
  (push events also carry the cycle the element becomes visible, which is
  how link transits are reconstructed for streams with latency);
* **reject spans** — contiguous full-FIFO push rejections per stream;
* **image completions** — one instant per image leaving the host sink.

Every trace is written from the run's solved schedule
(:class:`repro.dataflow.schedule.Timeline`), in every mode: an exhaustive
run ticks the engine for its outputs and counters and takes its trace from
the same solve.  The test suite holds each solved trace equal to one
recorded off the engine's reference loop, whose ``done`` callback reads
every counter and FIFO once per cycle, over every equivalence topology.

The event log is the oracle of :class:`repro.dataflow.tracing.LayerTable`
(live windows, duty cycles, stall breakdowns: each row equals a kernel's
summed spans), and it holds what the aggregate counters cannot express:
FIFO occupancy over time
(:meth:`occupancy_timeline`) and the full Chrome-trace/Perfetto timeline
(:meth:`to_chrome_trace` / :meth:`write_chrome_trace`, one simulated cycle
mapped to one microsecond; load the JSON at https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .engine import Engine

__all__ = [
    "ImageCompletion",
    "KernelSpan",
    "RejectSpan",
    "StreamEvent",
    "Tracer",
    "load_chrome_trace",
]


@dataclass(slots=True)
class KernelSpan:
    """A maximal run of cycles with one per-cycle classification."""

    kernel: str
    kind: str
    start: int
    end: int  # inclusive

    @property
    def cycles(self) -> int:
        return self.end - self.start + 1


@dataclass(slots=True)
class StreamEvent:
    """One push or pop on a stream.

    ``occupancy`` is the FIFO depth *after* the event; for pushes ``ready``
    is the cycle the element becomes visible to the reader (``cycle + 1 +
    latency`` — more than one cycle ahead means the element is in transit
    on a link).
    """

    stream: str
    kind: str  # "push" | "pop"
    cycle: int
    occupancy: int
    ready: int = -1  # pushes only; -1 for pops


@dataclass(slots=True)
class RejectSpan:
    """A maximal run of cycles during which a full stream rejected a push."""

    stream: str
    start: int
    end: int  # inclusive

    @property
    def cycles(self) -> int:
        return self.end - self.start + 1


@dataclass(slots=True)
class ImageCompletion:
    """One image fully emerged from the host sink.

    ``admission`` is the cycle the image's first element entered the fabric
    (stamped by the host source), so the pair renders as a duration — the
    image's lifecycle span — rather than a bare completion instant.  It is
    ``-1`` when the source never reported an admission (a custom pipeline
    without a :class:`~repro.kernels.io.HostSource`); schema
    ``repro-trace/2`` added the field, everything older in the JSON shape is
    unchanged.
    """

    index: int
    cycle: int
    admission: int = -1

    @property
    def span_cycles(self) -> int:
        """Ingest-to-sink cycles, or 0 when the admission is unknown."""
        return self.cycle - self.admission if self.admission >= 0 else 0


class Tracer:
    """The typed event log of one run (single-use).

    Create a fresh tracer per run and pass it to ``simulate(..., trace=...)``;
    ``simulate`` registers the pipeline's kernels and streams on it before
    the run starts and writes the log from the solved schedule once the run
    ends (or hits its budget).
    """

    def __init__(self) -> None:
        self.engine_name: str = ""
        self.kernel_spans: dict[str, list[KernelSpan]] = {}
        self.stream_events: dict[str, list[StreamEvent]] = {}
        self.reject_spans: dict[str, list[RejectSpan]] = {}
        self.completions: list[ImageCompletion] = []
        self.total_cycles: int | None = None
        self._stream_meta: dict[str, dict[str, int]] = {}
        self._attached = False

    def attach(self, engine: Engine) -> None:
        """Register ``engine``'s kernels and streams, before the run is solved or ticked."""
        if self._attached:
            raise ValueError("a Tracer is single-use; create a fresh one per run")
        self._attached = True
        self.engine_name = engine.name
        for kernel in engine.kernels:
            self.kernel_spans[kernel.name] = []
        for stream in engine.streams:
            self.stream_events[stream.name] = []
            self.reject_spans[stream.name] = []
            self._stream_meta[stream.name] = {
                "capacity": stream.capacity,
                "latency": stream.latency,
                "bits": stream.bits,
            }

    def finish(self, total_cycles: int) -> None:
        """Seal the trace with the run's final cycle count."""
        self.total_cycles = total_cycles

    # -- derived views ---------------------------------------------------
    def occupancy_timeline(self, stream: str) -> list[tuple[int, int]]:
        """Step samples ``(cycle, occupancy)`` — one per cycle with events.

        The occupancy is the FIFO depth after the cycle's last event; the
        timeline starts implicitly at ``(run start, 0)``.
        """
        samples: list[tuple[int, int]] = []
        for event in self.stream_events[stream]:
            if samples and samples[-1][0] == event.cycle:
                samples[-1] = (event.cycle, event.occupancy)
            else:
                samples.append((event.cycle, event.occupancy))
        return samples

    def link_transits(self, stream: str) -> list[tuple[int, int]]:
        """``(push_cycle, ready_cycle)`` per element for latency streams."""
        if self._stream_meta.get(stream, {}).get("latency", 0) <= 0:
            return []
        return [(e.cycle, e.ready) for e in self.stream_events[stream] if e.kind == "push"]

    def event_count(self) -> int:
        """Total recorded events (spans + stream events + completions)."""
        return (
            sum(len(s) for s in self.kernel_spans.values())
            + sum(len(e) for e in self.stream_events.values())
            + sum(len(r) for r in self.reject_spans.values())
            + len(self.completions)
        )

    # -- Chrome-trace / Perfetto export ----------------------------------
    def to_chrome_trace(self) -> dict[str, Any]:
        """The event log as a Chrome-trace JSON object.

        One simulated cycle maps to one microsecond of trace time.  Kernels
        render as threads of process 0 (one complete-event per span);
        streams render under process 1 as FIFO-occupancy counter tracks,
        reject complete-events, and async begin/end pairs for elements in
        transit on latency links.  Image completions are global instants.
        Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` both
        load this format directly.
        """
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": f"kernels ({self.engine_name})"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": f"streams ({self.engine_name})"},
            },
        ]
        for tid, (kernel, spans) in enumerate(self.kernel_spans.items()):
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": kernel}}
            )
            for span in spans:
                events.append(
                    {
                        "name": span.kind,
                        "cat": "kernel",
                        "ph": "X",
                        "pid": 0,
                        "tid": tid,
                        "ts": span.start,
                        "dur": span.cycles,
                        "args": {"cycles": span.cycles},
                    }
                )
        for tid, stream in enumerate(self.stream_events):
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": stream}}
            )
            for cycle, occupancy in self.occupancy_timeline(stream):
                events.append(
                    {
                        "name": f"fifo:{stream}",
                        "cat": "stream",
                        "ph": "C",
                        "pid": 1,
                        "tid": tid,
                        "ts": cycle,
                        "args": {"occupancy": occupancy},
                    }
                )
            for span in self.reject_spans[stream]:
                events.append(
                    {
                        "name": "reject",
                        "cat": "stream",
                        "ph": "X",
                        "pid": 1,
                        "tid": tid,
                        "ts": span.start,
                        "dur": span.cycles,
                        "args": {"rejected_pushes": span.cycles},
                    }
                )
            for element, (pushed, ready) in enumerate(self.link_transits(stream)):
                ident = f"{stream}#{element}"
                common = {"cat": "link", "pid": 1, "tid": tid, "id": ident, "name": f"transit:{stream}"}
                events.append({**common, "ph": "b", "ts": pushed})
                events.append({**common, "ph": "e", "ts": ready})
        for completion in self.completions:
            if completion.admission >= 0:
                # Lifecycle span: ingest (admission) to sink completion —
                # images render as durations on an "images" track.
                events.append(
                    {
                        "name": f"image {completion.index}",
                        "cat": "image",
                        "ph": "X",
                        "pid": 0,
                        "tid": len(self.kernel_spans),
                        "ts": completion.admission,
                        "dur": max(1, completion.span_cycles),
                        "args": {
                            "admission_cycle": completion.admission,
                            "completion_cycle": completion.cycle,
                            "span_cycles": completion.span_cycles,
                        },
                    }
                )
            events.append(
                {
                    "name": f"image {completion.index} complete",
                    "cat": "image",
                    "ph": "i",
                    "pid": 0,
                    "tid": 0,
                    "ts": completion.cycle,
                    "s": "g",
                }
            )
        if any(c.admission >= 0 for c in self.completions):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": len(self.kernel_spans),
                    "args": {"name": "images"},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "engine": self.engine_name,
                "schema": "repro-trace/2",
                "total_cycles": self.total_cycles,
                "time_unit": "1 trace us == 1 simulated cycle",
                "streams": self._stream_meta,
            },
        }

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Serialize :meth:`to_chrome_trace` to ``path`` (parents created); returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace()) + "\n")
        return path

    # -- equality (used by the solved/exhaustive property tests) ---------
    def state(self) -> dict[str, Any]:
        """The full event log as plain data, for equality assertions."""
        return {
            "engine": self.engine_name,
            "total_cycles": self.total_cycles,
            "kernel_spans": {k: [asdict(s) for s in v] for k, v in self.kernel_spans.items()},
            "stream_events": {k: [asdict(e) for e in v] for k, v in self.stream_events.items()},
            "reject_spans": {k: [asdict(r) for r in v] for k, v in self.reject_spans.items()},
            "completions": [asdict(c) for c in self.completions],
        }


def load_chrome_trace(path: str | Path) -> dict[str, Any]:
    """Load and minimally validate a Chrome-trace JSON file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        raise ValueError(f"{path}: not a Chrome-trace JSON object")
    return data
