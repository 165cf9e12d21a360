"""Perf-regression trajectory for the cycle simulator.

Streaming-simulator benchmarks call :func:`record` with the simulated cycle
count and the best wall time per round; at session end the benchmark
``conftest`` flushes one trajectory entry (host manifest and per-case
``simulated_cycles_per_second``) to ``BENCH_streaming.json`` at the
repository root.  The file is an append-only list, so plotting it over
commits shows whether a PR sped up or regressed the simulator.  Each entry
carries the full host manifest (interpreter, numpy, CPU count, platform,
git describe) from :func:`repro.telemetry.manifest.host_manifest`, so
trajectories from different machines stay distinguishable.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from repro.perfwatch.baseline import load_trajectory, validate_entry
from repro.perfwatch.records import PerfDataError
from repro.telemetry.manifest import host_manifest

__all__ = ["BENCH_PATH", "record", "flush", "peek"]

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"

_cases: dict[str, dict[str, Any]] = {}
_last_flushed: dict[str, dict[str, Any]] = {}


def record(case: str, simulated_cycles: int, seconds: float, **extra: Any) -> None:
    """Register one benchmark case's throughput for the trajectory entry."""
    _cases[case] = {
        "simulated_cycles": int(simulated_cycles),
        "seconds": float(seconds),
        "simulated_cycles_per_second": round(simulated_cycles / seconds, 1),
        **extra,
    }


def peek() -> dict[str, dict[str, Any]]:
    """The session's cases: pending ones, or the last flushed snapshot.

    The perfwatch plugin folds these into its ``repro-perf/1`` report at
    session finish; the fallback keeps the answer correct whichever of the
    two ``pytest_sessionfinish`` hooks (this module's flush via the bench
    conftest, or the plugin's writer) happens to run first.
    """
    return dict(_cases) or dict(_last_flushed)


def flush() -> None:
    """Append the session's cases to ``BENCH_streaming.json`` (if any ran).

    The entry is validated against the perfwatch known-case registry and
    schema before it is written — a malformed append (unknown case key,
    missing rate) fails the session loudly instead of poisoning the
    trajectory for every later diff.  So does an entry stamped before the
    file's last one.  An existing file that does not parse raises
    :class:`PerfDataError` untouched, and the append goes through a temp
    file and ``os.replace`` so an interrupted write cannot truncate it.
    """
    if not _cases:
        return
    entries = load_trajectory(BENCH_PATH) if BENCH_PATH.exists() else []
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **host_manifest(),
        "cases": dict(sorted(_cases.items())),
    }
    problems = validate_entry(entry, len(entries))
    # Fixed-width UTC ISO stamps, so string order is time order.  The last
    # entry can be stamped after now (clock skew, a hand edit).
    last_ts = entries[-1].get("timestamp") if entries and isinstance(entries[-1], dict) else None
    if isinstance(last_ts, str) and entry["timestamp"] < last_ts:
        problems.append(
            f"entry[{len(entries)}]: timestamp {entry['timestamp']} precedes the last entry's "
            f"{last_ts} — the trajectory must be append-only"
        )
    if problems:
        raise PerfDataError(
            "refusing to append a malformed trajectory entry: " + "; ".join(problems)
        )
    entries.append(entry)
    tmp = BENCH_PATH.with_name(BENCH_PATH.name + ".tmp")
    tmp.write_text(json.dumps(entries, indent=2) + "\n")
    os.replace(tmp, BENCH_PATH)
    _last_flushed.clear()
    _last_flushed.update(_cases)
    _cases.clear()
