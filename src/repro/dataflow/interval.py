"""Steady-state interval derivation, shared across the stack.

The steady-state interval — mean cycles between consecutive image
completions, the paper's initiation-interval measurement (§IV-B4) — used to
be derived independently by :class:`~repro.dataflow.engine.RunResult`, the
telemetry collector's per-sample throughput gauges, and the benchmark
harness's ``extra_info`` rows.  One closed form lives here now;
:func:`exact_completion_period` reads an exact period off the same
completion-cycle anchors.

Both helpers take the host sink's ``completion_cycles`` list (monotone
non-decreasing ints, one per completed image).
"""

from __future__ import annotations

from collections.abc import Sequence

from .links import MAX4_FABRIC_MHZ

__all__ = ["achieved_fps", "mean_completion_interval", "exact_completion_period"]


def mean_completion_interval(completion_cycles: Sequence[int]) -> float | None:
    """Mean cycles between consecutive completions (throughput⁻¹).

    Equals ``(last - first) / (n - 1)``; completion cycles are integers, so
    the sum of gaps is exact in float64 and this closed form is bit-identical
    to averaging ``np.diff``.  Returns ``None`` with fewer than two
    completions — a single image has a latency, not an interval, and an
    explicit ``None`` is what telemetry gauges and bench ``extra_info`` rows
    render as ``n/a`` (rather than a division-by-zero or a NaN silently
    propagating into exports).
    """
    if len(completion_cycles) < 2:
        return None
    span = completion_cycles[-1] - completion_cycles[0]
    return span / (len(completion_cycles) - 1)


def achieved_fps(completion_cycles: Sequence[int]) -> float | None:
    """Completed images per second over the first-to-last completion span, at the fabric clock.

    Load generation, fleet replicas and the fleet aggregate all report this
    figure.  Returns ``None`` with fewer than two completions or a zero span
    (simultaneous completions have no measurable rate).
    """
    if len(completion_cycles) < 2 or completion_cycles[-1] <= completion_cycles[0]:
        return None
    span = completion_cycles[-1] - completion_cycles[0]
    return (len(completion_cycles) - 1) / span * MAX4_FABRIC_MHZ * 1e6


def exact_completion_period(completion_cycles: Sequence[int], window: int = 2) -> int | None:
    """The exact completion period, if the last ``window`` gaps all agree.

    Returns the common cycle gap ``P`` between the last ``window + 1``
    completions when every one of those gaps equals ``P`` (the pipeline is
    *plausibly* periodic — :func:`repro.dataflow.schedule.solve_run`
    certifies a period from every kernel's op times before extending a
    run by it), or ``None`` when the gaps disagree or there are not enough
    completions yet.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    if len(completion_cycles) < window + 1:
        return None
    tail = completion_cycles[-(window + 1) :]
    period = tail[1] - tail[0]
    if period <= 0:
        return None
    for a, b in zip(tail, tail[1:]):
        if b - a != period:
            return None
    return period
