"""Exact plan timing, read off the geometry's op-recurrence solve.

The analytic rate model (:mod:`repro.hardware.timing`) ranks candidates in
the search loop but is only ~5% accurate on absolute cycles; the shipped
prediction must equal the simulated interval bit-for-bit.  Kernel timing
never depends on data values, so the geometry's op-recurrence solve
(:func:`repro.dataflow.schedule.replay_schedule`: every kernel op's cycle
from its op program, no engine tick) is the schedule of any real run of
the partition.  The schedule is cached on the graph and shared with the
§III-B5 skip solver, and its solve is handed to the next closed-loop run of
the geometry as its prefix: planning and then simulating the winner on more
than ``REPLAY_IMAGES`` images, untraced, solves once.  Only the winner
(and, in tests, its neighbors) is solved.
"""

from __future__ import annotations

from ..dataflow.interval import exact_completion_period, mean_completion_interval
from ..dataflow.schedule import replay_schedule
from ..nn.graph import LayerGraph
from .plan import PredictedTiming

__all__ = ["predict_partition_timing"]


def predict_partition_timing(
    graph: LayerGraph,
    partition: list[list[str]],
) -> PredictedTiming:
    """Exact interval/latency of ``partition``, from the geometry's op-recurrence solve.

    Bit-equal to a real ``simulate(...)`` of the same partition and image
    count (``REPLAY_IMAGES``) in either mode (leap or exhaustive) — tested
    property.
    """
    schedule = replay_schedule(graph, partition)
    completions = list(schedule.completion_cycles)
    return PredictedTiming(
        n_images=len(completions),
        replay_cycles=schedule.cycles,
        latency_cycles=completions[0],
        completion_cycles=schedule.completion_cycles,
        interval=mean_completion_interval(completions),
        period=exact_completion_period(completions),
        segments=schedule.segments,
    )
