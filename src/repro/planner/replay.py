"""Exact plan timing, read off the value-independent timing replay.

The analytic rate model (:mod:`repro.hardware.timing`) ranks candidates in
the search loop but is only ~5% accurate on absolute cycles; the shipped
prediction must equal the simulated interval bit-for-bit.  Kernel timing
never depends on data values, so the geometry's zero-batch replay
(:func:`repro.dataflow.schedule.replay_schedule`) walks the schedule of any
real run of the partition.  The replay is cached on the graph and shared
with the §III-B5 skip solver, so planning and then simulating the winner
replays once.  Only the winner (and, in tests, its neighbors) is replayed.
"""

from __future__ import annotations

from ..dataflow.interval import exact_completion_period, mean_completion_interval
from ..dataflow.links import MAXRING, LinkSpec
from ..dataflow.schedule import replay_schedule
from ..nn.graph import LayerGraph
from .plan import PredictedTiming

__all__ = ["predict_partition_timing"]


def predict_partition_timing(
    graph: LayerGraph,
    partition: list[list[str]],
    *,
    link: LinkSpec = MAXRING,
    fclk_mhz: float = 105.0,
) -> PredictedTiming:
    """Exact interval/latency of ``partition``, from the geometry's timing replay.

    Bit-equal to a real ``simulate(...)`` of the same partition and image
    count (``REPLAY_IMAGES``) in any mode (exhaustive/fast/leap) — tested
    property.
    """
    schedule = replay_schedule(graph, partition, link=link, fclk_mhz=fclk_mhz)
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
