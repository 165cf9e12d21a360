"""The value-independent timing replay: one zero-batch schedule per geometry.

Kernel scheduling never depends on data values: the cycle at which any
kernel consumes or emits depends only on tensor geometry.  So one abstract
replay per geometry (graph, partition, link, f_clk) — a zero image batch,
convolution arithmetic stubbed to emit the right *number* of zeros, one
fast-engine run — yields the schedule of every real run of that geometry.
The §III-B5 skip solver (:func:`repro.dataflow.verify.solve_skip_capacities`)
reads the skip high-water marks off it; the partition planner
(:func:`repro.planner.replay.predict_partition_timing`) reads the
completion instants and per-partition segments.

The replay's skip FIFOs are effectively unbounded.  A skip FIFO sized to
its high-water mark ``C`` never retimes anything — every push in the
unbounded replay happened at occupancy ``<= C - 1``, and the fork feeding
the skip arm checks space before pushing — so an exact-sized run completes
on the same cycles.  The mark is flat from the second image on, so the
:data:`REPLAY_IMAGES` replay sizes runs of any length (tested).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..kernels.conv import ConvKernel
from ..nn.graph import AddNode, LayerGraph
from .engine import CycleBudgetExceeded
from .links import MAXRING, LinkSpec
from .manager import build_pipeline

__all__ = ["REPLAY_IMAGES", "REPLAY_MAX_CYCLES", "Schedule", "replay_schedule"]

# Four images give three completion gaps — enough for
# `exact_completion_period` to certify a steady-state period.  Tests that
# compare the prediction with a real simulation stream the same count.
REPLAY_IMAGES = 4

# Cycle budget of one replay; a geometry that does not drain within it
# raises instead of being cached.
REPLAY_MAX_CYCLES = 500_000_000

_REPLAY_SKIP_CAPACITY = 1 << 22


@dataclass(frozen=True, slots=True)
class Schedule:
    """The cycle schedule of one geometry, from the zero-batch replay."""

    cycles: int
    completion_cycles: tuple[int, ...]
    skip_high_water: Mapping[str, int]  # residual adder -> skip stream max occupancy
    segments: tuple[tuple[str, float], ...]  # (label, mean cycles) per partition segment


def replay_schedule(
    graph: LayerGraph,
    partition: list[list[str]] | None = None,
    link: LinkSpec = MAXRING,
    fclk_mhz: float = 105.0,
) -> Schedule:
    """The schedule of ``graph`` under ``partition``, replayed once and cached on the graph.

    One group covering every compute node is the same geometry as ``None``.
    Raises ``RuntimeError`` (and caches nothing) if the replay does not
    drain within :data:`REPLAY_MAX_CYCLES`.
    """
    groups = None if partition is None else tuple(tuple(group) for group in partition)
    compute_nodes = set(graph.nodes) - {graph.input_name}
    if groups is not None and len(groups) == 1 and set(groups[0]) >= compute_nodes:
        groups, partition = None, None
    cache: dict[Any, Schedule] = vars(graph).setdefault("_schedule_cache", {})
    key = (groups, link, float(fclk_mhz))
    if key in cache:
        return cache[key]

    from ..telemetry.latency import segment_summaries

    spec = graph.input_spec
    zeros = np.zeros((REPLAY_IMAGES, spec.height, spec.width, spec.channels), dtype=np.int64)
    adds = [n for n in graph.order if isinstance(graph.nodes[n], AddNode)]
    pipeline = build_pipeline(
        graph,
        zeros,
        partition=partition,
        link=link,
        fclk_mhz=fclk_mhz,
        skip_sizing={add: _REPLAY_SKIP_CAPACITY for add in adds},
    )
    for kernel in pipeline.engine.kernels:
        if isinstance(kernel, ConvKernel):
            # Instance attribute shadows the method: right count, no arithmetic.
            zero_out = [0] * kernel.out_channels
            kernel._compute_outputs = lambda window, _z=zero_out: _z  # type: ignore[method-assign]
    try:
        cycles = pipeline.engine.run(lambda: pipeline.sink.done, max_cycles=REPLAY_MAX_CYCLES)
    except CycleBudgetExceeded as exc:
        raise RuntimeError(
            f"timing replay of {graph.name!r} did not finish within {REPLAY_MAX_CYCLES:,} "
            "cycles — run `python -m repro check` on this geometry"
        ) from exc
    cache[key] = Schedule(
        cycles=cycles,
        completion_cycles=tuple(pipeline.sink.completion_cycles),
        skip_high_water={add: s.stats.max_occupancy for add, s in pipeline.skip_streams.items()},
        segments=tuple(
            (label, float(summary.mean))
            for label, summary in segment_summaries(pipeline)
            if summary.mean is not None
        ),
    )
    return cache[key]
