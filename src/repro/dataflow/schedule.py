"""The value-independent timing replay: one zero-batch schedule per geometry.

Kernel scheduling never depends on data values: the cycle at which any
kernel consumes or emits depends only on tensor geometry.  So one schedule
per geometry (graph, partition) — :data:`REPLAY_IMAGES` images — is
the schedule of every real run of that geometry.  The §III-B5 skip solver
(:func:`repro.dataflow.verify.solve_skip_capacities`) reads the skip
high-water marks off it; the partition planner
(:func:`repro.planner.replay.predict_partition_timing`) reads the
completion instants and per-partition segments.

The schedule comes from an op-recurrence solve, not from ticking the
engine.  Each kernel does at most one op (active cycle) per cycle, in the
order its :meth:`~repro.dataflow.kernel.Kernel.op_program` lists, so op
``i`` runs at ``t_i = max(t_{i-1} + 1, c_i)``, where ``c_i`` is the
latest of

* ``push + 1 + latency`` of every element it pops (a push at ``t`` is
  visible at ``t + 1`` plus the stream's link latency), and
* ``pop + 1`` of the element ``capacity`` places before every element it
  pushes: kernels tick in topological order, so a pop at ``t`` frees its
  slot for the writer at ``t + 1``.

With ``c`` fixed a kernel's times are ``i + cummax(c - i)``.  The coupled
system is solved in slabs.  Each kernel keeps a window of its next
uncommitted ops, its own width wide; the windows are relaxed by alternating
forward and backward sweeps over the kernels (seeded from below, every op
past a window held at "never") until nothing changes.  Then each kernel
commits its own finite prefix: every window op solved below "never" (and
below the cycle budget).  Each such time is exact.  Every constraint delay
is at least one cycle, and an op held at "never" makes every op waiting on
it "never" too, so an op settled at a finite ``w`` waits only on finite
ops, all at cycles ``<= w - 1``: its predecessor and the partners of its
constraints, committed or in a window.  By induction on ``w`` each of those
already equals its true time, so the op's recurrence reads the true times
and gives its own.  The solve stops when a settled slab commits nothing.
That leaves no op below the budget unsolved: the uncommitted op that truly
runs earliest heads its kernel's window and waits only on committed ops,
so it settles at its true time and is committed unless that time is at or
past the budget.  Every other uncommitted op runs later, or never: it lies
on a dependency cycle (its kernel is marked dead) or waits for one.

A relax does work in proportion to what changed.  Within a slab every
window time is a lower bound of its settled value and only rises: the seed
is one, and a relax is monotone in the times it reads.  So each window
keeps its constraint maxima ``c`` between sweeps.  A constraint on a
partner's committed op, or on one past the partner's window (held at
"never"), is fixed for the slab and read into ``c`` once, when the window
opens.  A relax re-reads only the partner ops that changed since it last
read them (an unchanged time adds nothing to a maximum that already holds
it), recomputes the window only from its first op whose maximum rose, and
stops at its first op at "never" (every later op waits on it, so stays at
"never" for the slab).  Each relax thus leaves exactly the times a relax
from scratch would, and the fixed point is the same.

Windows are sized to a common cycle horizon, ``horizon`` cycles past the
latest committed op.  A kernel runs at most one op per cycle, so its next
window holds at most the cycles from its last committed op to the horizon.
It also ends before its first op that pops an element its writer's window
does not push, or pushes into a slot its reader's window does not free:
that op waits on "never" and cannot commit in the slab.  Every window
keeps at least one op, and a cap bounds it (hence peak memory).  A slab
that settles in few sweeps doubles the horizon, one that needs many halves
it, and one that does not settle narrows every window, halves the horizon
and retries.  The engine remains the test oracle (``tests/test_schedule.py``),
and the solved times do not depend on the window widths (tested).

The replay's skip FIFOs are unbounded.  A skip FIFO sized to its
high-water mark ``C`` never retimes anything — every push in the
unbounded replay happened at occupancy ``<= C - 1``, and the fork feeding
the skip arm checks space before pushing — so an exact-sized run completes
on the same cycles.  The mark is flat from the second image on, so the
:data:`REPLAY_IMAGES` replay sizes runs of any length (tested).  So the
replay's solve is the prefix of every run it sizes: it waits in a slot on
the graph for the next closed-loop, untraced, untelemetered :func:`solve_run`
of the geometry on more images, which empties the slot and takes it if every
skip FIFO is at least its mark deep (as exact and ``"bound"`` sizing are) and
no op reaches the budget.  Other runs solve their own, bit-equal prefix (tested).

The same solve runs ``simulate`` whenever it need not tick
(:func:`solve_run`).  There each open-loop image's first push waits for
its arrival, every skip FIFO keeps its built capacity, and the counters the
engine keeps live and the state it leaves at a budget abort are derived
from the op times (``tests/test_schedule_run.py``).  Every run's event
trace and telemetry samples, ticked or not, read the run's
:class:`Timeline` (:func:`replay_timeline`).

A closed-loop run is solved for a prefix of ``K`` images (the first ``K``
images of the ``N``-image run: no constraint points at a later image) and
extended to all ``N`` by its per-image period — the paper's §IV-B4 clocks
per picture, made exact.  The prefix is *certified* when every kernel's op times for
image ``m + 1`` equal those for image ``m`` plus one common ``P`` over the
last ``H + 1`` image pairs, where ``H >= 1`` is the furthest back, in
images, that any constraint reaches: an op's predecessor lies at most one
image back, a popped element was pushed in the same image, and a bounded
stream's slot rule reaches ``ceil(capacity / per-image elements)`` images
back.  That shift then holds for every later image.  Image ``m``'s times
are the solution of its recurrences given images ``m - H .. m - 1``; every
constraint has a delay of at least one cycle, so each op's time is fixed
by strictly earlier instants and that solution is unique.  Shifting the
solved images ``m - H .. m`` by ``P`` gives a solution of image
``m + 1``'s recurrences from images ``m + 1 - H .. m``, which therefore
*is* image ``m + 1``; induction covers the rest.

A run of ``M`` images counts every op of images ``0 .. M - 2`` (each has
run before image ``M - 1`` completes), the ops of image ``M - 1`` run
before the end, and the wait to the end.  An op's count depends only on
images ``m - H .. m``, and the last image's part on the last ``H + 1``
images, so past certification every counter grows by the same step per
image from ``M = K - 1`` on.  The ``N``-image counters are therefore the
``K``-image ones plus ``N - K`` steps, the step being their difference
from the ``(K - 1)``-image ones, read off the same solve.  The cycle
count and every cycle stamp move by ``P`` per image; high-water marks
stay.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import repeat
from typing import Any

import numpy as np

from ..nn.graph import AddNode, LayerGraph
from .kernel import STALL_BLOCKED, STALL_IDLE, STALL_STARVED, Kernel, KernelStats
from .leap import LeapReport
from .manager import Pipeline, build_pipeline
from .stream import Stream, StreamStats
from .trace import ImageCompletion, KernelSpan, RejectSpan, StreamEvent, Tracer

__all__ = [
    "REPLAY_IMAGES",
    "REPLAY_MAX_CYCLES",
    "Schedule",
    "Timeline",
    "replay_schedule",
    "replay_timeline",
    "solve_run",
    "solve_timeline",
    "unsolvable",
]

# Four images give three completion gaps — enough for
# `exact_completion_period` to certify a steady-state period.  Tests that
# compare the prediction with a real simulation stream the same count.  It
# is also the first prefix a closed-loop `solve_run` tries.
REPLAY_IMAGES = 4

# Cycle budget of one replay; a geometry that does not drain within it
# raises instead of being cached.
REPLAY_MAX_CYCLES = 500_000_000

# "Never": the time of an op outside the current window.  Op times stay
# below it (REPLAY_MAX_CYCLES is smaller), and it plus any op count stays
# inside int32, the dtype of every time array.
_NEVER = 1 << 30

# Every kernel's first window width (ops) and the first horizon (cycles),
# the floor of both and their cap (the cap bounds the index tables, hence
# peak memory), and the sweep counts that grow or shrink the horizon.
_DELTA_START = 4096
_DELTA_MIN = 1
_DELTA_CAP = 1 << 16
_FEW_SWEEPS = 6
_MANY_SWEEPS = 12


@dataclass(frozen=True, slots=True)
class Schedule:
    """The cycle schedule of one geometry, from the op-recurrence solve."""

    cycles: int
    completion_cycles: tuple[int, ...]
    skip_high_water: Mapping[str, int]  # residual adder -> skip stream max occupancy
    segments: tuple[tuple[str, float], ...]  # (label, mean cycles) per partition segment


def replay_schedule(
    graph: LayerGraph,
    partition: list[list[str]] | None = None,
) -> Schedule:
    """The schedule of ``graph`` under ``partition``, solved once and cached on the graph.

    One group covering every compute node is the same geometry as ``None``.
    The schedule is in fabric cycles, so the clock is not part of the
    geometry.  Raises ``RuntimeError`` (and caches nothing) if the
    schedule does not drain within :data:`REPLAY_MAX_CYCLES`.
    """
    key = _geometry(graph, partition)
    partition = None if key is None else partition
    cache: dict[Any, Schedule] = vars(graph).setdefault("_schedule_cache", {})
    if key in cache:
        return cache[key]

    from ..telemetry.latency import segment_summaries

    spec = graph.input_spec
    zeros = np.zeros((REPLAY_IMAGES, spec.height, spec.width, spec.channels), dtype=np.int64)
    adds = [n for n in graph.order if isinstance(graph.nodes[n], AddNode)]
    # Skip capacities are never read: the solver leaves skip edges unbounded.
    pipeline = build_pipeline(graph, zeros, partition=partition, skip_sizing={add: 1 for add in adds})
    solution = _solve(pipeline)
    if solution.aborted:
        raise _over_budget(graph)
    _stamp(pipeline, _observe(solution, pipeline, counters=False))
    schedule = cache[key] = Schedule(
        cycles=solution.cycles,
        completion_cycles=tuple(pipeline.sink.completion_cycles),
        skip_high_water={
            add: _max_occupancy(solution, solution.edges[id(stream)])
            for add, stream in pipeline.skip_streams.items()
        },
        segments=tuple(
            (label, float(summary.mean))
            for label, summary in segment_summaries(pipeline)
            if summary.mean is not None
        ),
    )
    # The handover slot (`_take_replay`); edges in `engine.streams` order, as their ids die here.
    edges = [solution.edges[id(stream)] for stream in pipeline.engine.streams]
    vars(graph)["_replay_handover"] = (key, schedule.skip_high_water, solution.nodes, edges, solution.sink)
    return schedule


def _geometry(graph: LayerGraph, partition: list[list[str]] | None) -> tuple[tuple[str, ...], ...] | None:
    """The cache key of a geometry, its groups: one group covering every compute node is no partition."""
    groups = None if partition is None else tuple(tuple(group) for group in partition)
    if groups is not None and len(groups) == 1 and set(groups[0]) >= set(graph.nodes) - {graph.input_name}:
        return None
    return groups


def unsolvable(pipeline: Pipeline) -> str | None:
    """Why :func:`solve_run` leaves ``pipeline`` to the engine, or ``None`` when it need not."""
    if not pipeline.source.n_images:
        return "no images to stream"
    names = [
        repr(kernel.name)
        for kernel in pipeline.engine.kernels
        if not kernel.stall_order or type(kernel).op_program is Kernel.op_program
    ]
    if names:
        more = f" (+{len(names) - 3} more)" if len(names) > 3 else ""
        return f"kernel(s) without an op program or stall order: {', '.join(names[:3])}{more}"
    return None


def solve_run(
    pipeline: Pipeline, max_cycles: int, trace: Tracer | None = None, telemetry: Any = None
) -> LeapReport:
    """Run ``pipeline`` by solving its schedule instead of ticking, and report how.

    The solve takes the source's open-loop arrivals and every stream's
    built capacity, skip FIFOs included.  A closed-loop run solves a
    prefix of :data:`REPLAY_IMAGES` images, doubled until its per-image
    period is certified, and extends it to every image (see the module
    docstring), the first one taken from the skip replay when it may be;
    an open-loop, traced or telemetered run, or one whose prefix reaches
    all its images, is solved whole.  From the op times it
    stamps what a ticked run leaves behind, equal to the engine's: the
    per-image admission, mark and completion instants, every kernel's
    :class:`~repro.dataflow.kernel.KernelStats` and stream's
    :class:`~repro.dataflow.stream.StreamStats`, and each FIFO's residual
    elements (values are placeholders: outputs come from the batched
    functional pass).  Kernels' datapath state is left as built.  A
    ``trace`` registered on the pipeline's engine
    (:meth:`~repro.dataflow.trace.Tracer.attach`) and a fresh
    ``telemetry`` receive the run's event log and samples, read off its
    :class:`Timeline`.  The returned
    :class:`~repro.dataflow.leap.LeapReport` carries the cycle count and
    how far the period extended the prefix, or why the run was solved
    whole.

    A run that would not finish within ``max_cycles``, deadlocked or not,
    is solved to that cycle: the state the engine leaves at its abort is
    stamped (the trace and the telemetry left unsealed) and the engine's
    :class:`~repro.dataflow.engine.CycleBudgetExceeded` raised.

    When the engine has to run it instead — :func:`unsolvable` names a
    reason, a kernel pushes before its first pop, or a run not deadlocked
    outlasts :data:`REPLAY_MAX_CYCLES` — it changes nothing and returns a
    demoted report without ``cycles`` naming why (with a ``trace`` or
    ``telemetry`` the last two raise ``ValueError``).
    """
    reason = unsolvable(pipeline)
    if reason is not None:
        return LeapReport(demoted=True, reason=reason)
    images = pipeline.source.n_images
    whole: str | None  # why the run is solved whole, not extended by its period
    if pipeline.source.arrival_cycles is not None:
        whole = f"open-loop arrival schedule on source {pipeline.source.name!r} (arrivals need not repeat)"
    elif trace is not None:
        whole = "a tracer is attached"
    elif telemetry is not None:
        whole = "telemetry is attached"
    else:
        whole = None
    limit = min(max_cycles, REPLAY_MAX_CYCLES)
    prefix = REPLAY_IMAGES
    while whole is None and prefix < images:
        taken = _take_replay(pipeline, limit) if prefix == REPLAY_IMAGES else None
        solution = taken or _solve(pipeline, bounded_skips=True, limit=limit, images=prefix)
        if solution.aborted or any(node.lead < 0 for node in solution.nodes):
            break  # so does the whole run: solve all of it, up to the abort
        period = _certified_period(solution, prefix)
        if period:
            windows = images - prefix
            observed = _extend(
                _observe(solution, pipeline),
                _observe(_first_images(solution, prefix - 1), pipeline),
                windows,
                period,
            )
            if observed.cycles < max_cycles:
                _stamp(pipeline, observed)
                return LeapReport(observed.cycles, windows, period)
            break
        prefix *= 2
    solved = _solve_whole(pipeline, max_cycles)
    if isinstance(solved, str):
        if trace is not None or telemetry is not None:
            raise _declined(solved)
        return LeapReport(demoted=True, reason=solved)
    if trace is None and telemetry is None:
        _stamp(pipeline, observed := _observe(solved, pipeline))
    else:
        observed, timeline = _observe_timeline(solved, pipeline)
        _stamp(pipeline, observed)
        replay_timeline(timeline, pipeline, trace, telemetry)
    if solved.aborted:
        raise pipeline.engine._no_convergence(max_cycles)
    if whole is None:
        return LeapReport(observed.cycles, reason="the solved prefix reached every image")
    return LeapReport(observed.cycles, demoted=True, reason=whole)


def solve_timeline(pipeline: Pipeline, max_cycles: int) -> Timeline:
    """The whole run's :class:`Timeline`, stamping nothing, or ``ValueError``.

    A ticked run's trace and samples are read off it.
    """
    if not pipeline.source.n_images:
        return Timeline(0, False, [], [])
    solved = _solve_whole(pipeline, max_cycles)
    if isinstance(solved, str):
        raise _declined(solved)
    return _observe_timeline(solved, pipeline)[1]


def replay_timeline(timeline: Timeline, pipeline: Pipeline, trace: Tracer | None, telemetry: Any) -> None:
    """Write ``timeline`` into ``trace`` and hand its samples to ``telemetry``, whichever is given."""
    if trace is not None:
        _write_trace(trace, timeline, pipeline)
    if telemetry is not None:
        telemetry.replay(timeline)


def _take_replay(pipeline: Pipeline, limit: int) -> _Solution | None:
    """The run's first :data:`REPLAY_IMAGES` images from the replay in the graph's slot, or ``None``.

    Empties the slot of this geometry.  The edges take the run's
    capacities, which the stall split and the certification read.
    """
    graph = pipeline.graph
    slot = vars(graph).get("_replay_handover")
    if slot is None or slot[0] != _geometry(graph, pipeline.partition):
        return None
    _, marks, nodes, edges, sink = vars(graph).pop("_replay_handover")
    short = any(stream.capacity < marks[add] for add, stream in pipeline.skip_streams.items())
    if short or any(node.lo < node.total or (node.total and node.t[-1] >= limit) for node in nodes):
        return None
    streams = pipeline.engine.streams
    for stream, edge in zip(streams, edges):
        edge.capacity = stream.capacity
    return _finish(nodes, {id(stream): edge for stream, edge in zip(streams, edges)}, sink, limit)


def _declined(reason: str) -> ValueError:
    return ValueError(f"traces and telemetry read the solved schedule, which declines this run: {reason}")


def _solve_whole(pipeline: Pipeline, max_cycles: int) -> _Solution | str:
    """Every image's op times to the end of the run or its abort, or why the engine must tick it."""
    reason = unsolvable(pipeline)
    if reason is not None:
        return reason
    limit = min(max_cycles, REPLAY_MAX_CYCLES)
    solution = _solve(pipeline, bounded_skips=True, limit=limit)
    names = [repr(k.name) for node, k in zip(solution.nodes, pipeline.engine.kernels) if node.lead < 0]
    if names:
        return f"kernel(s) pushing before their first pop: {', '.join(names)}"
    if solution.aborted and limit < max_cycles:
        # Past the solver's horizon only a deadlock has a known state: no
        # op runs after the last one solved, at any budget (an arrival past
        # the horizon would still start one).
        arrivals = pipeline.source.arrival_cycles or [0]
        if max(arrivals) >= limit or any(
            node.ran < node.total and node.t[node.ran] < _NEVER for node in solution.nodes
        ):
            return f"the run has not deadlocked by the solver's horizon of {REPLAY_MAX_CYCLES:,} cycles"
        solution = _finish(solution.nodes, solution.edges, solution.sink, max_cycles)
    return solution


def _over_budget(graph: LayerGraph) -> RuntimeError:
    return RuntimeError(
        f"timing replay of {graph.name!r} did not finish within {REPLAY_MAX_CYCLES:,} "
        "cycles — run `python -m repro check` on this geometry"
    )


def _span(index: np.ndarray | slice) -> np.ndarray | slice:
    """``index`` as a slice when it is a contiguous ascending run (cheaper gathers)."""
    if type(index) is slice:
        return index
    if index.size and int(index[-1]) - int(index[0]) == index.size - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


class _Node:
    """One kernel's ops: their times and the current slab window ``[lo, hi)``, ``width`` ops wide."""

    __slots__ = (
        "n", "total", "t", "lo", "hi", "width", "ins", "outs", "terms", "c", "stale", "finite", "changes",
        "evaluated", "neighbors", "arrivals", "ran", "lead", "dead",
    )

    def __init__(self, n: int, images: int) -> None:
        self.n = n
        self.total = n * images
        self.t = np.full(self.total, _NEVER, dtype=np.int32)
        self.lo = 0
        self.hi = 0
        self.width = _DELTA_START
        self.ins: list[_Edge] = []
        self.outs: list[_Edge] = []
        # Per slab: the constraints on partner window ops; the window's
        # constraint maxima ``c`` read so far; whether the window has yet to
        # be recomputed from them; how many of its ops are below "never"; the
        # first op each change of the window moved.  ``evaluated`` counts the
        # ops recomputed over the solve.
        self.terms: list[_Term] = []
        self.c = np.zeros(0, dtype=np.int32)
        self.stale = False
        self.finite = 0
        self.changes: list[int] = []
        self.evaluated = 0
        self.neighbors: list[int] = []
        # Open-loop source only: image m's first op runs no earlier than arrivals[m].
        self.arrivals: np.ndarray | None = None
        # After the solve: ops run before the sink finished, and how many
        # leading ops of an image need no input (-1: one pushes first).
        self.ran = 0
        self.lead = 0
        # Set when the kernel's next op lies on a dependency cycle: it and
        # every later op never run.
        self.dead = False


@dataclass(slots=True)
class _Edge:
    """One stream: which writer op pushes and which reader op pops each element of an image."""

    writer: int
    reader: int
    push: np.ndarray
    pop: np.ndarray
    latency: int
    capacity: int | None  # None on skip edges of the replay: no slot bound

    @property
    def per_image(self) -> int:
        return int(self.push.size)


@dataclass(slots=True)
class _Solution:
    """Every kernel's solved op times (engine order) and the run's cycle count."""

    nodes: list[_Node]
    edges: dict[int, _Edge]  # keyed by id(stream)
    cycles: int
    sink: int  # the sink's position in ``nodes``
    aborted: bool = False  # the sink did not finish before ``cycles``, the limit
    # The solve's work: slabs, window ops opened over all slabs, ops recomputed.
    slabs: int = 0
    opened: int = 0
    evaluations: int = 0


def _finish(nodes: list[_Node], edges: dict[int, _Edge], sink: int, limit: int) -> _Solution:
    """The solution whose run ends one cycle after the sink's last op, or aborts at ``limit``.

    Stamps each kernel's ops run before then: a prefix.  (An int32 needle:
    a Python int would make numpy copy ``t`` to int64.)
    """
    last = int(nodes[sink].t[-1])
    aborted = last >= _NEVER or last + 1 >= limit
    cycles = limit if aborted else last + 1
    needle = np.int32(min(cycles, _NEVER))
    for node in nodes:
        node.ran = int(np.searchsorted(node.t[: node.lo], needle))
    return _Solution(nodes, edges, cycles, sink, aborted)


def _first_images(solution: _Solution, images: int) -> _Solution:
    """The solution of a run of only the first ``images`` images: the same op times, cut."""
    nodes = []
    for node in solution.nodes:
        part = copy.copy(node)
        part.total = node.n * images
        part.lo = min(node.lo, part.total)
        part.t = node.t[: part.total]
        nodes.append(part)
    return _finish(nodes, solution.edges, solution.sink, solution.cycles + 1)


def _certified_period(solution: _Solution, images: int) -> int:
    """The per-image period of a fully solved prefix, or 0 when it is not certified.

    Every kernel's op times for image ``m + 1`` must equal those for image
    ``m`` plus one common period over the last ``H + 1`` image pairs, ``H``
    the furthest back any constraint reaches (module docstring).
    """
    nodes = solution.nodes
    reach = max(
        [1]
        + [-(-edge.capacity // edge.per_image) for edge in solution.edges.values() if edge.capacity]
    )
    if images < reach + 2 or any(node.lo < node.total for node in nodes):
        return 0
    period = 0
    for node in nodes:
        if not node.n:
            continue
        last = node.t.reshape(images, node.n)[images - reach - 2 :]
        shifts = np.diff(last, axis=0)
        if not period:
            period = int(shifts[0, 0])
        if period <= 0 or not (shifts == period).all():
            return 0
    return period


class _Ops:
    """The ops of one kernel moving each element of one port: one image's table, shifted by images."""

    __slots__ = ("table", "n", "per_image")

    def __init__(self, table: np.ndarray, n: int) -> None:
        self.table = np.asarray(table, dtype=np.intp)
        self.n = n
        self.per_image = self.table.size

    def before(self, op: int) -> int:
        """How many elements the ops before ``op`` moved."""
        image, local = divmod(op, self.n)
        return image * self.per_image + int(self.table.searchsorted(local))

    def op(self, element: int) -> int:
        """The op moving ``element``."""
        image, index = divmod(element, self.per_image)
        return image * self.n + int(self.table[index])

    def of(self, first: int, stop: int, base: int = 0) -> np.ndarray | slice:
        """The ops moving elements ``first .. stop - 1``, less ``base``.

        The table's rows, each shifted by its image; a slice when every op
        moves one element.
        """
        per_image, table, n = self.per_image, self.table, self.n
        if per_image == n:
            return slice(first - base, stop - base)
        image, start = divmod(first, per_image)
        end = stop - image * per_image
        if end <= per_image:
            return table[start:end] + (image * n - base)
        ops = np.empty(stop - first, dtype=np.intp)
        head = per_image - start
        np.add(table[start:], image * n - base, out=ops[:head])
        full, tail = divmod(end - per_image, per_image)
        if full:
            shifts = (image + 1 + np.arange(full))[:, None] * n - base
            np.add(table, shifts, out=ops[head : head + full * per_image].reshape(full, per_image))
        if tail:
            np.add(table[:tail], (image + 1 + full) * n - base, out=ops[head + full * per_image :])
        return ops


def _solve(
    pipeline: Pipeline,
    bounded_skips: bool = False,
    limit: int | None = None,
    images: int | None = None,
) -> _Solution:
    """Solve every op's cycle in the first ``images`` images (default: all of them).

    The run ends one cycle after the sink's last op, or aborts at ``limit``
    (default :data:`REPLAY_MAX_CYCLES`) when the sink has not finished by
    then, deadlocked or not; everything before the end is exact.  Ops after
    the sink's last one are solved too, unless they reach ``limit``.  Skip
    edges are unbounded unless ``bounded_skips`` (the replay sizes them
    from this very solve).  Reads the pipeline, writes nothing to it.
    """
    if images is None:
        images = pipeline.source.n_images
    if limit is None:
        limit = REPLAY_MAX_CYCLES
    engine = pipeline.engine
    kernels = engine.kernels
    position = {id(kernel): i for i, kernel in enumerate(kernels)}
    programs = [kernel.op_program() for kernel in kernels]
    nodes = [_Node(program.ops, images) for program in programs]
    skip_streams: set[int] = set()
    if not bounded_skips:
        skip_streams = {id(stream) for stream in pipeline.skip_streams.values()}
    edges: dict[int, _Edge] = {}
    for stream in engine.streams:
        assert stream.writer is not None and stream.reader is not None
        writer, reader = position[id(stream.writer)], position[id(stream.reader)]
        # The pop + 1 slot rule holds only when the writer ticks first.
        assert writer < reader, f"stream {stream.name!r}: reader ticks before its writer"
        push = programs[writer].pushes[stream.writer.outputs.index(stream)]
        pop = programs[reader].pops[stream.reader.inputs.index(stream)]
        assert push.size == pop.size, f"stream {stream.name!r}: op programs disagree"
        capacity = None if id(stream) in skip_streams else stream.capacity
        edge = _Edge(writer, reader, push, pop, stream.latency, capacity)
        edges[id(stream)] = edge
        nodes[writer].outs.append(edge)
        nodes[reader].ins.append(edge)
    by_writer = sorted(edges.values(), key=lambda edge: edge.writer)
    # Each edge's (push, pop) op tables.
    tables = {
        id(edge): (_Ops(edge.push, nodes[edge.writer].n), _Ops(edge.pop, nodes[edge.reader].n))
        for edge in edges.values()
    }
    for node, program in zip(nodes, programs):
        bounded_writers = {e.writer for e in node.ins if e.capacity is not None}
        node.neighbors = sorted(bounded_writers | {e.reader for e in node.outs})
        first_pop = min((int(table[0]) for table in program.pops), default=0)
        first_push = min((int(table[0]) for table in program.pushes), default=first_pop)
        node.lead = first_pop if first_push >= first_pop else -1
    del programs
    arrivals = pipeline.source.arrival_cycles
    if arrivals is not None:
        nodes[position[id(pipeline.source)]].arrivals = np.minimum(
            np.asarray(arrivals, dtype=np.int64), _NEVER
        ).astype(np.int32)

    sink_index = position[id(pipeline.sink)]
    cut = np.int32(min(limit, _NEVER))
    sweep_cap = 256 + 4 * len(nodes)
    slabs = opened = 0
    horizon = _DELTA_START
    while any(node.lo < node.total and not node.dead for node in nodes):
        for node in nodes:
            _open_window(node)
            opened += node.hi - node.lo
        for node in nodes:
            _build_terms(node, nodes, tables)
        slabs += 1
        sweeps = _relax_all(nodes, sweep_cap)
        if sweeps is None and any(node.hi - node.lo > _DELTA_MIN for node in nodes):
            # No fixed point within the cap: a slab too wide to settle, or
            # a dependency cycle (deadlock).  Narrow every window and retry.
            for node in nodes:
                node.width = max(_DELTA_MIN, min(node.width, node.hi - node.lo) // 2)
            horizon = max(_DELTA_MIN, horizon // 2)
            continue
        while sweeps is None:
            _retire_cycles(nodes)
            sweeps = _relax_all(nodes, sweep_cap)
        # Every finite time of the settled slab is exact (module docstring).
        committed = [int(node.t[node.lo : node.hi].searchsorted(cut)) for node in nodes]
        if not any(committed):
            break
        for node, ops in zip(nodes, committed):
            node.lo += ops
        if sweeps <= _FEW_SWEEPS:
            horizon = min(2 * horizon, _DELTA_CAP)
        elif sweeps > _MANY_SWEEPS:
            horizon = max(_DELTA_MIN, horizon // 2)
        _size_windows(nodes, by_writer, tables, horizon)
    for node in nodes:
        node.terms, node.changes, node.c = [], [], np.zeros(0, dtype=np.int32)
    solution = _finish(nodes, edges, sink_index, limit)
    solution.slabs, solution.opened = slabs, opened
    solution.evaluations = sum(node.evaluated for node in nodes)
    return solution


def _retire_cycles(nodes: list[_Node]) -> None:
    """Mark dead every kernel whose one-op window still changes after the sweep cap.

    Every constraint delay is at least one cycle, so ops that keep rising
    at a one-op slab lie on a dependency cycle, or wait for one: they never
    run, nor does any later op of their kernel.  Ops that do not wait for
    a cycle settle within one sweep per kernel, far below the cap.  A full
    sweep that changes nothing is a fixed point, so each sweep moves an op
    of every rising cycle.
    """
    for node in [node for node in nodes if _relax(node)]:
        node.dead = True
        node.t[node.lo : node.hi] = _NEVER
        node.hi = node.lo
        node.terms, node.finite = [], 0
        node.changes.append(node.lo)


def _times(node: _Node, table: np.ndarray, per_image: int, elements: np.ndarray) -> np.ndarray:
    """The cycles at which ``node`` moves ``elements`` of one port; ``_NEVER`` past its last image."""
    image, index = np.divmod(elements, per_image)
    ops = image * node.n + table[index]
    times = np.full(ops.shape, _NEVER, dtype=np.int64)
    inside = ops < node.total
    times[inside] = node.t[ops[inside]]
    return times


def _element_of(table: np.ndarray, n: int, per_image: int, ops: np.ndarray) -> np.ndarray:
    """The element each of ``ops`` moves on one port, ``-1`` where it moves none."""
    image, local = np.divmod(ops, n)
    index = np.minimum(np.searchsorted(table, local), table.size - 1)
    return np.where(table[index] == local, image * per_image + index, -1)


@dataclass(slots=True)
class _Observed:
    """What a solved run leaves on its pipeline, in engine order."""

    cycles: int
    admissions: list[int]
    completions: list[int]
    marks: list[list[int]]  # per stream; empty where it keeps none
    kernels: list[KernelStats]  # empty: instants only
    streams: list[StreamStats]
    residual: list[list[int]]  # per stream: ready cycles of the elements left queued


def _moved(solution: _Solution, stream: Stream, popped: bool, offset: int = 0, step: int = 1) -> np.ndarray:
    """The cycles of the pushes (``popped``: pops) of the elements ``offset, offset + step, …``."""
    edge = solution.edges[id(stream)]
    node = solution.nodes[edge.reader if popped else edge.writer]
    table = edge.pop if popped else edge.push
    count = _Ops(table, node.n).before(node.ran)
    return _times(node, table, edge.per_image, np.arange(offset, count, step))


def _observe(solution: _Solution, pipeline: Pipeline, counters: bool = True) -> _Observed:
    """The per-image instants the engine stamps live and, with ``counters``, every counter."""
    source, sink, graph = pipeline.source, pipeline.sink, pipeline.graph
    last = graph.output_spec.elements
    streams = pipeline.engine.streams
    observed = _Observed(
        cycles=solution.cycles,
        admissions=_moved(solution, source.outputs[0], False, 0, graph.input_spec.elements).tolist(),
        completions=_moved(solution, sink.inputs[0], True, last - 1, last).tolist(),
        marks=[_moved(solution, s, False, 0, s.mark_every).tolist() if s.mark_every else [] for s in streams],
        kernels=[],
        streams=[],
        residual=[],
    )
    if counters:
        kernels = pipeline.engine.kernels
        observed.kernels = [
            _kernel_stats(solution, node, kernel) for node, kernel in zip(solution.nodes, kernels)
        ]
        for stream in streams:
            stats, residual = _stream_state(solution, stream, observed.kernels)
            observed.streams.append(stats)
            observed.residual.append(residual)
    return observed


def _extend(last: _Observed, before: _Observed, windows: int, period: int) -> _Observed:
    """``last`` continued for ``windows`` more images, each adding what ``last`` added to ``before``.

    Counters grow by ``windows`` times their step, cycle stamps move by
    ``period`` per image, and high-water marks stay.
    """

    def linear(now: Any, was: Any, keep: tuple[str, ...] = ()) -> Any:
        values: dict[str, Any] = {}
        for field in dataclasses.fields(now):
            b, a = getattr(now, field.name), getattr(was, field.name)
            values[field.name] = b if field.name in keep or a is None else b + windows * (b - a)
        return type(now)(**values)

    def stamps(now: list[int], was: list[int]) -> list[int]:
        step = now[len(was) :]
        return now + [cycle + j * period for j in range(1, windows + 1) for cycle in step]

    shift = windows * period
    return _Observed(
        cycles=last.cycles + shift,
        admissions=stamps(last.admissions, before.admissions),
        completions=stamps(last.completions, before.completions),
        marks=[stamps(now, was) for now, was in zip(last.marks, before.marks)],
        kernels=[linear(now, was) for now, was in zip(last.kernels, before.kernels)],
        streams=[
            linear(now, was, keep=("max_occupancy",))
            for now, was in zip(last.streams, before.streams)
        ],
        residual=[[ready + shift for ready in queued] for queued in last.residual],
    )


def _stamp(pipeline: Pipeline, observed: _Observed) -> None:
    """Leave ``observed`` on the pipeline, where a ticked run leaves it."""
    pipeline.source.admission_cycles = observed.admissions
    pipeline.sink.completion_cycles = observed.completions
    streams = pipeline.engine.streams
    for stream, marks in zip(streams, observed.marks):
        if stream.mark_every:
            stream.mark_cycles = marks
    for kernel, kernel_stats in zip(pipeline.engine.kernels, observed.kernels):
        kernel.stats = kernel_stats
    for stream, stream_stats, queued in zip(streams, observed.streams, observed.residual):
        stream.stats = stream_stats
        stream._fifo = deque((0, ready) for ready in queued)


def _moved_counts(solution: _Solution, edge: _Edge) -> tuple[int, int]:
    """Elements of ``edge`` pushed and popped before the run ended."""
    writer, reader = solution.nodes[edge.writer], solution.nodes[edge.reader]
    return (
        _Ops(edge.push, writer.n).before(writer.ran),
        _Ops(edge.pop, reader.n).before(reader.ran),
    )


# Ops (elements) per chunk of the stall derivation (high-water mark): bounds their temporaries.
_CHUNK = 1 << 16


def _max_occupancy(solution: _Solution, edge: _Edge) -> int:
    """The stream's high-water mark: the most pushes less earlier pops, whole images at a time.

    A pop at ``t`` lands after a push at ``t`` (the reader ticks later), so
    each push counts the pops strictly before it.  Pops before a chunk's
    last push are of its elements or earlier ones, so the pop times
    gathered per chunk stay within the chunk plus the occupancy.  A push
    into a bounded stream waits for the pop ``capacity`` elements back, so
    the scan stops once the mark reaches the capacity.
    """
    writer, reader = solution.nodes[edge.writer], solution.nodes[edge.reader]
    pushes, pops = _Ops(edge.push, writer.n), _Ops(edge.pop, reader.n)
    chunk = edge.per_image * max(1, _CHUNK // edge.per_image)
    pushed, popped = _moved_counts(solution, edge)
    best = done = 0
    for first in range(0, pushed, chunk):
        stop = min(first + chunk, pushed)
        push = writer.t[pushes.of(first, stop)]
        upto = min(stop, popped)
        if upto > done:
            pop = reader.t[pops.of(done, upto)]
            before = np.searchsorted(pop, push)
        else:
            before = np.zeros(push.size, dtype=np.int64)
        occupancy = np.arange(first + 1 - done, stop + 1 - done) - before
        best = max(best, int(occupancy.max()))
        if best == edge.capacity:
            break
        done += int(before[-1])
    return best


def _readiness(solution: _Solution, node: _Node, kind: int, ops: np.ndarray) -> np.ndarray:
    """The first cycle at which each of ``ops`` passes ``kind``'s check; -1 where it has none.

    ``STALL_STARVED`` waits for every element the op pops to become
    visible, ``STALL_BLOCKED`` for the pop freeing every slot it pushes
    into, ``STALL_IDLE`` for its image's arrival (an image's first push).
    Ops past the kernel's last image never see input.
    """
    ready = np.full(ops.shape, -1, dtype=np.int64)
    nodes = solution.nodes
    if kind == STALL_STARVED:
        for edge in node.ins:
            element = _element_of(edge.pop, node.n, edge.per_image, ops)
            hit = element >= 0
            visible = _times(nodes[edge.writer], edge.push, edge.per_image, element[hit])
            ready[hit] = np.maximum(ready[hit], visible + 1 + edge.latency)
    elif kind == STALL_BLOCKED:
        for edge in node.outs:
            if edge.capacity is None:
                continue
            slot = _element_of(edge.push, node.n, edge.per_image, ops) - edge.capacity
            hit = slot >= 0
            freed = _times(nodes[edge.reader], edge.pop, edge.per_image, slot[hit])
            ready[hit] = np.maximum(ready[hit], freed + 1)
    elif node.arrivals is not None:
        edge = node.outs[0]
        element = _element_of(edge.push, node.n, edge.per_image, ops)
        image, index = np.divmod(element, edge.per_image)
        hit = (element >= 0) & (index == 0)
        ready[hit] = node.arrivals[image[hit]]
    return ready


def _tail(solution: _Solution, node: _Node, kernel: Kernel) -> tuple[int, int]:
    """The input-free ops ``kernel`` runs after its last image, and its last active cycle."""
    cycles, t, ran = solution.cycles, node.t, node.ran
    extra = 0
    if ran == node.total and not kernel.idles_when_done:
        extra = min(node.lead, cycles - 1 - int(t[-1]))
    return extra, int(t[ran - 1]) + extra if ran else -1


def _waits(
    solution: _Solution, node: _Node, kernel: Kernel
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]]:
    """Every wait of ``kernel`` in the run, in order, a chunk at a time.

    Yields ``(start, first, length, kinds)``: each wait of ``length``
    cycles from ``start`` spends its ``first`` cycles in ``kinds[0]`` and
    the rest in ``kinds[1]``.  A waiting cycle takes the class of the first
    check in :attr:`~repro.dataflow.kernel.Kernel.stall_order` still
    failing then (a check that passes stays passed until the op runs);
    after its last op a host endpoint idles.
    """
    cycles, t, ran = solution.cycles, node.t, node.ran
    _, last = _tail(solution, node, kernel)
    order = kernel.stall_order
    kinds = (order[0], order[-1])

    def split(ops: np.ndarray, start: np.ndarray, length: np.ndarray) -> Any:
        ready = _readiness(solution, node, order[0], ops)
        first = np.where(ready >= _NEVER, length, np.clip(ready - start, 0, length))
        return start, first, length, kinds

    for lo in range(0, ran, _CHUNK):
        hi = min(ran, lo + _CHUNK)
        times = t[lo:hi].astype(np.int64)
        start = np.empty_like(times)
        start[0] = int(t[lo - 1]) + 1 if lo else 0
        start[1:] = times[:-1] + 1
        length = times - start
        waits = np.flatnonzero(length)
        if waits.size:
            yield split(waits + lo, start[waits], length[waits])
    # The wait for the op after the last one run, to the end of the run.
    if last + 1 < cycles:
        start, length = np.array([last + 1]), np.array([cycles - last - 1])
        drained = ran == node.total
        if drained and kernel.idles_when_done:
            yield start, length, length, (STALL_IDLE, STALL_IDLE)
        else:
            following = node.total + node.lead if drained else ran
            yield split(np.array([following]), start, length)


def _kernel_stats(solution: _Solution, node: _Node, kernel: Kernel) -> KernelStats:
    """The counters a ticked run leaves on ``kernel``, from its op times.

    Active cycles are the ops run before the end, plus, for a kernel that
    wraps into the next image, its leading input-free ops after the last
    image.  Every other cycle is a wait (:func:`_waits`).
    """
    extra, last = _tail(solution, node, kernel)
    ran = node.ran
    stats = KernelStats(active_cycles=ran + extra)
    if ran:
        stats.first_active_cycle = int(node.t[0])
        stats.last_active_cycle = last
    counts = dict.fromkeys((STALL_STARVED, STALL_BLOCKED, STALL_IDLE), 0)
    for _, first, length, kinds in _waits(solution, node, kernel):
        waited = int(first.sum())
        counts[kinds[0]] += waited
        counts[kinds[1]] += int(length.sum()) - waited
    stats.input_starved_cycles = counts[STALL_STARVED]
    stats.output_blocked_cycles = counts[STALL_BLOCKED]
    stats.idle_cycles = counts[STALL_IDLE]
    for edge in node.ins:
        stats.elements_in += _moved_counts(solution, edge)[1]
    for edge in node.outs:
        stats.elements_out += _moved_counts(solution, edge)[0]
    return stats


def _stream_state(
    solution: _Solution, stream: Stream, kernel_stats: list[KernelStats]
) -> tuple[StreamStats, list[int]]:
    """A stream's counters after the solved run, and the ready cycles of its residual FIFO."""
    edge = solution.edges[id(stream)]
    pushed, popped = _moved_counts(solution, edge)
    writer = stream.writer
    assert writer is not None
    rejections = 0
    if writer.blocked_rejects_output and writer.outputs[0] is stream:
        rejections = kernel_stats[edge.writer].output_blocked_cycles
    stats = StreamStats(
        pushes=pushed,
        pops=popped,
        full_rejections=rejections,
        max_occupancy=_max_occupancy(solution, edge),
    )
    residual: list[int] = (_moved(solution, stream, False, popped) + 1 + edge.latency).tolist()
    return stats, residual


# Span kind per cycle class (0: an op ran), as a trace names it.
_SPAN_KINDS = {0: "compute", STALL_STARVED: "starved", STALL_BLOCKED: "blocked", STALL_IDLE: "idle"}


def _kernel_spans(
    solution: _Solution, node: _Node, kernel: Kernel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``kernel``'s trace spans as ``(kinds, starts, ends)``: maximal runs of one cycle class."""
    starts: list[np.ndarray] = [node.t[: node.ran].astype(np.int64)]
    kinds: list[np.ndarray] = [np.zeros(node.ran, dtype=np.int64)]
    for start, first, length, (head, rest) in _waits(solution, node, kernel):
        heads, rests = first > 0, first < length
        starts += [start[heads], (start + first)[rests]]
        kinds += [np.full(int(heads.sum()), head), np.full(int(rests.sum()), rest)]
    start = np.concatenate(starts)
    kind = np.concatenate(kinds)
    order = np.argsort(start, kind="stable")
    start, kind = start[order], kind[order]
    keep = np.ones(kind.size, dtype=bool)
    keep[1:] = kind[1:] != kind[:-1]
    start, kind = start[keep], kind[keep]
    return kind, start, np.append(start[1:] - 1, solution.cycles - 1)


@dataclass(slots=True)
class Timeline:
    """A solved run over time: what the engine's counters read at any cycle of it.

    ``spans`` are every kernel's maximal runs of one cycle class, ``(kinds, starts, ends,
    bounds)``, covering cycles ``0 .. cycles - 1`` (class 0: an op ran, else a ``STALL_*`` code),
    and ``pushes`` and ``pops`` every stream's element cycles, ``(cycles, bounds)``.  Kernel
    (stream) ``i`` sits at ``bounds[i] .. bounds[i + 1]`` of the joined arrays, its cycles moved
    up by ``i * (cycles + 1)``, so each ascends and one ``searchsorted`` reads all at once.
    ``aborted`` marks a run cut at its cycle budget.
    """

    cycles: int
    aborted: bool
    admissions: list[int]
    completions: list[int]
    spans: tuple[np.ndarray, ...] = ()
    pushes: tuple[np.ndarray, ...] = ()
    pops: tuple[np.ndarray, ...] = ()
    _cache: tuple[np.ndarray, ...] = dataclasses.field(default=(), init=False, repr=False)

    def _tables(self) -> tuple[np.ndarray, ...]:
        """Per span the cycles of each class and the last active cycle before it, each kernel's
        first active cycle, and each stream's high-water mark after each push (from 0)."""
        if not self._cache:
            kinds, starts, ends, bounds = self.spans
            before = np.zeros((4, kinds.size + 1), dtype=np.int64)
            np.cumsum((kinds == np.arange(4)[:, None]) * (ends - starts + 1), axis=1, out=before[:, 1:])
            last_op = np.maximum.accumulate(np.append(-1, np.where(kinds == 0, ends, -1)))
            first = np.minimum.reduceat(np.where(kinds == 0, starts, np.iinfo(np.int64).max), bounds[:-1])
            (pushes, push_bounds), (pops, pop_bounds) = self.pushes, self.pops
            peaks = np.zeros(pushes.size + push_bounds.size - 1, dtype=np.int64)
            for e, (lo, hi) in enumerate(zip(push_bounds[:-1], push_bounds[1:])):
                push, pop = pushes[lo:hi], pops[pop_bounds[e] : pop_bounds[e + 1]]
                occupancy = np.arange(1, push.size + 1) - np.searchsorted(pop, push)
                np.maximum.accumulate(occupancy, out=peaks[lo + e + 1 : hi + e + 1])
            self._cache = (before, last_op, first, peaks)
        return self._cache

    def at(self, pipeline: Pipeline, instants: list[int]) -> tuple[list[Any], list[Any], list[Any]]:
        """The engine's state after ticking cycles ``0 .. c - 1``, for each ``c`` of ``instants``.

        Per instant: every kernel's ``[busy, starved, blocked, idle, in,
        out, first active, last active]`` (``-1``: not active yet), every
        stream's ``[occupancy, high-water, pushes, pops, rejections, in
        flight]`` and the images ``[completed, admitted, arrived]``.
        """
        kernels, streams, source = pipeline.engine.kernels, pipeline.engine.streams, pipeline.source
        if not self.cycles:  # a run of no images: nothing ran
            return [[[0] * 6 + [-1, -1]] * len(kernels)], [[[0] * 6] * len(streams)], [[0, 0, 0]]
        kinds, starts, _, span_bounds = self.spans
        (pushes, push_bounds), (pops, pop_bounds) = self.pushes, self.pops
        before, last_op, first, peaks = self._tables()
        span_base, push_base, pop_base = span_bounds[:-1, None], push_bounds[:-1, None], pop_bounds[:-1, None]
        at = np.asarray(instants, dtype=np.int64)
        shift = (self.cycles + 1) * np.arange(max(len(kernels), len(streams)))[:, None]
        k_shift, s_shift = shift[: len(kernels)], shift[: len(streams)]
        held = np.maximum(np.searchsorted(starts, at + k_shift) - 1, span_base)  # holds c - 1
        now = kinds[held]
        counts = before[:, held] - before[:, span_base]
        counts += (now == np.arange(4)[:, None, None]) * (at + k_shift - starts[held])
        first = first[:, None] - k_shift
        last = np.where(now == 0, at - 1, np.maximum(last_op[held] - k_shift, -1))

        pushed = np.searchsorted(pushes, at + s_shift) - push_base
        popped = np.searchsorted(pops, at + s_shift) - pop_base
        latency = np.array([[stream.latency] for stream in streams])
        landed = np.searchsorted(pushes, np.maximum(at - latency, 0) + s_shift) - push_base
        position = {id(kernel): k for k, kernel in enumerate(kernels)}
        readers = [position[id(stream.reader)] for stream in streams]
        writers = [position[id(stream.writer)] for stream in streams]
        elements = np.zeros((2, len(kernels), at.size), dtype=np.int64)
        np.add.at(elements[0], readers, popped)
        np.add.at(elements[1], writers, pushed)
        k_state = np.stack([*counts, *elements, np.where(first < at, first, -1), last], -1)
        peak = peaks[push_base + np.arange(len(streams))[:, None] + pushed]
        # A writer whose blocked tick re-offers its element rejects once per blocked cycle.
        rejects = [
            kernels[w].blocked_rejects_output and kernels[w].outputs[0] is stream
            for w, stream in zip(writers, streams)
        ]
        rejections = np.where(np.array(rejects)[:, None], counts[2][writers], 0)
        s_state = np.stack([pushed - popped, peak, pushed, popped, rejections, pushed - landed], -1)
        arrived: np.ndarray = np.full(at.size, source.n_images)
        if source.arrival_cycles is not None:
            arrived = np.searchsorted(source.arrival_cycles, at, side="right")
        completed, admitted = np.searchsorted(self.completions, at), np.searchsorted(self.admissions, at)
        images = np.stack([completed, admitted, arrived], -1)
        return k_state.transpose(1, 0, 2).tolist(), s_state.transpose(1, 0, 2).tolist(), images.tolist()


def _joined(parts: list[np.ndarray], shift: int) -> tuple[np.ndarray, np.ndarray]:
    """``parts`` in one array, the ``i``-th moved up by ``i * shift``, and the bounds of each in it."""
    bounds = np.cumsum([0] + [part.size for part in parts])
    joined = np.concatenate(parts).astype(np.int64, copy=False)
    joined += np.repeat(np.arange(len(parts), dtype=np.int64) * shift, np.diff(bounds))
    return joined, bounds


def _observe_timeline(solution: _Solution, pipeline: Pipeline) -> tuple[_Observed, Timeline]:
    """The run's :class:`Timeline`, and what :func:`_observe` reads with its counters read off it.

    They equal :func:`_observe`'s (tested) without a second stall derivation, which would cost a
    telemetered tiny chain 2 ms of 11 and break the ``tiny_chain_telemetry`` benchmark floor.
    """
    observed = _observe(solution, pipeline, counters=False)
    shift, kernels, streams = solution.cycles + 1, pipeline.engine.kernels, pipeline.engine.streams
    kinds, starts, ends = zip(*(_kernel_spans(solution, node, k) for node, k in zip(solution.nodes, kernels)))
    joined_starts, bounds = _joined(list(starts), shift)
    spans = (np.concatenate(kinds), joined_starts, _joined(list(ends), shift)[0], bounds)
    moved = [_joined([_moved(solution, s, popped) for s in streams], shift) for popped in (False, True)]
    timeline = Timeline(
        solution.cycles, solution.aborted, observed.admissions, observed.completions, spans, *moved
    )
    (kernel_ends,), (stream_ends,), _ = timeline.at(pipeline, [solution.cycles])
    for busy, starved, blocked, idle, ins, outs, first, last in kernel_ends:
        active = (first, last) if first >= 0 else (None, None)
        observed.kernels.append(KernelStats(busy, starved, blocked, idle, *active, ins, outs))
    for (_, peak, pushed, popped, rejects, _), stream in zip(stream_ends, streams):
        observed.streams.append(StreamStats(pushed, popped, rejects, peak))
        observed.residual.append((_moved(solution, stream, False, popped) + 1 + stream.latency).tolist())
    return observed, timeline


def _write_trace(tracer: Tracer, timeline: Timeline, pipeline: Pipeline) -> None:
    """Write the whole run's event log into ``tracer``, registered on its engine, from its timeline.

    Equal to what the reference loop does, cycle by cycle: every cycle of a
    kernel is an op or a wait, classified as in its counters, and adjacent
    cycles of one class merge into a span; a writer whose blocked tick
    re-offers its element rejects on every blocked cycle; each push and pop
    carries the FIFO occupancy after it (a push lands before a same-cycle
    pop, as the writer ticks first).  An aborted run leaves the trace
    unsealed.
    """
    if not timeline.cycles:  # a run of no images: nothing ran
        tracer.finish(0)
        return
    engine = pipeline.engine
    span_kinds, starts, ends, bounds = timeline.spans
    shift = timeline.cycles + 1
    for i, kernel in enumerate(engine.kernels):
        lo, hi = bounds[i], bounds[i + 1]
        kind, start, end = span_kinds[lo:hi], starts[lo:hi] - i * shift, ends[lo:hi] - i * shift
        names = [_SPAN_KINDS[k] for k in kind.tolist()]
        tracer.kernel_spans[kernel.name] = list(
            map(KernelSpan, repeat(kernel.name), names, start.tolist(), end.tolist())
        )
        if kernel.blocked_rejects_output:
            name = kernel.outputs[0].name
            blocked = kind == STALL_BLOCKED
            tracer.reject_spans[name] = list(
                map(RejectSpan, repeat(name), start[blocked].tolist(), end[blocked].tolist())
            )
    for e, stream in enumerate(engine.streams):
        push, pop = (times[b[e] : b[e + 1]] - e * shift for times, b in (timeline.pushes, timeline.pops))
        pushed, popped = push.size, pop.size
        occupancy = np.concatenate(
            [
                np.arange(1, pushed + 1) - np.searchsorted(pop, push, side="left"),
                np.searchsorted(push, pop, side="right") - np.arange(1, popped + 1),
            ]
        )
        ready = np.concatenate([push + 1 + stream.latency, np.full(popped, -1)])
        order = np.argsort(np.concatenate([2 * push, 2 * pop + 1]), kind="stable")
        kinds = ["pop" if is_pop else "push" for is_pop in (order >= pushed).tolist()]
        cycle = np.concatenate([push, pop])[order]
        tracer.stream_events[stream.name] = list(
            map(
                StreamEvent,
                repeat(stream.name),
                kinds,
                cycle.tolist(),
                occupancy[order].tolist(),
                ready[order].tolist(),
            )
        )
    admissions = timeline.admissions
    tracer.completions = [
        ImageCompletion(index, cycle, admissions[index] if index < len(admissions) else -1)
        for index, cycle in enumerate(timeline.completions)
    ]
    if not timeline.aborted:
        tracer.finish(timeline.cycles)


def _size_windows(
    nodes: list[_Node], edges: list[_Edge], tables: dict[int, tuple[_Ops, _Ops]], horizon: int
) -> None:
    """Size every window to the ops its kernel can run before a common cycle horizon.

    The horizon lies ``horizon`` cycles past the latest committed op.  A
    kernel runs at most one op per cycle; an op that pops an element its
    writer's window does not push, or pushes into a slot its reader's window
    does not free, waits on "never" (as does every later op), so a window
    ends before it.  Every window keeps at least one op.
    """
    reach = max([int(node.t[node.lo - 1]) for node in nodes if node.lo], default=-1) + horizon
    ends = []
    for node in nodes:
        last = int(node.t[node.lo - 1]) if node.lo else -1
        ends.append(node.lo if node.dead else node.lo + min(_DELTA_CAP, max(_DELTA_MIN, reach - last - 1)))

    def cut(k: int, op: int) -> None:
        ends[k] = min(ends[k], max(op, nodes[k].lo + _DELTA_MIN))

    for edge in edges:  # writers before readers
        pushes, pops = tables[id(edge)]
        available = pushes.before(min(ends[edge.writer], nodes[edge.writer].total))
        if available < pops.before(nodes[edge.reader].total):
            cut(edge.reader, pops.op(available))
    for edge in sorted(edges, key=lambda edge: -edge.reader):
        if edge.capacity is not None:
            pushes, pops = tables[id(edge)]
            blocked = pops.before(min(ends[edge.reader], nodes[edge.reader].total)) + edge.capacity
            if blocked < pushes.before(nodes[edge.writer].total):
                cut(edge.writer, pushes.op(blocked))
    for node, end in zip(nodes, ends):
        node.width = max(_DELTA_MIN, end - node.lo)


def _open_window(node: _Node) -> None:
    """Widen or narrow ``node``'s window to its width and seed it from below."""
    lo, old_hi = node.lo, node.hi
    hi = lo if node.dead else min(lo + node.width, node.total)
    t = node.t
    if hi < old_hi:
        t[hi:old_hi] = _NEVER
    if hi > lo:
        # Uncommitted ops run no earlier than their predecessors: a lower
        # bound of the true times.
        start = int(t[lo - 1]) + 1 if lo else 0
        t[lo:hi] = np.arange(start, start + hi - lo, dtype=np.int32)
    node.hi = hi


def _build_terms(node: _Node, nodes: list[_Node], tables: dict[int, tuple[_Ops, _Ops]]) -> None:
    """The constraints on ``node``'s window ops for this slab, and its maxima ``c`` so far.

    A constraint on a partner's committed op or on one past its window
    never changes within the slab, so it is read into ``c`` here, once; a
    term keeps the rest.
    """
    lo, hi = node.lo, node.hi
    node.terms, node.changes = [], []
    node.c = c = np.zeros(max(0, hi - lo), dtype=np.int32)
    node.finite = max(0, hi - lo)
    node.stale = hi > lo
    if hi <= lo:
        return
    c[0] = int(node.t[lo - 1]) + 1 if lo else 0
    for edge in node.ins:
        # Pops wait for the pushed element to become visible.
        pushes, pops = tables[id(edge)]
        first, stop = pops.before(lo), pops.before(hi)
        if stop > first:
            own, ops = pops.of(first, stop, lo), pushes.of(first, stop)
            _add_term(node, nodes[edge.writer], own, ops, stop - first, 1 + edge.latency)
    for edge in node.outs:
        if edge.capacity is None:
            continue
        # Pushes wait for the slot freed by the pop `capacity` elements back.
        pushes, pops = tables[id(edge)]
        first, stop = max(pushes.before(lo), edge.capacity), pushes.before(hi)
        if stop > first:
            own = pushes.of(first, stop, lo)
            freed = pops.of(first - edge.capacity, stop - edge.capacity)
            _add_term(node, nodes[edge.reader], own, freed, stop - first, 1)
    if node.arrivals is not None:
        # An open-loop image's first push waits for its arrival.
        n, first_op = node.n, int(node.outs[0].push[0])
        begin = max(0, -((first_op - lo) // n))
        end = (hi - 1 - first_op) // n + 1
        if end > begin:
            own = np.arange(begin, end) * n + first_op - lo
            c[own] = np.maximum(c[own], node.arrivals[begin:end])


@dataclass(slots=True)
class _Term:
    """A constraint of one slab: window ops ``own`` wait ``delay`` cycles past partner ``ops``.

    ``own`` (window-relative) and ``ops`` are ascending slices or arrays of
    ``count`` ops each.  ``seen`` is how many changes of the partner's window
    the term has read (-1: none yet).
    """

    own: Any
    partner: _Node
    ops: Any
    delay: int
    count: int
    first_op: int  # ops[0]
    own_stop: int  # own[-1] + 1
    seen: int = -1


def _add_term(node: _Node, partner: _Node, own: Any, ops: Any, count: int, delay: int) -> None:
    """Read ``partner``'s fixed ones of its ``count`` ``ops`` into ``node.c``; keep a term on the rest.

    ``own`` and ``ops`` are ascending slices or arrays.
    """
    c = node.c
    fixed, window = _below(ops, partner.lo), _below(ops, partner.hi)
    if fixed:
        head = _part(own, 0, fixed)
        c[head] = np.maximum(c[head], partner.t[_part(ops, 0, fixed)] + delay)
    if window < count:
        # An op waiting on one past the partner's window never runs in this slab.
        c[_part(own, window, count)] = _NEVER
    if window > fixed:
        own, ops = _span(_part(own, fixed, window)), _span(_part(ops, fixed, window))
        first_op = ops.start if type(ops) is slice else int(ops[0])
        own_stop = own.stop if type(own) is slice else int(own[-1]) + 1
        node.terms.append(_Term(own, partner, ops, delay, window - fixed, first_op, own_stop))


def _relax(node: _Node) -> bool:
    """Recompute ``node``'s window from what its partners changed since it last read them.

    Reports a change.  Times only rise within a slab (module docstring), so
    partner ops that have not changed add nothing: a term re-reads only the
    ops from its partner's first change since, and the window is recomputed
    only from the first op whose maximum in ``c`` rose, up to its first op
    at "never" (every later op stays at "never" for the rest of the slab).
    """
    finite = node.finite
    c = node.c
    rose = 0 if node.stale else finite
    node.stale = False
    for term in node.terms:
        partner, seen = term.partner, term.seen
        changes = partner.changes
        if len(changes) == seen:
            continue
        term.seen = len(changes)
        begin = 0
        if seen >= 0:
            changed = min(changes[seen:])
            if changed > term.first_op:
                begin = _below(term.ops, changed)
        end = term.count if finite >= term.own_stop else _below(term.own, finite)
        if begin >= end:
            continue
        own = _part(term.own, begin, end)
        ready = partner.t[_part(term.ops, begin, end)] + term.delay
        current = c[own]
        higher = ready > current
        first = int(higher.argmax())
        if higher[first]:
            rose = min(rose, own.start + first if type(own) is slice else int(own[first]))
            np.maximum(current, ready, out=ready)
            c[own] = ready
    if rose >= finite:
        return False
    node.evaluated += finite - rose
    lo = node.lo
    steps = np.arange(rose, finite, dtype=np.int32)
    window = node.t[lo + rose : lo + finite]
    t = c[rose:finite] - steps
    if rose:
        # The running maximum of ``c - step`` up to the op before.
        t[0] = max(int(t[0]), int(node.t[lo + rose - 1]) - rose + 1)
    np.maximum.accumulate(t, out=t)
    t += steps
    np.minimum(t, _NEVER, out=t)
    moved = t != window
    first = int(moved.argmax())
    if not moved[first]:
        return False
    window[first:] = t[first:]
    node.finite = rose + first + int(t[first:].searchsorted(_NEVER))
    node.changes.append(lo + rose + first)
    return True


def _below(index: Any, bound: int) -> int:
    """How many entries of the ascending ``index`` (a slice or an array) lie below ``bound``."""
    if type(index) is slice:
        return min(max(0, bound - index.start), index.stop - index.start)
    return int(index.searchsorted(bound))


def _part(index: Any, begin: int, end: int) -> Any:
    """Entries ``begin .. end - 1`` of ``index`` (a slice or an array)."""
    if type(index) is slice:
        return slice(index.start + begin, index.start + end)
    return index[begin:end]


def _relax_all(nodes: list[_Node], sweep_cap: int) -> int | None:
    """Alternate forward and backward sweeps until no window changes; the sweep count."""
    dirty = [node.hi > node.lo for node in nodes]
    forward = list(range(len(nodes)))
    backward = forward[::-1]
    sweeps = 0
    while any(dirty):
        if sweeps == sweep_cap:
            return None
        order = forward if sweeps % 2 == 0 else backward
        sweeps += 1
        for i in order:
            if not dirty[i]:
                continue
            dirty[i] = False
            if _relax(nodes[i]):
                for j in nodes[i].neighbors:
                    dirty[j] = True
    return sweeps
