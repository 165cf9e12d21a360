"""The value-independent timing replay: one zero-batch schedule per geometry.

Kernel scheduling never depends on data values: the cycle at which any
kernel consumes or emits depends only on tensor geometry.  So one schedule
per geometry (graph, partition, link) — :data:`REPLAY_IMAGES` images — is
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
system is solved in slabs: every kernel's next ``delta`` uncommitted ops
are relaxed by alternating forward and backward sweeps over the kernels
(seeded from below, later ops held at "never") until nothing changes.  The
slab ends one cycle after the earliest last-window op; everything before
that instant cannot depend on an op outside the window, so it is exact
and committed.  ``delta`` doubles when a slab settles in few sweeps and
halves when it needs many.  The engine remains the test oracle
(``tests/test_schedule.py``).

The replay's skip FIFOs are unbounded.  A skip FIFO sized to its
high-water mark ``C`` never retimes anything — every push in the
unbounded replay happened at occupancy ``<= C - 1``, and the fork feeding
the skip arm checks space before pushing — so an exact-sized run completes
on the same cycles.  The mark is flat from the second image on, so the
:data:`REPLAY_IMAGES` replay sizes runs of any length (tested).

The same solve runs an untraced ``simulate`` (:func:`solve_run`).  There
each open-loop image's first push waits for its arrival, every skip FIFO
keeps its built capacity, and the counters the engine keeps live are
derived from the op times (``tests/test_schedule_run.py``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..nn.graph import AddNode, LayerGraph
from .kernel import STALL_BLOCKED, STALL_IDLE, STALL_STARVED, Kernel, KernelStats
from .links import MAXRING, LinkSpec
from .manager import Pipeline, build_pipeline
from .stream import Stream, StreamStats

__all__ = ["REPLAY_IMAGES", "REPLAY_MAX_CYCLES", "Schedule", "replay_schedule", "solve_run"]

# Four images give three completion gaps — enough for
# `exact_completion_period` to certify a steady-state period.  Tests that
# compare the prediction with a real simulation stream the same count.
REPLAY_IMAGES = 4

# Cycle budget of one replay; a geometry that does not drain within it
# raises instead of being cached.
REPLAY_MAX_CYCLES = 500_000_000

# "Never": the time of an op outside the current window.  Op times stay
# below it (REPLAY_MAX_CYCLES is smaller), and it plus any op count stays
# inside int32, the dtype of every time array.
_NEVER = 1 << 30

# First slab width (ops per kernel), its floor, and the sweep counts that
# grow or shrink it.
_DELTA_START = 4096
_DELTA_MIN = 1
_FEW_SWEEPS = 4
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
    link: LinkSpec = MAXRING,
) -> Schedule:
    """The schedule of ``graph`` under ``partition``, solved once and cached on the graph.

    One group covering every compute node is the same geometry as ``None``.
    The schedule is in fabric cycles, so the clock is not part of the
    geometry.  Raises ``RuntimeError`` (and caches nothing) if the
    schedule does not drain within :data:`REPLAY_MAX_CYCLES`.
    """
    groups = None if partition is None else tuple(tuple(group) for group in partition)
    compute_nodes = set(graph.nodes) - {graph.input_name}
    if groups is not None and len(groups) == 1 and set(groups[0]) >= compute_nodes:
        groups, partition = None, None
    cache: dict[Any, Schedule] = vars(graph).setdefault("_schedule_cache", {})
    key = (groups, link)
    if key in cache:
        return cache[key]

    from ..telemetry.latency import segment_summaries

    spec = graph.input_spec
    zeros = np.zeros((REPLAY_IMAGES, spec.height, spec.width, spec.channels), dtype=np.int64)
    adds = [n for n in graph.order if isinstance(graph.nodes[n], AddNode)]
    # Skip capacities are never read: the solver leaves skip edges unbounded.
    pipeline = build_pipeline(
        graph, zeros, partition=partition, link=link, skip_sizing={add: 1 for add in adds}
    )
    solution = _solve(pipeline)
    if solution is None:
        raise _over_budget(graph)
    _stamp_instants(solution, pipeline)
    cache[key] = Schedule(
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
    return cache[key]


def solve_run(pipeline: Pipeline, max_cycles: int) -> int | None:
    """Run ``pipeline`` by solving its schedule instead of ticking; the cycle count.

    The solve takes the source's open-loop arrivals and every stream's
    built capacity, skip FIFOs included.  From the op times it stamps what
    a ticked run leaves behind, equal to the engine's: the per-image
    admission, mark and completion instants, every kernel's
    :class:`~repro.dataflow.kernel.KernelStats` and stream's
    :class:`~repro.dataflow.stream.StreamStats`, and each FIFO's residual
    elements (values are placeholders: outputs come from the batched
    functional pass).  Kernels' datapath state is left as built.

    Returns ``None`` and changes nothing when the engine has to run it
    instead: no images, a kernel without an op program or stall order, a
    kernel that pushes before its first pop in an image, a run that would
    not finish within ``max_cycles``, or a deadlock.  The engine then
    raises the same :class:`~repro.dataflow.engine.CycleBudgetExceeded`
    it always did.
    """
    kernels = pipeline.engine.kernels
    if not pipeline.source.n_images or not all(kernel.stall_order for kernel in kernels):
        return None
    try:
        solution = _solve(pipeline, bounded_skips=True, limit=min(max_cycles, REPLAY_MAX_CYCLES))
    except NotImplementedError:  # a kernel without an op program
        return None
    if solution is None or any(node.lead < 0 for node in solution.nodes):
        return None
    _stamp_instants(solution, pipeline)
    stats = [_kernel_stats(solution, node, kernel) for node, kernel in zip(solution.nodes, kernels)]
    for kernel, kernel_stats in zip(kernels, stats):
        kernel.stats = kernel_stats
    for stream in pipeline.engine.streams:
        _stamp_stream(solution, stream, stats)
    return solution.cycles


def _over_budget(graph: LayerGraph) -> RuntimeError:
    return RuntimeError(
        f"timing replay of {graph.name!r} did not finish within {REPLAY_MAX_CYCLES:,} "
        "cycles — run `python -m repro check` on this geometry"
    )


def _span(index: np.ndarray) -> np.ndarray | slice:
    """``index`` as a slice when it is a contiguous ascending run (cheaper gathers)."""
    if index.size and int(index[-1]) - int(index[0]) == index.size - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


class _Node:
    """One kernel's ops: their times and the current slab window ``[lo, hi)``."""

    __slots__ = (
        "n", "total", "t", "lo", "hi", "ins", "outs", "terms", "neighbors",
        "arrivals", "ran", "lead",
    )

    def __init__(self, n: int, images: int) -> None:
        self.n = n
        self.total = n * images
        self.t = np.full(self.total, _NEVER, dtype=np.int32)
        self.lo = 0
        self.hi = 0
        self.ins: list[_Edge] = []
        self.outs: list[_Edge] = []
        # Per slab: (own ops, partner times, partner ops, delay) per constraint.
        self.terms: list[tuple[Any, np.ndarray, Any, int]] = []
        self.neighbors: list[int] = []
        # Open-loop source only: image m's first op runs no earlier than arrivals[m].
        self.arrivals: np.ndarray | None = None
        # After the solve: ops run before the sink finished, and how many
        # leading ops of an image need no input (-1: one pushes first).
        self.ran = 0
        self.lead = 0


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


def _elements_before(table: np.ndarray, n: int, per_image: int, op: int) -> int:
    """How many elements the ops before ``op`` moved, given one image's ``table``."""
    image, local = divmod(op, n)
    return image * per_image + int(np.searchsorted(table, local))


def _ops_of(table: np.ndarray, n: int, per_image: int, first: int, stop: int) -> np.ndarray:
    """The ops moving elements ``first .. stop - 1``."""
    parts: list[np.ndarray] = []
    while first < stop:
        image, local = divmod(first, per_image)
        end = min(per_image, local + stop - first)
        parts.append(table[local:end] + image * n)
        first += end - local
    return np.concatenate(parts) if len(parts) != 1 else parts[0]


def _solve(
    pipeline: Pipeline, bounded_skips: bool = False, limit: int | None = None
) -> _Solution | None:
    """Solve every op's cycle; ``None`` on a deadlock or a run of ``limit`` cycles or more.

    ``limit`` defaults to :data:`REPLAY_MAX_CYCLES`.  Skip edges are
    unbounded unless ``bounded_skips`` (the replay sizes them from this
    very solve).  Reads the pipeline, writes nothing to it.
    """
    if limit is None:
        limit = REPLAY_MAX_CYCLES
    engine = pipeline.engine
    kernels = engine.kernels
    images = pipeline.source.n_images
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

    sink = nodes[position[id(pipeline.sink)]]
    delta = _DELTA_START
    floor = 0
    sweep_cap = 256 + 4 * len(nodes)
    while sink.lo < sink.total:
        for node in nodes:
            _open_window(node, delta, floor)
        for node in nodes:
            _build_terms(node, nodes)
        sweeps = _relax_all(nodes, sweep_cap)
        if sweeps is None:
            # No fixed point within the cap: a dependency cycle (deadlock)
            # or a slab too wide to settle.  Narrow it; at one op it is a cycle.
            if delta == _DELTA_MIN:
                return None
            delta = max(_DELTA_MIN, delta // 2)
            continue
        end = min(
            (int(node.t[node.hi - 1]) + 1 for node in nodes if node.hi < node.total),
            default=_NEVER,
        )
        for node in nodes:
            node.lo += int(np.searchsorted(node.t[node.lo : node.hi], np.int32(end)))
        if sink.lo < sink.total and end >= limit:
            return None
        floor = end
        if sweeps <= _FEW_SWEEPS:
            delta *= 2
        elif sweeps > _MANY_SWEEPS:
            delta = max(_DELTA_MIN, delta // 2)
    for node in nodes:
        node.terms = []

    cycles = int(sink.t[-1]) + 1
    if cycles >= limit:
        return None
    # Ops the engine would have run before it stopped: a prefix per kernel.
    # (An int32 needle: a Python int would make numpy copy ``t`` to int64.)
    for node in nodes:
        node.ran = int(np.searchsorted(node.t[: node.lo], np.int32(cycles)))
    return _Solution(nodes, edges, cycles)


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


def _stamp_instants(solution: _Solution, pipeline: Pipeline) -> None:
    """The per-image instants the engine stamps live: admissions, completions, stream marks."""

    def moved(stream: Stream, every: int, offset: int, popped: bool) -> list[int]:
        edge = solution.edges[id(stream)]
        node = solution.nodes[edge.reader if popped else edge.writer]
        table = edge.pop if popped else edge.push
        count = _elements_before(table, node.n, edge.per_image, node.ran)
        elements = np.arange(offset, count, every)
        times: list[int] = _times(node, table, edge.per_image, elements).tolist()
        return times

    source, sink, graph = pipeline.source, pipeline.sink, pipeline.graph
    source.admission_cycles = moved(source.outputs[0], graph.input_spec.elements, 0, False)
    last = graph.output_spec.elements
    sink.completion_cycles = moved(sink.inputs[0], last, last - 1, True)
    for stream in pipeline.engine.streams:
        if stream.mark_every:
            stream.mark_cycles = moved(stream, stream.mark_every, 0, False)


def _moved_counts(solution: _Solution, edge: _Edge) -> tuple[int, int]:
    """Elements of ``edge`` pushed and popped before the run ended."""
    writer, reader = solution.nodes[edge.writer], solution.nodes[edge.reader]
    return (
        _elements_before(edge.push, writer.n, edge.per_image, writer.ran),
        _elements_before(edge.pop, reader.n, edge.per_image, reader.ran),
    )


def _max_occupancy(solution: _Solution, edge: _Edge) -> int:
    """The stream's high-water mark: the most pushes less earlier pops, one image at a time.

    A pop at ``t`` lands after a push at ``t`` (the reader ticks later), so
    each push counts the pops strictly before it.  Pops before an image's
    last push are of its elements or earlier ones, so the pop times
    gathered per image stay within one image plus the occupancy.
    """
    writer, reader = solution.nodes[edge.writer], solution.nodes[edge.reader]
    per_image = edge.per_image
    pushed, popped = _moved_counts(solution, edge)
    best = done = 0
    for first in range(0, pushed, per_image):
        stop = min(first + per_image, pushed)
        push = writer.t[_ops_of(edge.push, writer.n, per_image, first, stop)]
        upto = min(stop, popped)
        if upto > done:
            pop = reader.t[_ops_of(edge.pop, reader.n, per_image, done, upto)]
            before = np.searchsorted(pop, push)
        else:
            before = np.zeros(push.size, dtype=np.int64)
        occupancy = np.arange(first + 1 - done, stop + 1 - done) - before
        best = max(best, int(occupancy.max()))
        done += int(before[-1])
    return best


# Ops per chunk of the stall derivation (bounds its temporaries).
_STALL_CHUNK = 1 << 16


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


def _kernel_stats(solution: _Solution, node: _Node, kernel: Kernel) -> KernelStats:
    """The counters a ticked run leaves on ``kernel``, from its op times.

    Active cycles are the ops run before the end, plus, for a kernel that
    wraps into the next image, its leading input-free ops after the last
    image.  Every other cycle waits for the next op and takes the class of
    the first check in :attr:`~repro.dataflow.kernel.Kernel.stall_order`
    still failing then; after its last op a host endpoint idles.
    """
    cycles, t, ran = solution.cycles, node.t, node.ran
    drained = ran == node.total
    extra = 0
    if drained and not kernel.idles_when_done:
        extra = min(node.lead, cycles - 1 - int(t[-1]))
    stats = KernelStats(active_cycles=ran + extra)
    last = int(t[ran - 1]) + extra if ran else -1
    if ran:
        stats.first_active_cycle = int(t[0])
        stats.last_active_cycle = last
    counts = dict.fromkeys((STALL_STARVED, STALL_BLOCKED, STALL_IDLE), 0)
    order = kernel.stall_order

    def classify(ops: np.ndarray, start: np.ndarray, length: np.ndarray) -> None:
        first = np.clip(_readiness(solution, node, order[0], ops) - start, 0, length)
        waited = int(first.sum())
        counts[order[0]] += waited
        rest = int(length.sum()) - waited
        if rest:
            counts[order[1]] += rest

    for lo in range(0, ran, _STALL_CHUNK):
        hi = min(ran, lo + _STALL_CHUNK)
        times = t[lo:hi].astype(np.int64)
        start = np.empty_like(times)
        start[0] = int(t[lo - 1]) + 1 if lo else 0
        start[1:] = times[:-1] + 1
        length = times - start
        waits = np.flatnonzero(length)
        if waits.size:
            classify(waits + lo, start[waits], length[waits])
    # The wait for the op after the last one run, to the end of the run.
    if last + 1 < cycles:
        if drained and kernel.idles_when_done:
            counts[STALL_IDLE] += cycles - last - 1
        else:
            following = node.total + node.lead if drained else ran
            classify(np.array([following]), np.array([last + 1]), np.array([cycles - last - 1]))
    stats.input_starved_cycles = counts[STALL_STARVED]
    stats.output_blocked_cycles = counts[STALL_BLOCKED]
    stats.idle_cycles = counts[STALL_IDLE]
    for edge in node.ins:
        stats.elements_in += _moved_counts(solution, edge)[1]
    for edge in node.outs:
        stats.elements_out += _moved_counts(solution, edge)[0]
    return stats


def _stamp_stream(solution: _Solution, stream: Stream, kernel_stats: list[KernelStats]) -> None:
    """A stream's counters and residual FIFO (placeholder values) after the solved run."""
    edge = solution.edges[id(stream)]
    pushed, popped = _moved_counts(solution, edge)
    writer = stream.writer
    assert writer is not None
    rejections = 0
    if writer.blocked_rejects_output and writer.outputs[0] is stream:
        rejections = kernel_stats[edge.writer].output_blocked_cycles
    stream.stats = StreamStats(
        pushes=pushed,
        pops=popped,
        full_rejections=rejections,
        max_occupancy=_max_occupancy(solution, edge),
    )
    node = solution.nodes[edge.writer]
    visible = _times(node, edge.push, edge.per_image, np.arange(popped, pushed)) + 1 + edge.latency
    stream._fifo = deque((0, ready) for ready in visible.tolist())


def _open_window(node: _Node, delta: int, floor: int) -> None:
    """Widen or narrow ``node``'s window to ``delta`` ops and seed it from below."""
    lo, old_hi = node.lo, node.hi
    hi = min(lo + delta, node.total)
    t = node.t
    if hi < old_hi:
        t[hi:old_hi] = _NEVER
    if hi > lo:
        # Uncommitted ops run no earlier than the last slab's end, nor
        # before their predecessors — a lower bound of the true times.
        start = max(int(t[lo - 1]) + 1 if lo else 0, floor)
        t[lo:hi] = np.arange(start, start + hi - lo, dtype=np.int32)
    node.hi = hi


def _build_terms(node: _Node, nodes: list[_Node]) -> None:
    """Index tables of every constraint on ``node``'s window ops, for this slab."""
    terms: list[tuple[Any, np.ndarray, Any, int]] = []
    lo, hi, n = node.lo, node.hi, node.n
    if hi > lo:
        for edge in node.ins:
            # Pops wait for the pushed element to become visible.
            first = _elements_before(edge.pop, n, edge.per_image, lo)
            stop = _elements_before(edge.pop, n, edge.per_image, hi)
            if stop > first:
                writer = nodes[edge.writer]
                own = _ops_of(edge.pop, n, edge.per_image, first, stop) - lo
                partner = _ops_of(edge.push, writer.n, edge.per_image, first, stop)
                terms.append((_span(own), writer.t, _span(partner), 1 + edge.latency))
        for edge in node.outs:
            if edge.capacity is None:
                continue
            # Pushes wait for the slot freed by the pop `capacity` elements back.
            first = max(_elements_before(edge.push, n, edge.per_image, lo), edge.capacity)
            stop = _elements_before(edge.push, n, edge.per_image, hi)
            if stop > first:
                reader = nodes[edge.reader]
                own = _ops_of(edge.push, n, edge.per_image, first, stop) - lo
                partner = _ops_of(
                    edge.pop, reader.n, edge.per_image, first - edge.capacity, stop - edge.capacity
                )
                terms.append((_span(own), reader.t, _span(partner), 1))
        if node.arrivals is not None:
            # An open-loop image's first push waits for its arrival.
            first_op = int(node.outs[0].push[0])
            begin = max(0, -((first_op - lo) // n))
            end = (hi - 1 - first_op) // n + 1
            if end > begin:
                own = np.arange(begin, end) * n + first_op - lo
                terms.append((_span(own), node.arrivals, slice(begin, end), 0))
    node.terms = terms


def _relax(node: _Node) -> bool:
    """Recompute ``node``'s window from its neighbours' times; report a change."""
    lo, hi = node.lo, node.hi
    if hi <= lo:
        return False
    size = hi - lo
    c = np.zeros(size, dtype=np.int32)
    c[0] = int(node.t[lo - 1]) + 1 if lo else 0
    for own, times, partner, delay in node.terms:
        ready = times[partner] + delay
        np.maximum(c[own], ready, out=ready)
        c[own] = ready
    steps = np.arange(size, dtype=np.int32)
    c -= steps
    np.maximum.accumulate(c, out=c)
    c += steps
    np.minimum(c, _NEVER, out=c)
    window = node.t[lo:hi]
    if np.array_equal(c, window):
        return False
    window[:] = c
    return True


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
