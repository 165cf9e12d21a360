"""The DFE Manager: lowers a LayerGraph into a streaming kernel pipeline.

This mirrors the paper's development model: "each layer is represented in
the DFE Manager by a single function call ... the building of the network
is similar to the process of building in high level frameworks."  Given an
exported :class:`~repro.nn.graph.LayerGraph`, :func:`build_pipeline`
instantiates one kernel per IR node, wires streams between them, inserts
forks for skip connections, sizes skip delay buffers, and attaches the host
source/sink.  :func:`simulate` runs the result cycle-accurately.

Multi-DFE execution (§III-B6) is expressed as a partition of the node list:
the edges :func:`~repro.dataflow.links.partition_crossings` names become
MaxRing-latency streams, and ``Pipeline.crossings`` is that very list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..kernels.conv import ConvKernel
from ..kernels.elementwise import AddKernel, ForkKernel
from ..kernels.io import HostSink, HostSource
from ..kernels.pooling import MaxPoolKernel
from ..kernels.reduce import GlobalAvgSumKernel
from ..kernels.threshold import ThresholdKernel
from ..nn.graph import (
    AddNode,
    ConvNode,
    GlobalAvgSumNode,
    LayerGraph,
    MaxPoolNode,
    TensorSpec,
    ThresholdNode,
)
from .engine import DEFAULT_MAX_CYCLES, CycleBudgetExceeded, Engine, RunResult
from .kernel import Kernel
from .leap import LeapReport, batch_reference_outputs
from .links import MAXRING, LinkCrossing, partition_crossings
from .stream import Stream
from .trace import Tracer

if TYPE_CHECKING:
    from ..telemetry.collector import Telemetry
    from .schedule import Timeline

__all__ = ["build_pipeline", "simulate", "StreamingRun", "Pipeline"]

DEFAULT_STREAM_CAPACITY = 4

# Skip-path delay buffers get their *exact* §III-B5 size from the static
# verifier (`skip_sizing="exact"`, the default).  The solver reads the
# high-water marks off the geometry's op-recurrence solve
# (`schedule.replay_schedule`: REPLAY_IMAGES images, cached on the graph),
# the same schedule the partition planner's exact prediction reads, and the
# run it sizes takes that very solve as its prefix (`schedule.solve_run`).
# The engine's measured high-water is asserted back against that static
# prediction after every run (see verify.check_skip_high_water), turning the
# paper's "never creates delays by itself" claim into a round-trip check.
#
# `skip_sizing="bound"` sizes by the closed-form §III-B5 formula plus an
# in-flight slack (no replay — cheap for paper-scale graphs).


@dataclass
class Pipeline:
    """A built (but not yet run) streaming network."""

    engine: Engine
    graph: LayerGraph
    source: HostSource
    sink: HostSink
    kernels_by_node: dict[str, Kernel]
    skip_streams: dict[str, Stream]
    crossings: list[LinkCrossing]
    partition: list[list[str]] | None = None
    skip_sizing: str = "exact"  # "exact" | "bound" | "custom"
    skip_capacities: dict[str, int] = field(default_factory=dict)

    @property
    def crossing_streams(self) -> list[Stream]:
        """The stream carrying each of :attr:`crossings`, in the same order.

        Only a crossing's stream has the MaxRing latency, and ``build_pipeline``
        wires them in crossing order.
        """
        return [stream for stream in self.engine.streams if stream.latency > 0]


@dataclass
class StreamingRun:
    """Results of a cycle-accurate streaming execution."""

    output: np.ndarray
    cycles: int
    run: RunResult
    pipeline: Pipeline
    # How far the period extended the solved prefix, or why it did not.
    leap_report: LeapReport

    @property
    def latency_cycles(self) -> int:
        return self.run.latency_cycles

    @property
    def steady_state_interval(self) -> float | None:
        return self.run.steady_state_interval


def _node_to_kernel(graph: LayerGraph, name: str) -> Kernel:
    node = graph.nodes[name]
    parents = graph.parents(name)
    in_spec = graph.specs[parents[0]] if parents else None
    if isinstance(node, ConvNode):
        return ConvKernel(name, node, in_spec)
    if isinstance(node, MaxPoolNode):
        return MaxPoolKernel(name, node, in_spec)
    if isinstance(node, ThresholdNode):
        return ThresholdKernel(name, node, in_spec)
    if isinstance(node, GlobalAvgSumNode):
        return GlobalAvgSumKernel(name, in_spec)
    if isinstance(node, AddNode):
        return AddKernel(name, graph.specs[name].elements)
    raise TypeError(f"no streaming kernel for node type {type(node).__name__}")


def _resolve_skip_capacities(
    graph: LayerGraph,
    skip_sizing: str | dict[str, int],
    partition: list[list[str]] | None,
) -> tuple[dict[str, int], str]:
    """Capacity of every skip delay FIFO, per the chosen sizing mode."""
    adds = [n for n in graph.order if isinstance(graph.nodes[n], AddNode)]
    if not isinstance(skip_sizing, str):
        caps = {name: int(cap) for name, cap in skip_sizing.items()}
        missing = [n for n in adds if n not in caps]
        if missing:
            raise ValueError(f"skip_sizing mapping misses residual adders: {missing}")
        return caps, "custom"
    if not adds:
        return {}, skip_sizing if skip_sizing in ("exact", "bound") else "exact"
    if skip_sizing == "exact":
        # Lazy import: verify's solver builds the pipeline it solves through
        # this very module.
        from .verify import solve_skip_capacities

        return (
            solve_skip_capacities(graph, partition=partition),
            "exact",
        )
    if skip_sizing == "bound":
        from .verify import SKIP_FORMULA_SLACK, skip_formula_bound

        return (
            {n: skip_formula_bound(graph, n) + SKIP_FORMULA_SLACK for n in adds},
            "bound",
        )
    raise ValueError(f"skip_sizing must be 'exact', 'bound' or a mapping, got {skip_sizing!r}")


def build_pipeline(
    graph: LayerGraph,
    images: np.ndarray,
    partition: list[list[str]] | None = None,
    skip_sizing: str | dict[str, int] = "exact",
    arrival_cycles: list[int] | None = None,
) -> Pipeline:
    """Instantiate kernels and streams for ``graph``.

    Parameters
    ----------
    graph:
        An exported LayerGraph.
    images:
        Input level tensor ``(N, H, W, C)`` (or a single HWC image).
    partition:
        Optional list of node-name groups, one per DFE, covering all
        compute nodes contiguously in topological order.  ``None`` puts
        everything on one DFE.  ``Pipeline.crossings`` is
        :func:`~repro.dataflow.links.partition_crossings` of it, and only
        the streams of those edges cross :data:`~repro.dataflow.links.MAXRING`:
        they take its latency and a FIFO deep enough for its round trip.
    arrival_cycles:
        Optional open-loop arrival schedule, one non-decreasing cycle per
        image: the host source withholds image *i* until its arrival cycle
        (see :class:`~repro.kernels.io.HostSource`).  ``None`` streams
        back-to-back (closed loop).
    skip_sizing:
        How skip delay FIFOs are sized: ``"exact"`` (default) asks the
        static verifier's §III-B5 solver for the sharp per-adder minimum,
        ``"bound"`` uses the paper's closed-form formula plus slack, and a
        ``{add_node: capacity}`` mapping overrides everything (the
        schedule solver, fault injection, experiments).
    """
    graph.validate()
    skip_caps, skip_mode = _resolve_skip_capacities(graph, skip_sizing, partition)
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]

    crossings: list[LinkCrossing] = []
    if partition is not None:
        seen: set[str] = set()
        for group in partition:
            for node_name in group:
                if node_name in seen:
                    raise ValueError(f"node {node_name!r} assigned to two DFEs")
                seen.add(node_name)
        missing = set(graph.nodes) - seen - {graph.input_name}
        if missing:
            raise ValueError(f"partition misses nodes: {sorted(missing)}")
        crossings = partition_crossings(graph, partition)
    crossing_edges = {crossing.edge for crossing in crossings}

    engine = Engine(graph.name)
    source = HostSource("host_source", images, graph.input_spec, arrival_cycles=arrival_cycles)
    sink = HostSink("host_sink", graph.output_spec, images.shape[0])

    kernels: dict[str, Kernel] = {}
    engine.add_kernel(source)
    topo = graph.topological()
    for name in topo:
        if name == graph.input_name:
            continue
        kernel = _node_to_kernel(graph, name)
        kernels[name] = kernel
        engine.add_kernel(kernel)
    engine.add_kernel(sink)

    # Producer lookup: IR node -> kernel producing its output stream.  The
    # input node's "kernel" is the host source.
    producer: dict[str, Kernel] = {graph.input_name: source}
    producer.update(kernels)

    skip_streams: dict[str, Stream] = {}

    # Insert forks for fan-out and wire every edge.
    for name in topo:
        consumers = graph.consumers(name)
        spec = graph.specs[name]
        prod = producer[name]
        targets: list[tuple[Kernel, int]] = []
        for consumer in consumers:
            port = graph.producers[consumer].index(name)
            targets.append((kernels[consumer], port))
        if name == graph.output_name:
            targets.append((sink, 0))
        if not targets:
            continue
        if len(targets) > 1:
            # Fan-out (the skip-path split of Figure 2): insert a fork.
            fork = ForkKernel(f"{name}.fork", spec.elements)
            engine.kernels.insert(engine.kernels.index(prod) + 1, fork)
            _make_stream(engine, prod, fork, f"{name}->fork", spec, crosses=False)
            prod = fork
        for consumer_kernel, port in sorted(targets, key=lambda t: t[1]):
            _wire(engine, prod, consumer_kernel, name, port, spec, crossing_edges, skip_streams, skip_caps)

    # Image-boundary mark for the per-image lifecycle records: the sink
    # edge gives every image a "first pixel reached the sink" instant (each
    # crossing its "first pixel left the partition" one, in `_wire`).
    if sink.inputs:
        sink.inputs[0].mark_every = graph.output_spec.elements

    return Pipeline(
        engine=engine,
        graph=graph,
        source=source,
        sink=sink,
        kernels_by_node=kernels,
        skip_streams=skip_streams,
        crossings=crossings,
        partition=partition,
        skip_sizing=skip_mode,
        skip_capacities=dict(skip_caps),
    )


def _make_stream(
    engine: Engine,
    prod: Kernel,
    cons: Kernel,
    name: str,
    spec: TensorSpec,
    crosses: bool,
    capacity: int = DEFAULT_STREAM_CAPACITY,
) -> Stream:
    latency = 0
    if crosses:
        latency = MAXRING.latency_cycles
        # Link buffering must cover its own round-trip latency.
        capacity = max(capacity, 2 * latency + 4)
    stream = Stream(name, capacity=capacity, latency=latency, bits=spec.stream_bits)
    engine.connect(prod, cons, stream)
    return stream


def _wire(
    engine: Engine,
    prod: Kernel,
    consumer_kernel: Kernel,
    from_node: str,
    port: int,
    spec: TensorSpec,
    crossing_edges: set[tuple[str, str]],
    skip_streams: dict[str, Stream],
    skip_caps: dict[str, int],
) -> None:
    to_node = consumer_kernel.name.removesuffix(".fork")
    capacity = DEFAULT_STREAM_CAPACITY
    is_skip = isinstance(consumer_kernel, AddKernel) and port == 1
    if is_skip:
        capacity = skip_caps[to_node]
    crosses = (from_node, to_node) in crossing_edges
    stream = _make_stream(
        engine, prod, consumer_kernel, f"{from_node}->{to_node}[{port}]", spec, crosses, capacity=capacity
    )
    if crosses:
        stream.mark_every = spec.elements
    if is_skip:
        skip_streams[to_node] = stream


def simulate(
    graph: LayerGraph,
    images: np.ndarray,
    partition: list[list[str]] | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    trace: Tracer | None = None,
    telemetry: "Telemetry | None" = None,
    skip_sizing: str | dict[str, int] = "exact",
    arrival_cycles: list[int] | None = None,
    mode: str = "leap",
) -> StreamingRun:
    """Cycle-accurately stream ``images`` through ``graph``.

    Returns the reassembled integer outputs together with latency and
    throughput measurements; the outputs are bit-exact with
    :func:`repro.nn.inference.run_graph` (tested property).  Passing a fresh
    :class:`~repro.dataflow.trace.Tracer` as ``trace`` records the run's
    full cycle-exact event log (identical in every mode) for
    Perfetto export and occupancy analysis; a used one raises
    ``ValueError`` before anything runs.  Passing a fresh
    :class:`~repro.telemetry.collector.Telemetry` as ``telemetry`` samples
    the run's metrics (kernel utilization, FIFO occupancy, link bandwidth,
    throughput) into its registry every ``sample_every`` cycles.  Both are
    read off the solved schedule's
    :class:`~repro.dataflow.schedule.Timeline` once the run ends or hits
    its budget, in every mode (an exhaustive run solves it besides
    ticking); the samples reach the listeners in cycle order.  A run that
    fails any other way writes neither.  A run the solver declines cannot
    be traced or sampled: with either it raises ``ValueError`` naming the
    reason (a run of no images keeps an empty trace and one sample, both
    sealed at cycle 0).

    After every run each skip stream's measured high-water mark is
    asserted against the static §III-B5 prediction
    (:func:`~repro.dataflow.verify.check_skip_high_water`): the verifier's
    solver and the engine must agree, or the run raises.

    ``mode`` names how the run executes: ``"leap"`` (default) or
    ``"exhaustive"``.  A leap run does not tick:
    :func:`~repro.dataflow.schedule.solve_run` solves every op's cycle from
    the kernels' op recurrences and derives the counters, instants and any
    ``trace`` from them, and the outputs come from the batched functional
    pass.  A closed-loop untraced, untelemetered run solves only a prefix
    of its images and extends it by the certified per-image period.  An
    exhaustive run ticks the engine's reference loop, every kernel every
    cycle; only a pipeline :func:`~repro.dataflow.schedule.unsolvable`
    names makes a leap run tick it too.  Results (cycles, outputs, stats,
    traces, telemetry samples, per-image instants) are bit-identical in
    both modes.  Every run carries a
    :class:`~repro.dataflow.leap.LeapReport`: how many images past the
    solved prefix the period extended the run by, or why it did not.

    ``max_cycles`` must be a positive ``int``; anything else raises
    ``ValueError`` before the pipeline is built.  A run that does not
    finish within it, deadlocked or not, raises
    :class:`~repro.dataflow.engine.CycleBudgetExceeded` carrying the
    ``pipeline`` in the state the engine leaves at cycle ``max_cycles``:
    its counters, residual FIFOs and completed images are what load
    generation, attribution and fleet replicas report on.  A solved run
    reaches that state without ticking.
    """
    if mode not in ("exhaustive", "leap"):
        raise ValueError(f"mode must be 'exhaustive' or 'leap', got {mode!r}")
    if isinstance(max_cycles, bool) or not isinstance(max_cycles, int) or max_cycles <= 0:
        raise ValueError(f"max_cycles must be a positive int cycle budget, got {max_cycles!r}")
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]
    pipeline = build_pipeline(
        graph,
        images,
        partition=partition,
        skip_sizing=skip_sizing,
        arrival_cycles=arrival_cycles,
    )
    if trace is not None:
        trace.attach(pipeline.engine)  # a reused tracer raises before anything runs
    if telemetry is not None:
        telemetry.attach_pipeline(pipeline)
    from .schedule import replay_timeline, solve_run, solve_timeline

    report = LeapReport(demoted=True, reason="mode='exhaustive'")
    timeline: Timeline | None = None  # a ticked run's trace and samples, from a solve of the same run
    try:
        if mode == "leap":
            report = solve_run(pipeline, max_cycles, trace, telemetry)
        if report.cycles is not None:
            cycles = report.cycles
        else:
            if trace is not None or telemetry is not None:
                timeline = solve_timeline(pipeline, max_cycles)
            cycles = pipeline.engine.run(lambda: pipeline.sink.done, max_cycles=max_cycles)
    except CycleBudgetExceeded as err:
        err.pipeline = pipeline
        if timeline is not None:
            replay_timeline(timeline, pipeline, trace, telemetry)
        raise
    if timeline is not None:
        replay_timeline(timeline, pipeline, trace, telemetry)
    if pipeline.skip_streams:
        from .verify import check_skip_high_water

        check_skip_high_water(pipeline, n_images=int(images.shape[0]))
    kstats, sstats = pipeline.engine.collect_stats()
    if report.cycles is not None:
        # A solved run streamed no values: the batched functional path
        # computes every image exactly (it is bit-identical to the
        # streaming datapath — tested property).
        output = batch_reference_outputs(pipeline, images)
    else:
        output = pipeline.sink.output_tensor()
    run = RunResult(
        cycles=cycles,
        completion_cycles=pipeline.sink.completion_cycles,
        output=output,
        kernel_stats=kstats,
        stream_stats=sstats,
        converged=True,
    )
    return StreamingRun(output=output, cycles=cycles, run=run, pipeline=pipeline, leap_report=report)
