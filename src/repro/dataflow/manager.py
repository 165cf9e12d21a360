"""The DFE Manager: lowers a LayerGraph into a streaming kernel pipeline.

This mirrors the paper's development model: "each layer is represented in
the DFE Manager by a single function call ... the building of the network
is similar to the process of building in high level frameworks."  Given an
exported :class:`~repro.nn.graph.LayerGraph`, :func:`build_pipeline`
instantiates one kernel per IR node, wires streams between them, inserts
forks for skip connections, sizes skip delay buffers, and attaches the host
source/sink.  :func:`simulate` runs the result cycle-accurately.

Multi-DFE execution (§III-B6) is expressed as a partition of the node list:
edges crossing a partition boundary become MaxRing-latency streams, and the
report records the bandwidth each crossing requires.
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
    InputNode,
    LayerGraph,
    MaxPoolNode,
    TensorSpec,
    ThresholdNode,
)
from .engine import Engine, RunResult
from .kernel import Kernel
from .leap import LeapController, LeapReport, batch_reference_outputs
from .links import MAXRING, PCIE_GEN2_X8, LinkSpec, required_bandwidth_mbps
from .stream import Stream
from .trace import Tracer

if TYPE_CHECKING:
    from ..telemetry.collector import Telemetry

__all__ = ["build_pipeline", "simulate", "StreamingRun", "LinkCrossing", "Pipeline"]

DEFAULT_STREAM_CAPACITY = 4

# Skip-path delay buffers get their *exact* §III-B5 size from the static
# verifier (`skip_sizing="exact"`, the default).  The solver reads the
# high-water marks off the geometry's zero-batch timing replay
# (`schedule.replay_schedule`: REPLAY_IMAGES images, cached on the graph),
# the same replay the partition planner's exact prediction reads.  The
# engine's measured high-water is asserted back against that static
# prediction after every run (see verify.check_skip_high_water), turning the
# paper's "never creates delays by itself" claim into a round-trip check.
#
# `skip_sizing="bound"` sizes by the closed-form §III-B5 formula plus an
# in-flight slack (no replay — cheap for paper-scale graphs).


@dataclass(frozen=True)
class LinkCrossing:
    """A graph edge mapped onto an inter-DFE link."""

    edge: tuple[str, str]
    from_dfe: int
    to_dfe: int
    stream_bits: int
    required_mbps: float
    link: LinkSpec


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
    dfe_of_node: dict[str, int]
    partition: list[list[str]] | None = None
    link: LinkSpec = MAXRING
    fclk_mhz: float = 105.0
    skip_sizing: str = "exact"  # "exact" | "bound" | "custom"
    skip_capacities: dict[str, int] = field(default_factory=dict)


@dataclass
class StreamingRun:
    """Results of a cycle-accurate streaming execution."""

    output: np.ndarray
    cycles: int
    run: RunResult
    pipeline: Pipeline
    # Set on every mode="leap" run (None for other modes): how many
    # steady-state periods were skipped and at what period, or — when no
    # controller could be built at all — the demotion flag and reason.
    leap_report: LeapReport | None = None

    @property
    def latency_cycles(self) -> int:
        return self.run.latency_cycles

    @property
    def steady_state_interval(self) -> float | None:
        return self.run.steady_state_interval


def _node_to_kernel(graph: LayerGraph, name: str, use_bitops: bool) -> Kernel:
    node = graph.nodes[name]
    parents = graph.parents(name)
    in_spec = graph.specs[parents[0]] if parents else None
    if isinstance(node, ConvNode):
        return ConvKernel(name, node, in_spec, use_bitops=use_bitops)
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
    link: LinkSpec,
    fclk_mhz: float,
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
        # Lazy import: verify's solver builds a replay pipeline through this
        # very module.
        from .verify import solve_skip_capacities

        return (
            solve_skip_capacities(graph, partition=partition, link=link, fclk_mhz=fclk_mhz),
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
    use_bitops: bool = False,
    partition: list[list[str]] | None = None,
    link: LinkSpec = MAXRING,
    host_link: LinkSpec = PCIE_GEN2_X8,
    fclk_mhz: float = 105.0,
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
    use_bitops:
        Route convolution math through packed popcounts.
    partition:
        Optional list of node-name groups, one per DFE, covering all
        compute nodes contiguously in topological order.  ``None`` puts
        everything on one DFE.
    arrival_cycles:
        Optional open-loop arrival schedule, one non-decreasing cycle per
        image: the host source withholds image *i* until its arrival cycle
        (see :class:`~repro.kernels.io.HostSource`).  ``None`` streams
        back-to-back (closed loop).
    skip_sizing:
        How skip delay FIFOs are sized: ``"exact"`` (default) asks the
        static verifier's §III-B5 solver for the sharp per-adder minimum,
        ``"bound"`` uses the paper's closed-form formula plus slack, and a
        ``{add_node: capacity}`` mapping overrides everything (the timing
        replay, fault injection, experiments).
    """
    graph.validate()
    skip_caps, skip_mode = _resolve_skip_capacities(graph, skip_sizing, partition, link, fclk_mhz)
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]

    dfe_of_node: dict[str, int] = {}
    if partition is not None:
        seen: set[str] = set()
        for idx, group in enumerate(partition):
            for node_name in group:
                if node_name in seen:
                    raise ValueError(f"node {node_name!r} assigned to two DFEs")
                seen.add(node_name)
                dfe_of_node[node_name] = idx
        missing = set(graph.nodes) - seen - {graph.input_name}
        if missing:
            raise ValueError(f"partition misses nodes: {sorted(missing)}")
    else:
        for node_name in graph.nodes:
            dfe_of_node[node_name] = 0
    dfe_of_node.setdefault(graph.input_name, dfe_of_node.get(graph.topological()[1], 0))
    # Host endpoints live with the first/last on-fabric kernel; the PCIe hop
    # is accounted by the timing model, not as a MaxRing crossing.
    dfe_of_node["host_sink"] = dfe_of_node.get(graph.output_name, 0)

    engine = Engine(graph.name)
    source = HostSource("host_source", images, graph.input_spec, arrival_cycles=arrival_cycles)
    sink = HostSink("host_sink", graph.output_spec, images.shape[0])

    kernels: dict[str, Kernel] = {}
    engine.add_kernel(source)
    topo = graph.topological()
    for name in topo:
        if name == graph.input_name:
            continue
        kernel = _node_to_kernel(graph, name, use_bitops)
        kernels[name] = kernel
        engine.add_kernel(kernel)
    engine.add_kernel(sink)

    # Producer lookup: IR node -> kernel producing its output stream.  The
    # input node's "kernel" is the host source.
    producer: dict[str, Kernel] = {graph.input_name: source}
    producer.update(kernels)

    skip_streams: dict[str, Stream] = {}
    crossings: list[LinkCrossing] = []

    # Insert forks for fan-out and wire every edge.
    for name in topo:
        consumers = graph.consumers(name)
        spec = graph.specs[name]
        prod = producer[name]
        targets: list[tuple[Kernel, int]] = []
        for consumer in consumers:
            port = graph.graph.edges[name, consumer]["port"]
            targets.append((kernels[consumer], port))
        if name == graph.output_name:
            targets.append((sink, 0))
        if not targets:
            continue
        if len(targets) > 1:
            # Fan-out (the skip-path split of Figure 2): insert a fork.
            fork = ForkKernel(f"{name}.fork", spec.elements)
            engine.kernels.insert(engine.kernels.index(prod) + 1, fork)
            _make_stream(
                f"{name}->fork", spec, prod, fork, dfe_of_node, name, name, link, fclk_mhz, crossings, engine
            )
            prod = fork
        for consumer_kernel, port in sorted(targets, key=lambda t: t[1]):
            _wire(
                engine, graph, prod, consumer_kernel, name, port, spec, dfe_of_node, link, fclk_mhz, crossings, skip_streams, skip_caps
            )

    # Image-boundary marks for the per-image lifecycle records: the sink
    # edge gives every image a "first pixel reached the sink" instant and
    # each inter-DFE crossing a "first pixel left the partition" instant.
    if sink.inputs:
        sink.inputs[0].mark_every = graph.output_spec.elements
    crossing_edges = {f"{c.edge[0]}->{c.edge[1]}[" for c in crossings}
    for stream in engine.streams:
        if stream.latency > 0 and any(stream.name.startswith(p) for p in crossing_edges):
            from_node = stream.name.split("->", 1)[0]
            stream.mark_every = graph.specs[from_node].elements

    return Pipeline(
        engine=engine,
        graph=graph,
        source=source,
        sink=sink,
        kernels_by_node=kernels,
        skip_streams=skip_streams,
        crossings=crossings,
        dfe_of_node=dfe_of_node,
        partition=partition,
        link=link,
        fclk_mhz=fclk_mhz,
        skip_sizing=skip_mode,
        skip_capacities=dict(skip_caps),
    )


def _make_stream(
    name: str,
    spec: TensorSpec,
    prod: Kernel,
    cons: Kernel,
    dfe_of_node: dict[str, int],
    from_node: str,
    to_node: str,
    link: LinkSpec,
    fclk_mhz: float,
    crossings: list[LinkCrossing],
    engine: Engine,
    capacity: int = DEFAULT_STREAM_CAPACITY,
) -> Stream:
    latency = 0
    d_from = dfe_of_node.get(from_node, 0)
    d_to = dfe_of_node.get(to_node, 0)
    if d_from != d_to:
        latency = link.latency_cycles
        crossings.append(
            LinkCrossing(
                edge=(from_node, to_node),
                from_dfe=d_from,
                to_dfe=d_to,
                stream_bits=spec.stream_bits,
                required_mbps=required_bandwidth_mbps(spec.stream_bits, fclk_mhz),
                link=link,
            )
        )
        # Link buffering must cover its own round-trip latency.
        capacity = max(capacity, 2 * latency + 4)
    stream = Stream(name, capacity=capacity, latency=latency, bits=spec.stream_bits)
    engine.connect(prod, cons, stream)
    return stream


def _wire(
    engine: Engine,
    graph: LayerGraph,
    prod: Kernel,
    consumer_kernel: Kernel,
    from_node: str,
    port: int,
    spec: TensorSpec,
    dfe_of_node: dict[str, int],
    link: LinkSpec,
    fclk_mhz: float,
    crossings: list[LinkCrossing],
    skip_streams: dict[str, Stream],
    skip_caps: dict[str, int],
) -> None:
    to_node = consumer_kernel.name.removesuffix(".fork")
    capacity = DEFAULT_STREAM_CAPACITY
    is_skip = isinstance(consumer_kernel, AddKernel) and port == 1
    if is_skip:
        capacity = skip_caps[to_node]
    stream = _make_stream(
        f"{from_node}->{to_node}[{port}]",
        spec,
        prod,
        consumer_kernel,
        dfe_of_node,
        from_node,
        to_node,
        link,
        fclk_mhz,
        crossings,
        engine,
        capacity=capacity,
    )
    if is_skip:
        skip_streams[to_node] = stream


def simulate(
    graph: LayerGraph,
    images: np.ndarray,
    use_bitops: bool = False,
    partition: list[list[str]] | None = None,
    link: LinkSpec = MAXRING,
    fclk_mhz: float = 105.0,
    max_cycles: int = 50_000_000,
    fast: bool = True,
    trace: Tracer | None = None,
    telemetry: "Telemetry | None" = None,
    skip_sizing: str | dict[str, int] = "exact",
    sanitize: bool = True,
    arrival_cycles: list[int] | None = None,
    mode: str | None = None,
) -> StreamingRun:
    """Cycle-accurately stream ``images`` through ``graph``.

    Returns the reassembled integer outputs together with latency and
    throughput measurements; the outputs are bit-exact with
    :func:`repro.nn.inference.run_graph` (tested property).  ``fast``
    selects the event-driven scheduler (default) or the exhaustive
    tick-everything reference loop; both produce identical results and
    statistics (tested property).  Passing a fresh
    :class:`~repro.dataflow.trace.Tracer` as ``trace`` records the run's
    full cycle-exact event log (identical for both schedulers) for
    Perfetto export and occupancy analysis.  Passing a fresh
    :class:`~repro.telemetry.collector.Telemetry` as ``telemetry`` samples
    live metrics (kernel utilization, FIFO occupancy, link bandwidth,
    throughput) into its registry as the run progresses; the collector
    adopts the pipeline's fabric clock and link crossings.

    ``sanitize=True`` (default) asserts every skip stream's measured
    high-water mark against the static §III-B5 prediction after the run
    (exact equality in steady state — the verifier's solver and the engine
    must agree, or the run raises).

    ``mode`` names the scheduler explicitly — ``"exhaustive"``, ``"fast"``
    or ``"leap"`` — and overrides the legacy ``fast`` flag.  ``"leap"``
    runs the fast scheduler plus the steady-state leap controller
    (:mod:`repro.dataflow.leap`): once the pipeline's period is proven,
    whole periods are skipped and their outputs recomputed through the
    kernels' batched functional paths.  Results (cycles, outputs, stats,
    traces, per-image instants) are bit-identical across all three modes;
    pipelines outside the leap contract (open-loop arrivals, custom
    kernels) degrade to the fast path with
    ``StreamingRun.leap_report.demoted`` set and ``demotion_reason``
    naming the cause — check the report to see whether leaps happened.
    """
    if mode is not None:
        if mode not in ("exhaustive", "fast", "leap"):
            raise ValueError(f"mode must be 'exhaustive', 'fast' or 'leap', got {mode!r}")
        fast = mode != "exhaustive"
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]
    pipeline = build_pipeline(
        graph,
        images,
        use_bitops=use_bitops,
        partition=partition,
        link=link,
        fclk_mhz=fclk_mhz,
        skip_sizing=skip_sizing,
        arrival_cycles=arrival_cycles,
    )
    if telemetry is not None:
        telemetry.attach_pipeline(pipeline)
    controller: LeapController | None = None
    demoted_report: LeapReport | None = None
    if mode == "leap":
        controller = LeapController.for_engine(pipeline.engine)
        if controller is None:
            # Leap was requested but cannot apply: record why, visibly.
            # The run is still correct — it degrades to the plain fast
            # path — but callers (the CLI, the fleet layer) can now warn
            # instead of silently delivering fast-path wall-clock.
            demoted_report = LeapReport(
                demoted=True,
                demotion_reason=LeapController.ineligibility(pipeline.engine),
            )
    cycles = pipeline.engine.run(
        lambda: pipeline.sink.done,
        max_cycles=max_cycles,
        fast=fast,
        trace=trace,
        telemetry=telemetry,
        leap=controller,
    )
    if sanitize and pipeline.skip_streams:
        from .verify import check_skip_high_water

        check_skip_high_water(pipeline, n_images=int(images.shape[0]))
    kstats, sstats = pipeline.engine.collect_stats()
    leap_report = controller.report if controller is not None else demoted_report
    output = pipeline.sink.output_tensor()
    if leap_report is not None and leap_report.windows > 0:
        # Leaped windows streamed placeholder values through the sink; the
        # batched functional path recomputes every image exactly (it is
        # bit-identical to the streaming datapath — tested property).
        output = batch_reference_outputs(pipeline, images)
    run = RunResult(
        cycles=cycles,
        completion_cycles=pipeline.sink.completion_cycles,
        output=output,
        kernel_stats=kstats,
        stream_stats=sstats,
        converged=True,
    )
    return StreamingRun(
        output=output, cycles=cycles, run=run, pipeline=pipeline, leap_report=leap_report
    )
