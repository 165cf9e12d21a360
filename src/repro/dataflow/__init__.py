"""Maxeler-style streaming dataflow substrate: streams, kernels, engine, manager."""

from .engine import CycleBudgetExceeded, Engine, RunResult
from .interval import achieved_fps, exact_completion_period, mean_completion_interval
from .kernel import Kernel, KernelStats
from .leap import LeapReport, batch_reference_outputs
from .links import MAXRING, PCIE_GEN2_X8, LinkCrossing, LinkSpec, required_bandwidth_mbps
from .manager import (
    DEFAULT_STREAM_CAPACITY,
    Pipeline,
    StreamingRun,
    build_pipeline,
    simulate,
)
from .stream import Stream, StreamStats
from .trace import (
    ImageCompletion,
    KernelSpan,
    RejectSpan,
    StreamEvent,
    Tracer,
    load_chrome_trace,
)
from .tracing import LayerRow, LayerTable
from .verify import (
    Diagnostic,
    VerifyReport,
    check_skip_high_water,
    skip_formula_bound,
    solve_skip_capacities,
    verify,
    verify_graph,
    verify_pipeline,
)
from .window import (
    ScanWindow,
    depth_first_buffer_elements,
    skip_buffer_elements,
    width_first_buffer_elements,
)

__all__ = [
    "CycleBudgetExceeded",
    "Engine",
    "RunResult",
    "Kernel",
    "KernelStats",
    "LeapReport",
    "batch_reference_outputs",
    "achieved_fps",
    "exact_completion_period",
    "mean_completion_interval",
    "MAXRING",
    "PCIE_GEN2_X8",
    "LinkSpec",
    "required_bandwidth_mbps",
    "DEFAULT_STREAM_CAPACITY",
    "LinkCrossing",
    "Pipeline",
    "StreamingRun",
    "build_pipeline",
    "simulate",
    "Diagnostic",
    "VerifyReport",
    "check_skip_high_water",
    "skip_formula_bound",
    "solve_skip_capacities",
    "verify",
    "verify_graph",
    "verify_pipeline",
    "LayerRow",
    "LayerTable",
    "Stream",
    "StreamStats",
    "Tracer",
    "KernelSpan",
    "StreamEvent",
    "RejectSpan",
    "ImageCompletion",
    "load_chrome_trace",
    "ScanWindow",
    "depth_first_buffer_elements",
    "skip_buffer_elements",
    "width_first_buffer_elements",
]
