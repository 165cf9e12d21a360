"""Cross-backend verification: one call to check all execution routes agree.

The repository's central correctness contract is a chain of bit-exact
equivalences (float QAT model ≡ integer IR ≡ packed-popcount arithmetic ≡
cycle-accurate streaming).  :func:`verify_backends` exercises the last
three on a given graph and input batch and returns a structured report;
tests, examples and users of custom graphs can call it instead of wiring
the comparisons by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import LayerGraph
from .inference import run_graph

__all__ = ["BackendReport", "verify_backends"]


@dataclass
class BackendReport:
    """Outcome of a cross-backend agreement check."""

    functional_vs_bitops: bool
    functional_vs_streaming: bool
    streaming_cycles: int
    streaming_latency_cycles: int
    output_shape: tuple[int, ...]

    @property
    def all_agree(self) -> bool:
        return self.functional_vs_bitops and self.functional_vs_streaming

    def summary(self) -> str:
        status = "OK" if self.all_agree else "MISMATCH"
        return (
            f"[{status}] functional==bitops: {self.functional_vs_bitops}; "
            f"functional==streaming: {self.functional_vs_streaming}; "
            f"streaming latency {self.streaming_latency_cycles:,} cycles"
        )


def verify_backends(
    graph: LayerGraph,
    levels: np.ndarray,
    check_bitops: bool = True,
    max_cycles: int | None = None,
) -> BackendReport:
    """Run ``levels`` through every backend and compare outputs element-wise.

    Parameters
    ----------
    graph:
        An exported (or directly built) LayerGraph.
    levels:
        Integer input levels, shape ``(N, H, W, C)`` or ``(H, W, C)``.
    check_bitops:
        Also route convolutions through the packed XNOR/AND-popcount path
        (slower; skip for very large graphs).
    max_cycles:
        The streamed run's cycle budget; ``None`` keeps ``simulate``'s
        default (``dataflow.engine.DEFAULT_MAX_CYCLES``).
    """
    from ..dataflow.manager import simulate  # local import: avoid cycle

    reference = run_graph(graph, levels)
    bit_ok = True
    if check_bitops:
        packed = run_graph(graph, levels, use_bitops=True)
        bit_ok = bool((packed.output == reference.output).all())

    # The exhaustive loop ticks every kernel's datapath.  A solved ("leap")
    # run takes its values from the batched functional pass, which is not
    # the streamed datapath under test.
    budget = {} if max_cycles is None else {"max_cycles": max_cycles}
    streaming = simulate(graph, levels, mode="exhaustive", **budget)
    ref_shaped = reference.output.reshape(streaming.output.shape)
    stream_ok = bool((streaming.output == ref_shaped).all())

    return BackendReport(
        functional_vs_bitops=bit_ok,
        functional_vs_streaming=stream_ok,
        streaming_cycles=streaming.cycles,
        streaming_latency_cycles=streaming.latency_cycles,
        output_shape=tuple(reference.output.shape),
    )
