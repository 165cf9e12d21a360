"""Typed partition plans: the planner's output contract.

A :class:`PartitionPlan` is everything a deployment needs to reproduce the
planner's decision: the winning cuts, the per-device resource ledger
(infrastructure plus kernels, with utilizations against the target FPGA),
the *exact* predicted steady-state interval and fill latency (from a
value-independent op-recurrence solve — not the ~5%-accurate analytic model),
and an audit trail of pruned candidates with the verifier code that killed
each one.  Plans serialize to the ``repro-plan/1`` schema and feed
``repro check``, ``repro simulate`` and ``repro fleet --mix`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..dataflow.links import MAX4_FABRIC_MHZ, MAXRING

if TYPE_CHECKING:
    from ..hardware.device import FPGASpec
    from ..hardware.resources import ResourceEstimate

__all__ = [
    "DeviceLedger",
    "PrunedCandidate",
    "PredictedTiming",
    "PartitionPlan",
    "PlanError",
]


class PlanError(RuntimeError):
    """No feasible partition exists under the given budgets/SLO."""


@dataclass(frozen=True, slots=True)
class DeviceLedger:
    """Resource accounting for one DFE of a plan."""

    index: int
    nodes: tuple[str, ...]
    luts: float
    ffs: float
    bram_blocks: int
    bram_kbits: float
    utilization: tuple[tuple[str, float], ...]  # ("lut"|"ff"|"bram", fraction)

    @property
    def max_utilization(self) -> float:
        return max(frac for _, frac in self.utilization)

    @classmethod
    def from_estimate(
        cls, index: int, nodes: list[str], est: "ResourceEstimate", device: "FPGASpec"
    ) -> "DeviceLedger":
        return cls(
            index=index,
            nodes=tuple(nodes),
            luts=est.luts,
            ffs=est.ffs,
            bram_blocks=est.bram_blocks,
            bram_kbits=est.bram_kbits,
            utilization=(
                ("lut", est.luts / device.luts),
                ("ff", est.ffs / device.ffs),
                ("bram", est.bram_kbits / device.bram_kbits),
            ),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "nodes": list(self.nodes),
            "luts": self.luts,
            "ffs": self.ffs,
            "bram_blocks": self.bram_blocks,
            "bram_kbits": self.bram_kbits,
            "utilization": {name: frac for name, frac in self.utilization},
            "max_utilization": self.max_utilization,
        }


@dataclass(frozen=True, slots=True)
class PrunedCandidate:
    """One candidate the search rejected, and the exact reason.

    ``killed_by`` is a verifier diagnostic code (V503 for a cut through a
    residual block, V701/V702/V703 for a device-budget overflow, V704 for
    an SLO miss) or ``"bound"`` for a branch-and-bound lower-bound prune.
    """

    cuts: tuple[int, ...]
    killed_by: str
    where: str
    message: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "cuts": list(self.cuts),
            "killed_by": self.killed_by,
            "where": self.where,
            "message": self.message,
        }


@dataclass(frozen=True, slots=True)
class PredictedTiming:
    """Exact timing of the winner, from the value-independent op-recurrence solve.

    ``interval`` and ``latency_cycles`` are *bit-equal* to what
    ``simulate(graph, images, partition=...)`` measures with the same
    image count, solved or ticked: kernel scheduling never depends
    on data values, so the op-recurrence solve over a zero batch yields
    the identical cycle schedule.  ``period`` is the
    count-independent exact completion period when the run reached one.
    """

    n_images: int
    replay_cycles: int
    latency_cycles: int
    completion_cycles: tuple[int, ...]
    interval: float | None
    period: int | None
    segments: tuple[tuple[str, float], ...] = ()  # (label, mean cycles)

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_images": self.n_images,
            "replay_cycles": self.replay_cycles,
            "latency_cycles": self.latency_cycles,
            "completion_cycles": list(self.completion_cycles),
            "interval": self.interval,
            "period": self.period,
            "segments": [
                {"label": label, "mean_cycles": mean} for label, mean in self.segments
            ],
        }


@dataclass(slots=True)
class PartitionPlan:
    """The planner's winner plus everything needed to audit the choice."""

    graph_name: str
    objective: str  # "min-dfes" | "min-latency"
    device_name: str
    fill_cap: float
    groups: list[list[str]]
    cuts: tuple[int, ...]  # node-index start of each device but the first
    ledgers: list[DeviceLedger]
    predicted: PredictedTiming | None
    audit: list[PrunedCandidate] = field(default_factory=list)
    candidates_scored: int = 0
    slo_fps: float | None = None

    @property
    def n_dfes(self) -> int:
        return len(self.groups)

    @property
    def max_utilization(self) -> float:
        return max(ledger.max_utilization for ledger in self.ledgers)

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro-plan/1",
            "graph": self.graph_name,
            "objective": self.objective,
            "device": self.device_name,
            "fill_cap": self.fill_cap,
            "link": MAXRING.name,
            "fclk_mhz": MAX4_FABRIC_MHZ,
            "slo_fps": self.slo_fps,
            "n_dfes": self.n_dfes,
            "cuts": list(self.cuts),
            "groups": [list(group) for group in self.groups],
            "max_utilization": self.max_utilization,
            "ledgers": [ledger.as_dict() for ledger in self.ledgers],
            "predicted": self.predicted.as_dict() if self.predicted else None,
            "candidates_scored": self.candidates_scored,
            "audit": [pruned.as_dict() for pruned in self.audit],
        }

    def render(self) -> str:
        lines = [
            f"plan {self.graph_name}: {self.n_dfes} DFE(s) on {self.device_name} "
            f"(objective {self.objective}, fill cap {self.fill_cap:.0%}, "
            f"{self.candidates_scored} candidate(s) scored, "
            f"{len(self.audit)} pruned)"
        ]
        for ledger in self.ledgers:
            utils = ", ".join(f"{name} {frac:.1%}" for name, frac in ledger.utilization)
            lines.append(
                f"  dfe{ledger.index}: {len(ledger.nodes)} kernel(s) "
                f"[{ledger.nodes[0]} .. {ledger.nodes[-1]}] — {utils}"
            )
        if self.predicted is not None:
            p = self.predicted
            interval = f"{p.interval:,.1f}" if p.interval is not None else "n/a"
            period = f"{p.period:,}" if p.period is not None else "n/a"
            lines.append(
                f"  predicted: interval {interval} cycles/image (exact period {period}), "
                f"fill latency {p.latency_cycles:,} cycles "
                f"(replay of {p.n_images} images, {p.replay_cycles:,} cycles)"
            )
        return "\n".join(lines)
