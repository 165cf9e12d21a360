"""Static multi-DFE partition planner (§III-B6 as a compiler backend).

Turns the V501–V601 feasibility verifier into an optimizing search over
pipeline cut points: a DP over chain cut positions for linear families and
a branch-and-bound layer honoring skip-connection constraints for residual
graphs, every candidate scored statically (resource ledgers, link
bandwidth, analytic rates) and the winner's timing predicted *exactly* by
a value-independent abstract replay.
"""

from .plan import (
    DeviceLedger,
    PartitionPlan,
    PlanError,
    PredictedTiming,
    PrunedCandidate,
)
from .replay import predict_partition_timing
from .search import allowed_cut_positions, neighbor_partitions, plan_partition

__all__ = [
    "DeviceLedger",
    "PartitionPlan",
    "PlanError",
    "PredictedTiming",
    "PrunedCandidate",
    "predict_partition_timing",
    "allowed_cut_positions",
    "neighbor_partitions",
    "plan_partition",
]
