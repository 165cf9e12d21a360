"""Static partition search: DP over chain cuts + branch-and-bound for skips.

The search space is the set of *contiguous* splits of the compute nodes in
topological order (§III-B6: streams only flow forward through the MaxRing
daisy chain).  A candidate is a tuple of cut positions; every candidate is
scored **statically** — per-device LUT/FF/BRAM ledgers from
:mod:`repro.hardware.resources` prefix sums, link bandwidth and residual
atomicity from :func:`repro.dataflow.verify.partition_feasibility`'s rules,
throughput/latency from the analytic rate model.  No cycle is simulated in
the search loop; only the winner is replayed (exactly) by
:mod:`repro.planner.replay`.

Two search layers:

* **DP** (linear families — VGG/AlexNet): ``f[k][j]`` = the smallest
  achievable *bottleneck device utilization* packing the first ``j`` nodes
  onto exactly ``k`` devices, with lexicographically-smallest cuts as the
  tie-break.  Segment feasibility is monotone (estimates are non-negative),
  so inner loops cut off at the first overflow; infeasible segments land in
  the audit trail with the V-code of the overflowing resource.
* **Branch-and-bound** (residual graphs — ResNet): DFS over node-level cut
  positions.  A cut through a residual block is killed by the skip-crossing
  rule (V503 — the §III-B6 atomicity constraint *emerges* from the verifier
  rather than being assumed), a device over budget by V701/V702/V703, and
  subtrees that cannot beat the incumbent by the lower bound
  ``devices_used + ceil(max_r remaining_r / capacity_r)``.

Objectives: ``min-dfes`` (fewest devices under the budgets and an optional
throughput SLO, then smallest bottleneck utilization) and ``min-latency``
(fixed device count; smallest predicted fill+steady latency, then smallest
bottleneck utilization).  For a pure chain every cut adds exactly one
crossing, making the analytic latency cut-invariant — the utilization
tie-break is then what separates candidates; reconvergent graphs can cross
more than one edge per cut, so B&B scores the analytic latency explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..dataflow.links import MAXRING, LinkSpec
from ..dataflow.verify import partition_feasibility
from ..hardware.calibration import DEFAULT_RESOURCE_CAL, ResourceCalibration
from ..hardware.device import STRATIX_V_5SGSD8, FPGASpec
from ..hardware.partition import infrastructure_estimate, per_kernel_overhead
from ..hardware.resources import estimate_node
from ..hardware.timing import estimate_network_timing
from ..nn.graph import AddNode, InputNode, LayerGraph
from .plan import DeviceLedger, PartitionPlan, PlanError, PredictedTiming, PrunedCandidate
from .replay import predict_partition_timing

__all__ = ["plan_partition", "neighbor_partitions", "allowed_cut_positions"]


@dataclass(slots=True)
class _CostModel:
    """Prefix-sum resource ledgers + budget checks shared by both searches."""

    nodes: list[str]
    pre_luts: list[float]
    pre_ffs: list[float]
    pre_bram: list[int]
    infra_luts: float
    infra_ffs: float
    infra_bram_kbits: float
    budget_luts: float
    budget_ffs: float
    budget_bram_kbits: float
    dev_luts: float
    dev_ffs: float
    dev_bram_kbits: float

    def segment(self, i: int, j: int) -> tuple[float, float, float]:
        """(luts, ffs, bram_kbits) of devices holding nodes[i:j], with infra."""
        from ..hardware.resources import M20K_KBITS

        return (
            self.infra_luts + self.pre_luts[j] - self.pre_luts[i],
            self.infra_ffs + self.pre_ffs[j] - self.pre_ffs[i],
            self.infra_bram_kbits + (self.pre_bram[j] - self.pre_bram[i]) * M20K_KBITS,
        )

    def overflow(self, i: int, j: int) -> tuple[str, str] | None:
        """First violated budget of segment [i, j), as (V-code, resource)."""
        luts, ffs, bram = self.segment(i, j)
        if luts > self.budget_luts:
            return "V701", "lut"
        if ffs > self.budget_ffs:
            return "V702", "ff"
        if bram > self.budget_bram_kbits:
            return "V703", "bram"
        return None

    def utilization(self, i: int, j: int) -> float:
        """Max LUT/FF/BRAM fraction of the *device* (not the fill cap)."""
        luts, ffs, bram = self.segment(i, j)
        return max(luts / self.dev_luts, ffs / self.dev_ffs, bram / self.dev_bram_kbits)

    def min_devices_lower_bound(self, i: int) -> int:
        """Devices needed for nodes[i:] if packing were perfectly fractional."""
        from ..hardware.resources import M20K_KBITS

        n = len(self.nodes)
        luts = self.pre_luts[n] - self.pre_luts[i]
        ffs = self.pre_ffs[n] - self.pre_ffs[i]
        bram = (self.pre_bram[n] - self.pre_bram[i]) * M20K_KBITS
        if luts <= 0 and ffs <= 0 and bram <= 0:
            return 0
        need = 1
        for used, budget, infra in (
            (luts, self.budget_luts, self.infra_luts),
            (ffs, self.budget_ffs, self.infra_ffs),
            (bram, self.budget_bram_kbits, self.infra_bram_kbits),
        ):
            cap = budget - infra
            if used > 0 and cap > 0:
                need = max(need, -(-int(used) // max(1, int(cap))))
            elif used > 0:
                raise PlanError(
                    f"per-device budget leaves no room beyond infrastructure "
                    f"({used:,.0f} needed, {cap:,.0f} available per device)"
                )
        return need


def _compute_nodes(graph: LayerGraph) -> list[str]:
    return [n for n in graph.order if not isinstance(graph.nodes[n], InputNode)]


def allowed_cut_positions(graph: LayerGraph) -> list[int]:
    """Cut positions (in compute-node order) that keep residual blocks whole.

    Position ``p`` cuts between ``nodes[p-1]`` and ``nodes[p]``.  A position
    strictly between a residual adder and any of its operand producers would
    route a skip stream across chips (V503), so it is excluded; for linear
    graphs every interior position is allowed.
    """
    nodes = _compute_nodes(graph)
    index = {name: i for i, name in enumerate(nodes)}
    forbidden: set[int] = set()
    for name, node in graph.nodes.items():
        if not isinstance(node, AddNode):
            continue
        a = index[name]
        for parent in graph.parents(name):
            if parent in index:
                forbidden.update(range(index[parent] + 1, a + 1))
    return [p for p in range(1, len(nodes)) if p not in forbidden]


def _cuts_to_partition(nodes: list[str], cuts: tuple[int, ...]) -> list[list[str]]:
    bounds = [0, *cuts, len(nodes)]
    return [nodes[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]


class _Audit:
    """Bounded audit-trail collector (drops beyond the limit, keeps count)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.entries: list[PrunedCandidate] = []
        self.dropped = 0

    def add(self, cuts: tuple[int, ...], killed_by: str, where: str, message: str) -> None:
        if len(self.entries) < self.limit:
            self.entries.append(PrunedCandidate(cuts, killed_by, where, message))
        else:
            self.dropped += 1


def _dp_min_dfes(
    model: _CostModel,
    positions: list[int],
    audit: _Audit,
) -> tuple[tuple[int, ...], int]:
    """DP over allowed cut positions: fewest devices, then bottleneck, then lex.

    ``best[j]`` holds the optimum for covering ``nodes[:pos[j]]``; transitions
    append the segment ``[pos[i], pos[j])``.  Returns (cuts, candidates_scored).
    """
    pos = [0, *positions, len(model.nodes)]
    m = len(pos)
    # best[j]: (devices, bottleneck_util, cuts) — lexicographic minimum.
    best: list[tuple[float, float, tuple[int, ...]] | None] = [None] * m
    best[0] = (0, 0.0, ())
    scored = 0
    for j in range(1, m):
        for i in range(j - 1, -1, -1):
            prev = best[i]
            if prev is None:
                continue
            kill = model.overflow(pos[i], pos[j])
            if kill is not None:
                code, resource = kill
                audit.add(
                    (*prev[2], pos[i]) if i else prev[2],
                    code,
                    f"dfe{int(prev[0])}",
                    f"segment {model.nodes[pos[i]]}..{model.nodes[pos[j] - 1]} "
                    f"overflows the per-device {resource} budget",
                )
                # Estimates are non-negative: widening [pos[i'], pos[j]) with
                # i' < i only grows — stop scanning earlier starts.
                break
            util = model.utilization(pos[i], pos[j])
            cuts = (*prev[2], pos[i]) if i else prev[2]
            cand = (prev[0] + 1, max(prev[1], util), cuts)
            scored += 1
            if best[j] is None or cand < best[j]:
                best[j] = cand
    final = best[m - 1]
    if final is None:
        raise PlanError(
            "no feasible partition: some single atomic segment exceeds the "
            "per-device budgets (see the audit trail)"
        )
    return final[2], scored


def _branch_and_bound(
    model: _CostModel,
    graph: LayerGraph,
    boundary_set: set[int],
    audit: _Audit,
    *,
    exact_k: int | None,
    link: LinkSpec,
    fclk_mhz: float,
) -> tuple[tuple[int, ...], int]:
    """DFS over node-level cut positions with feasibility + bound pruning.

    With ``exact_k=None`` the objective is (devices, bottleneck util, cuts);
    with a fixed ``exact_k`` it is (analytic fill+steady latency, bottleneck
    util, cuts) over exactly that many devices.  Every prune is recorded.
    """
    nodes = model.nodes
    n = len(nodes)
    best: list[tuple[Any, ...] | None] = [None]
    scored = [0]

    def latency_of(cuts: tuple[int, ...]) -> int:
        timing = estimate_network_timing(
            graph,
            fclk_mhz=fclk_mhz,
            partition=_cuts_to_partition(nodes, cuts),
            link=link,
        )
        return timing.latency_cycles + timing.interval_cycles

    def dfs(start: int, cuts: tuple[int, ...], util_so_far: float) -> None:
        devices_used = len(cuts)
        # Bound: even fractional packing of the remainder cannot beat the
        # incumbent device count / reach the requested count.
        remaining_lb = model.min_devices_lower_bound(start)
        if exact_k is None:
            if best[0] is not None and devices_used + remaining_lb >= best[0][0] + 1:
                audit.add(
                    cuts,
                    "bound",
                    f"dfe{devices_used}",
                    f"lower bound {devices_used + remaining_lb} device(s) cannot "
                    f"beat the incumbent {int(best[0][0])}",
                )
                return
        else:
            left = exact_k - devices_used
            if remaining_lb > left or (n - start) < left or left <= 0:
                audit.add(
                    cuts,
                    "bound",
                    f"dfe{devices_used}",
                    f"{n - start} node(s) left cannot fill exactly {left} device(s)",
                )
                return
        for end in range(start + 1, n + 1):
            kill = model.overflow(start, end)
            if kill is not None:
                code, resource = kill
                audit.add(
                    (*cuts, end) if end < n else cuts,
                    code,
                    f"dfe{devices_used}",
                    f"segment {nodes[start]}..{nodes[end - 1]} overflows the "
                    f"per-device {resource} budget",
                )
                break  # monotone: wider segments only grow
            util = max(util_so_far, model.utilization(start, end))
            if end == n:
                if exact_k is not None and devices_used + 1 != exact_k:
                    continue
                scored[0] += 1
                cand: tuple[Any, ...]
                if exact_k is None:
                    cand = (devices_used + 1, util, cuts)
                else:
                    cand = (latency_of(cuts), util, cuts)
                if best[0] is None or cand < best[0]:
                    best[0] = cand
                continue
            if end not in boundary_set:
                audit.add(
                    (*cuts, end),
                    "V503",
                    nodes[end],
                    f"cut before {nodes[end]!r} routes a residual skip stream "
                    "across chips (§III-B6 keeps blocks on one DFE)",
                )
                continue
            dfs(end, (*cuts, end), util)

    dfs(0, (), 0.0)
    if best[0] is None:
        raise PlanError(
            "no feasible partition under the budgets"
            + (f" with exactly {exact_k} device(s)" if exact_k is not None else "")
            + " (see the audit trail)"
        )
    return best[0][2], scored[0]


def plan_partition(
    graph: LayerGraph,
    *,
    objective: str = "min-dfes",
    n_dfes: int | None = None,
    slo_fps: float | None = None,
    device: FPGASpec = STRATIX_V_5SGSD8,
    cal: ResourceCalibration = DEFAULT_RESOURCE_CAL,
    fill_cap: float = 0.8,
    link: LinkSpec = MAXRING,
    fclk_mhz: float = 105.0,
    predict: bool = True,
    audit_limit: int = 64,
) -> PartitionPlan:
    """Search the cut space and return the optimal :class:`PartitionPlan`.

    ``objective="min-dfes"`` minimizes device count under the per-device
    budgets (``device`` × ``fill_cap``) and, if given, a throughput
    ``slo_fps``; ``objective="min-latency"`` needs ``n_dfes`` and minimizes
    the predicted fill+steady latency over exactly that many devices.  The
    winner is re-scored by :func:`partition_feasibility` (it must come back
    clean) and, with ``predict=True``, replayed once for its exact timing.
    """
    if objective not in ("min-dfes", "min-latency"):
        raise ValueError(f"objective must be 'min-dfes' or 'min-latency', got {objective!r}")
    if objective == "min-latency" and (n_dfes is None or n_dfes < 1):
        raise ValueError("objective='min-latency' requires n_dfes >= 1")

    nodes = _compute_nodes(graph)
    if not nodes:
        raise PlanError(f"graph {graph.name!r} has no compute nodes to place")
    overhead = per_kernel_overhead(cal)
    infra = infrastructure_estimate(cal)
    pre_luts = [0.0]
    pre_ffs = [0.0]
    pre_bram = [0]
    for name in nodes:
        est = estimate_node(graph, name, cal).estimate + overhead
        pre_luts.append(pre_luts[-1] + est.luts)
        pre_ffs.append(pre_ffs[-1] + est.ffs)
        pre_bram.append(pre_bram[-1] + est.bram_blocks)
    model = _CostModel(
        nodes=nodes,
        pre_luts=pre_luts,
        pre_ffs=pre_ffs,
        pre_bram=pre_bram,
        infra_luts=infra.luts,
        infra_ffs=infra.ffs,
        infra_bram_kbits=infra.bram_kbits,
        budget_luts=device.luts * fill_cap,
        budget_ffs=device.ffs * fill_cap,
        budget_bram_kbits=device.bram_kbits * fill_cap,
        dev_luts=float(device.luts),
        dev_ffs=float(device.ffs),
        dev_bram_kbits=device.bram_kbits,
    )
    positions = allowed_cut_positions(graph)
    audit = _Audit(audit_limit)
    linear = not any(isinstance(node, AddNode) for node in graph.nodes.values())

    if objective == "min-dfes" and linear:
        cuts, scored = _dp_min_dfes(model, positions, audit)
    else:
        cuts, scored = _branch_and_bound(
            model,
            graph,
            set(positions),
            audit,
            exact_k=n_dfes if objective == "min-latency" else None,
            link=link,
            fclk_mhz=fclk_mhz,
        )

    partition = _cuts_to_partition(nodes, cuts)
    diags = partition_feasibility(
        graph,
        partition,
        device=device,
        cal=cal,
        fill_cap=fill_cap,
        link=link,
        fclk_mhz=fclk_mhz,
        slo_fps=slo_fps,
    )
    problems = [d for d in diags if d.severity in ("error", "warning")]
    if problems:
        for d in problems:
            audit.add(cuts, d.code, d.where, d.message)
        raise PlanError(
            "winning candidate fails static feasibility: "
            + "; ".join(f"{d.code} {d.where}: {d.message}" for d in problems)
        )

    from ..hardware.partition import partition_resources

    ledgers = [
        DeviceLedger.from_estimate(idx, group, est, device)
        for idx, (group, est) in enumerate(
            zip(partition, partition_resources(graph, partition, cal))
        )
    ]
    predicted: PredictedTiming | None = None
    if predict:
        predicted = predict_partition_timing(graph, partition, link=link, fclk_mhz=fclk_mhz)
    return PartitionPlan(
        graph_name=graph.name,
        objective=objective,
        device_name=device.name,
        fill_cap=fill_cap,
        link_name=link.name,
        fclk_mhz=fclk_mhz,
        groups=partition,
        cuts=cuts,
        ledgers=ledgers,
        predicted=predicted,
        audit=audit.entries,
        candidates_scored=scored,
        slo_fps=slo_fps,
    )


def neighbor_partitions(
    graph: LayerGraph,
    plan: PartitionPlan,
) -> list[tuple[tuple[int, ...], list[list[str]]]]:
    """Every ±1-position perturbation of the plan's cuts, as (cuts, partition).

    Each cut moves to the adjacent *allowed* position (so neighbors keep
    residual blocks whole and stay buildable/leap-eligible); perturbations
    that collide with another cut or empty a device are skipped.  This is
    the verification protocol's candidate set: simulating these must show
    the winner is no worse on the chosen objective.
    """
    nodes = _compute_nodes(graph)
    positions = allowed_cut_positions(graph)
    neighbors: list[tuple[tuple[int, ...], list[list[str]]]] = []
    seen: set[tuple[int, ...]] = {plan.cuts}
    for idx, cut in enumerate(plan.cuts):
        at = positions.index(cut)
        for step in (-1, 1):
            alt_idx = at + step
            if alt_idx < 0 or alt_idx >= len(positions):
                continue
            alt = positions[alt_idx]
            cand = tuple(sorted((*plan.cuts[:idx], alt, *plan.cuts[idx + 1 :])))
            if len(set(cand)) != len(cand) or cand in seen:
                continue
            seen.add(cand)
            neighbors.append((cand, _cuts_to_partition(nodes, cand)))
    return neighbors
