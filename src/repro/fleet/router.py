"""Host-side admission routing: which replica serves the next image.

The router runs on the host, ahead of the shared PCIe ingress, and decides
from *host-observable* state only: how many images it has dispatched to
each replica and a calibrated service model (first-image latency plus the
steady-state completion interval from a closed-loop profiling run, whose
solved prefix is extended by the period).  It never peeks at
cycle-exact fabric state — that is what keeps replica simulations
independent of each other between router decisions, which in turn is what
lets the fleet layer run replicas on a worker pool and still produce
byte-identical reports.

Three policies, the classic ladder:

* ``rr`` — round-robin, the zero-knowledge baseline;
* ``jsq`` — join-shortest-queue over the virtual outstanding count (the
  host's estimate of images dispatched but not yet completed);
* ``batch`` — JSQ at batch granularity: keep ``batch`` consecutive images
  on one replica before re-evaluating, trading queue balance for longer
  uninterrupted steady-state windows on each replica (the regime the
  fabric likes best).

All tie-breaks are by lowest replica index, so every policy is a pure
function of the arrival sequence — deterministic by construction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

__all__ = ["POLICIES", "ReplicaState", "Router", "make_router"]


@dataclass(slots=True)
class ReplicaState:
    """The host's virtual queue model of one replica.

    ``interval_cycles`` is the replica's profiled steady-state completion
    interval; an image that queues behind in-flight work pipelines and is
    modeled as one interval of occupancy starting when the replica frees
    up.  An image that finds the replica *drained* (fabric arrival at or
    past ``busy_until``) must refill the pipeline and pays the full
    ``latency_cycles`` instead — charging the fill only once would make
    sporadically-fed replicas look faster than they are.
    """

    index: int
    latency_cycles: int
    interval_cycles: float
    busy_until: float = 0.0
    dispatched: int = 0
    _est_completions: list[float] = field(default_factory=list)

    def outstanding(self, cycle: int) -> int:
        """Virtual queue depth: dispatched images not yet (estimated) done."""
        return self.dispatched - bisect_right(self._est_completions, float(cycle))

    def on_dispatch(self, fabric_arrival: int) -> None:
        """Account one image routed here, arriving on-fabric at ``fabric_arrival``."""
        start = max(float(fabric_arrival), self.busy_until)
        # A drained pipeline refills (full latency); queued images pipeline
        # behind in-flight ones (one steady-state interval each).
        drained = float(fabric_arrival) >= self.busy_until
        service = float(self.latency_cycles) if drained else self.interval_cycles
        self.busy_until = start + max(1.0, service)
        self._est_completions.append(self.busy_until)
        self.dispatched += 1


class Router:
    """Base class: subclasses implement :meth:`choose`."""

    name = "base"

    def choose(self, request: int, arrival: int, states: list[ReplicaState]) -> int:
        raise NotImplementedError


class RoundRobinRouter(Router):
    name = "rr"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, request: int, arrival: int, states: list[ReplicaState]) -> int:
        chosen = self._next
        self._next = (self._next + 1) % len(states)
        return chosen


class JoinShortestQueueRouter(Router):
    name = "jsq"

    def choose(self, request: int, arrival: int, states: list[ReplicaState]) -> int:
        return min(states, key=lambda s: (s.outstanding(arrival), s.index)).index


class BatchAwareRouter(Router):
    """JSQ at batch granularity: re-route only every ``batch`` images."""

    name = "batch"

    def __init__(self, batch: int = 4) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch!r}")
        self.batch = batch
        self._current: int | None = None
        self._filled = 0

    def choose(self, request: int, arrival: int, states: list[ReplicaState]) -> int:
        if self._current is None or self._filled >= self.batch:
            self._current = min(
                states, key=lambda s: (s.outstanding(arrival), s.index)
            ).index
            self._filled = 0
        self._filled += 1
        return self._current


POLICIES = ("rr", "jsq", "batch", "static")


def make_router(policy: str, batch: int = 4) -> Router:
    """Instantiate a routing policy by name (``static`` has no router)."""
    if policy == "rr":
        return RoundRobinRouter()
    if policy == "jsq":
        return JoinShortestQueueRouter()
    if policy == "batch":
        return BatchAwareRouter(batch)
    raise ValueError(
        f"policy must be one of {POLICIES[:-1]} (static pre-partitions traffic "
        f"without a router), got {policy!r}"
    )
