"""The §III-B5 skip replay hands its solve to the run it sizes.

``replay_schedule`` keeps the solve of its ``REPLAY_IMAGES`` images in one
handover slot on the graph.  The next closed-loop, untraced, untelemetered
run of that geometry with more images takes it as its prefix instead of
solving again, when every skip FIFO holds at least its replay high-water
mark and every op ran within the budget.  A run that takes it must leave
exactly what the same run leaves when it solves its own prefix; a run that
may not take it solves as before, and only a closed-loop prefix run
empties the slot.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.dataflow import simulate
from repro.dataflow import schedule as schedule_module
from repro.dataflow.schedule import REPLAY_IMAGES, replay_schedule
from repro.dataflow.trace import Tracer
from repro.nn import export_model
from repro.planner import allowed_cut_positions
from repro.telemetry import Telemetry
from repro.telemetry.loadgen import make_schedule

from .conftest import make_tiny_resnet_model
from .test_schedule_run import _abort_state, observables

_SLOT = "_replay_handover"
_IMAGES = 2 * REPLAY_IMAGES


def _resnet():
    return export_model(make_tiny_resnet_model(), (16, 16, 3), name="tiny-resnet")


def _images(graph, n=_IMAGES, seed=0):
    spec = graph.input_spec
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << spec.bits, size=(n, spec.height, spec.width, spec.channels))


def _two_dfes(graph):
    """A 2-DFE split at the middle cut that keeps residual blocks whole."""
    nodes = graph.order[1:]
    cuts = allowed_cut_positions(graph)
    cut = cuts[len(cuts) // 2]
    return [nodes[:cut], nodes[cut:]]


def _marks(graph):
    return dict(replay_schedule(graph).skip_high_water)


def _count_solves(monkeypatch):
    solves = []
    original = schedule_module._solve

    def solve(*args, **kwargs):
        solves.append(kwargs.get("images"))
        return original(*args, **kwargs)

    monkeypatch.setattr(schedule_module, "_solve", solve)
    return solves


def _fill_slot(graph, handover, partition=None):
    """Replay the geometry afresh, then keep or clear the handover slot it fills."""
    for name in ("_schedule_cache", _SLOT):
        vars(graph).pop(name, None)
    replay_schedule(graph, partition)
    assert _SLOT in vars(graph)
    if not handover:
        del vars(graph)[_SLOT]


def _state(run):
    pipeline = run.pipeline
    return {
        **observables(run),
        "leap": dataclasses.asdict(run.leap_report),
        "skip_capacities": dict(pipeline.skip_capacities),
        "capacities": [stream.capacity for stream in pipeline.engine.streams],
        "crossings": len(pipeline.crossings),
    }


def _sizing(graph, case):
    if case == "above":
        return {add: mark + 3 for add, mark in _marks(graph).items()}
    if case == "deep":
        # Deeper than an image: the slot rule reaches images back, so the
        # replay's prefix is too short to certify and the run is solved whole.
        deep = 3 * max(spec.elements for spec in graph.specs.values())
        return dict.fromkeys(_marks(graph), deep)
    if case == "below":
        marks = _marks(graph)
        widest = max(marks, key=marks.get)
        return {add: mark - (add == widest) for add, mark in marks.items()}
    return "exact"


@pytest.mark.parametrize(
    ("case", "taken"),
    [
        ("none", True),
        ("two_dfes", True),
        ("bound", True),
        ("above", True),
        ("deep", True),
        ("below", False),
    ],
)
def test_handed_over_run_is_bit_identical(monkeypatch, case, taken):
    graph = _resnet()
    images = _images(graph)
    partition = _two_dfes(graph) if case == "two_dfes" else None
    sizing = "bound" if case == "bound" else _sizing(graph, case)
    solves = _count_solves(monkeypatch)
    states, counts = [], []
    for handover in (True, False):
        _fill_slot(graph, handover, partition)
        before = len(solves)
        run = simulate(graph, images, mode="leap", partition=partition, skip_sizing=sizing)
        assert "_flat" not in vars(run.pipeline.source), "the run ticked"
        assert _SLOT not in vars(graph), "a closed-loop prefix run empties the slot"
        counts.append(len(solves) - before)
        states.append(_state(run))
    assert states[0] == states[1]
    assert counts[1] - counts[0] == int(taken)
    assert (states[0]["leap"]["windows"] > 0) == (case != "deep")
    if case == "two_dfes":
        assert states[0]["crossings"] > 0


def test_budget_inside_the_prefix_falls_back(monkeypatch):
    graph = _resnet()
    images = _images(graph)
    budget = replay_schedule(graph).cycles // 2
    solves = _count_solves(monkeypatch)
    states, counts = [], []
    for handover in (True, False):
        _fill_slot(graph, handover)
        before = len(solves)
        states.append(_abort_state("leap", graph, images, budget, False))
        counts.append(len(solves) - before)
        assert _SLOT not in vars(graph)
    assert states[0] == states[1]
    assert not states[0]["ticked"]
    assert f"no convergence after {budget} cycles" in states[0]["message"]
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("hook", ["trace", "telemetry", "open_loop"])
def test_whole_runs_leave_the_slot(monkeypatch, hook):
    graph = _resnet()
    images = _images(graph)
    solves = _count_solves(monkeypatch)
    states = []
    for handover in (True, False):
        _fill_slot(graph, handover)
        kwargs = {
            "trace": {"trace": Tracer()},
            "telemetry": {"telemetry": Telemetry(sample_every=97)},
            "open_loop": {"arrival_cycles": make_schedule(_IMAGES, 2_000.0, "poisson", seed=3).cycles},
        }[hook]
        before = len(solves)
        run = simulate(graph, images, mode="leap", **kwargs)
        assert len(solves) - before == 1, "a whole run solves itself"
        assert (_SLOT in vars(graph)) == handover, "a whole run leaves the slot"
        state = _state(run)
        if hook == "trace":
            state["trace"] = kwargs["trace"].state()
        elif hook == "telemetry":
            state["telemetry"] = kwargs["telemetry"].export_prometheus()
        states.append(state)
    assert states[0] == states[1]
    assert states[0]["leap"]["demoted"]


def test_next_replay_replaces_the_slot():
    graph = _resnet()
    replay_schedule(graph)
    first = vars(graph)[_SLOT]
    partition = _two_dfes(graph)
    replay_schedule(graph, partition)
    second = vars(graph)[_SLOT]
    # The slot is keyed by the geometry's groups alone (no partition: None).
    assert first[0] is None
    assert second is not first and second[0] == tuple(map(tuple, partition))
    # A run of another geometry leaves the slot to its own.
    simulate(graph, _images(graph), mode="leap")
    assert vars(graph)[_SLOT] is second
