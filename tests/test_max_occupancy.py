"""Stream high-water marks: the capacity stop equals a full scan.

``_max_occupancy`` stops scanning a bounded stream once its mark reaches
the capacity, since a push waits for the slot the pop ``capacity``
elements back frees.  The oracle is the same scan over every chunk, run
on the edge with its capacity removed.  A one-element chunk puts each
image in a chunk of its own, so the stop is taken mid-stream.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import build_pipeline
from repro.dataflow import schedule as schedule_module
from repro.dataflow.schedule import _max_occupancy, _solve
from repro.models import direct_alexnet_graph, direct_resnet18_graph, direct_vgg_graph
from tests.test_random_topologies import build_random_graph

BENCH_FAMILIES = {
    "vgg32": lambda: direct_vgg_graph(32, width=0.25, classes=10, seed=11),
    "resnet64": lambda: direct_resnet18_graph(64, width=0.125, classes=10),
    "alexnet64": lambda: direct_alexnet_graph(64, width=0.125, classes=10, fc_features=256),
}


def assert_marks_match_a_full_scan(graph, images, bounded_skips):
    spec = graph.input_spec
    zeros = np.zeros((images, spec.height, spec.width, spec.channels), dtype=np.int64)
    solution = _solve(build_pipeline(graph, zeros), bounded_skips=bounded_skips)
    for chunk in (schedule_module._CHUNK, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schedule_module, "_CHUNK", chunk)
            for edge in solution.edges.values():
                mark = _max_occupancy(solution, edge)
                assert mark == _max_occupancy(solution, dataclasses.replace(edge, capacity=None))
                assert edge.capacity is None or mark <= edge.capacity


@pytest.mark.parametrize("family", sorted(BENCH_FAMILIES))
def test_bench_families(family):
    assert_marks_match_a_full_scan(BENCH_FAMILIES[family](), 3, bounded_skips=True)


@given(st.integers(0, 2**31 - 1), st.integers(6, 10), st.integers(1, 3), st.booleans(), st.booleans())
@settings(max_examples=20, deadline=None)
def test_random_graphs(seed, size, depth, with_residual, bounded_skips):
    assert_marks_match_a_full_scan(build_random_graph(seed, size, depth, with_residual), 3, bounded_skips)
