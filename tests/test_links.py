"""Direct tests for the inter-chip link models (dataflow/links.py).

MaxRing is the one inter-DFE link.  A crossing fits it when
``link_utilization(required Mbps) <= 1``, i.e. at most MaxRing's 4,000 Mbps:
a 38-bit stream at 105 MHz (3,990 Mbps) fits, a 39-bit one (4,095 Mbps)
does not.  The boundary cases below run through every place that applies
that rule — the verifier's V501/V502 link budget (directly, through
``partition_feasibility`` and through ``verify_pipeline`` on a built
2-DFE pipeline) and ``PartitionResult.link_feasible`` — and check that
they agree.  A crossing at exactly 4,000 Mbps fits: a strict comparator
anywhere fails these tests.
"""

import dataclasses

import numpy as np
import pytest

from repro.dataflow import build_pipeline, verify_pipeline
from repro.dataflow.links import (
    MAX4_FABRIC_MHZ,
    MAXRING,
    MAXRING_MBPS,
    PCIE_GEN2_X8,
    LinkCrossing,
    link_utilization,
    partition_crossings,
    required_bandwidth_mbps,
)
from repro.dataflow.verify import _link_budget, partition_feasibility
from repro.hardware.device import STRATIX_V_5SGSD8
from repro.hardware.partition import PartitionResult, allowed_cut_positions
from repro.models import direct_vgg_graph
from tests.test_planner import FAMILIES


def budget_fits(mbps: float) -> bool:
    """No V501 from the verifier's budget; ``PartitionResult.link_feasible`` must agree."""
    crossing = LinkCrossing(("u", "v"), mbps)
    verdict = all(d.code != "V501" for d in _link_budget([crossing]))
    result = PartitionResult(
        groups=[], per_dfe=[], crossings=[crossing], device=STRATIX_V_5SGSD8, fill_cap=0.8
    )
    assert result.link_feasible() == verdict
    return verdict


def supports(stream_bits: int) -> bool:
    """Whether MaxRing carries one ``stream_bits`` element per clock."""
    return budget_fits(required_bandwidth_mbps(stream_bits))


def utilization(mbps: float) -> float:
    """The utilization the verifier reports for one crossing of ``mbps``."""
    (diag,) = _link_budget([LinkCrossing(("u", "v"), mbps)])
    assert diag.data["utilization"] == link_utilization(mbps)
    return float(diag.data["utilization"])


def widened_vgg(bits: int):
    """VGG split after pool1, its one crossing (pool1 -> conv2_1) hand-widened to ``bits``."""
    graph = direct_vgg_graph(16, width=0.0625, classes=4)
    nodes = list(graph.order[1:])
    partition = [nodes[:3], nodes[3:]]
    graph.specs["pool1"] = dataclasses.replace(graph.specs["pool1"], bits=bits)
    return graph, partition


def graph_fits(bits: int) -> bool:
    """No V501 for the widened crossing, from each place that applies the rule; all must agree."""
    graph, partition = widened_vgg(bits)
    (crossing,) = partition_crossings(graph, partition)
    assert crossing == LinkCrossing(("pool1", "conv2_1"), bits * MAX4_FABRIC_MHZ)
    static = {d.code for d in partition_feasibility(graph, partition)}
    spec = graph.input_spec
    zeros = np.zeros((1, spec.height, spec.width, spec.channels), dtype=np.int64)
    built = verify_pipeline(build_pipeline(graph, zeros, partition=partition)).codes()
    fits = "V501" not in static
    assert fits == ("V501" not in built) == budget_fits(crossing.required_mbps), (static, built)
    # A crossing that fits reports its headroom instead.
    assert ("V502" in static) == ("V502" in built) == fits
    return fits


class TestRequiredBandwidth:
    def test_paper_case_2bit_at_105mhz_is_210_mbps(self):
        """§III-B6: a 2-bit stream at 105 MHz needs exactly 210 Mbps."""
        assert MAX4_FABRIC_MHZ == 105.0
        assert required_bandwidth_mbps(2) == pytest.approx(210.0)

    def test_zero_width_stream_needs_no_bandwidth(self):
        assert required_bandwidth_mbps(0) == 0.0

    def test_scales_linearly_in_bits(self):
        base = required_bandwidth_mbps(2)
        assert required_bandwidth_mbps(4) == pytest.approx(2 * base)
        assert required_bandwidth_mbps(16) == pytest.approx(8 * base)


class TestLinkSpecSupports:
    def test_maxring_supports_the_paper_stream(self):
        assert supports(2)

    def test_exact_capacity_boundary_is_supported(self):
        """Support is inclusive: demand == MaxRing's 4,000 Mbps still fits."""
        assert MAXRING_MBPS == 4000.0
        assert budget_fits(MAXRING_MBPS)
        assert not budget_fits(MAXRING_MBPS + 1.0)

    def test_bits_boundary_just_over_capacity_fails(self):
        # 38 bits * 105 MHz = 3,990 Mbps fits 4 Gbps; 39 bits = 4,095 Mbps does not.
        assert required_bandwidth_mbps(38) == 3990.0
        assert required_bandwidth_mbps(39) == 4095.0
        assert supports(38)
        assert not supports(39)

    def test_zero_width_stream_supported_by_any_link(self):
        assert supports(0)

    def test_partition_feasibility_applies_the_boundary(self):
        """The same 38/39-bit boundary through the partition scorer and a built pipeline."""
        assert graph_fits(2)
        assert graph_fits(38)
        assert not graph_fits(39)


class TestLinkSpecUtilization:
    def test_paper_utilization_is_about_five_percent(self):
        """210 Mbps over a 4 Gbps MaxRing: ~5% used, ~19x headroom."""
        util = utilization(required_bandwidth_mbps(2))
        assert util == pytest.approx(210.0 / 4000.0)
        assert util < 0.06

    def test_utilization_one_at_exact_capacity(self):
        assert utilization(MAXRING_MBPS) == 1.0
        assert utilization(required_bandwidth_mbps(38)) < 1.0

    def test_zero_width_stream_has_zero_utilization(self):
        assert utilization(required_bandwidth_mbps(0)) == 0.0

    def test_pcie_has_more_headroom_than_maxring(self):
        assert PCIE_GEN2_X8.bandwidth_gbps > MAXRING.bandwidth_gbps


def _single_cuts():
    for family in sorted(FAMILIES):
        for cut in allowed_cut_positions(FAMILIES[family]()):
            yield pytest.param(family, cut, id=f"{family}-{cut}")


@pytest.mark.parametrize(("family", "cut"), list(_single_cuts()))
def test_pipeline_crossings_are_the_partition_crossings(family, cut):
    """The built pipeline crosses MaxRing on exactly ``partition_crossings``' edges, in its order."""
    graph = FAMILIES[family]()
    nodes = list(graph.order[1:])
    partition = [nodes[:cut], nodes[cut:]]
    spec = graph.input_spec
    zeros = np.zeros((1, spec.height, spec.width, spec.channels), dtype=np.int64)
    pipeline = build_pipeline(graph, zeros, partition=partition, skip_sizing="bound")
    crossings = partition_crossings(graph, partition)
    assert crossings and pipeline.crossings == crossings
    linked = [s for s in pipeline.engine.streams if s.latency]
    edges = [tuple(s.name.split("[")[0].split("->")) for s in linked]
    assert edges == [c.edge for c in crossings]
    for stream in linked:
        assert stream.latency == MAXRING.latency_cycles
        assert stream.capacity >= 2 * MAXRING.latency_cycles + 4
