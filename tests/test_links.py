"""Direct tests for the inter-chip link models (dataflow/links.py).

A link supports a stream when the stream's ``required_bandwidth_mbps`` is
at most the link's capacity, ``bandwidth_gbps * 1000`` Mbps.  The boundary
cases below run through the two places that apply that rule: the
verifier's V501/V502 link budget and ``PartitionResult.link_feasible``.
"""

import pytest

from repro.dataflow.links import MAX4_FABRIC_MHZ, MAXRING, PCIE_GEN2_X8, LinkSpec, required_bandwidth_mbps
from repro.dataflow.verify import _link_budget, partition_feasibility
from repro.hardware.device import STRATIX_V_5SGSD8
from repro.hardware.partition import PartitionResult
from repro.models import direct_vgg_graph


def crossing_findings(link: LinkSpec, stream_bits: int):
    """The verifier's V501/V502 findings for one crossing of ``stream_bits``."""
    return _link_budget([(("u", "v"), link, required_bandwidth_mbps(stream_bits))])


def supports(link: LinkSpec, stream_bits: int) -> bool:
    """No V501 for the crossing; ``PartitionResult.link_feasible`` must agree."""
    verdict = all(d.code != "V501" for d in crossing_findings(link, stream_bits))
    result = PartitionResult(
        groups=[],
        per_dfe=[],
        crossings=[("u", "v", required_bandwidth_mbps(stream_bits))],
        device=STRATIX_V_5SGSD8,
        fill_cap=0.8,
    )
    assert result.link_feasible(link) == verdict
    return verdict


def utilization(link: LinkSpec, stream_bits: int) -> float:
    """The utilization the verifier reports for the crossing."""
    (diag,) = crossing_findings(link, stream_bits)
    return float(diag.data["utilization"])


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
        assert supports(MAXRING, 2)

    def test_exact_capacity_boundary_is_supported(self):
        """Support is inclusive: demand == capacity still fits."""
        link = LinkSpec(name="test", bandwidth_gbps=0.210, latency_cycles=1)
        assert supports(link, 2)
        assert not supports(link, 3)

    def test_bits_boundary_just_over_capacity_fails(self):
        link = LinkSpec(name="test", bandwidth_gbps=1.0, latency_cycles=1)
        # 9 bits * 105 MHz = 945 Mbps fits 1 Gbps; 10 bits = 1050 Mbps does not.
        assert supports(link, 9)
        assert not supports(link, 10)

    def test_zero_width_stream_supported_by_any_link(self):
        tiny = LinkSpec(name="tiny", bandwidth_gbps=0.001, latency_cycles=1)
        assert supports(tiny, 0)

    def test_partition_feasibility_applies_the_boundary(self):
        """Every VGG crossing is a 2-bit, 210 Mbps stream: a 210 Mbps link fits it."""
        graph = direct_vgg_graph(16, width=0.0625, classes=4)
        nodes = list(graph.order[1:])
        partition = [nodes[:3], nodes[3:]]
        exact = LinkSpec(name="exact", bandwidth_gbps=0.210, latency_cycles=1)
        short = LinkSpec(name="short", bandwidth_gbps=0.209, latency_cycles=1)
        exact_codes = {d.code for d in partition_feasibility(graph, partition, link=exact)}
        short_codes = {d.code for d in partition_feasibility(graph, partition, link=short)}
        assert "V501" not in exact_codes and "V502" in exact_codes
        assert "V501" in short_codes


class TestLinkSpecUtilization:
    def test_paper_utilization_is_about_five_percent(self):
        """210 Mbps over a 4 Gbps MaxRing: ~5% used, ~19x headroom."""
        util = utilization(MAXRING, 2)
        assert util == pytest.approx(210.0 / 4000.0)
        assert util < 0.06

    def test_utilization_one_at_exact_capacity(self):
        link = LinkSpec(name="test", bandwidth_gbps=0.210, latency_cycles=1)
        assert utilization(link, 2) == pytest.approx(1.0)

    def test_zero_width_stream_has_zero_utilization(self):
        assert utilization(MAXRING, 0) == 0.0

    def test_pcie_has_more_headroom_than_maxring(self):
        assert utilization(PCIE_GEN2_X8, 2) < utilization(MAXRING, 2)
