"""Tests for the hardware cost models: resources, timing, power, GPU, partition."""

import numpy as np
import pytest

from repro.hardware import (
    GTX1080,
    P100,
    STRATIX_10_PROJECTION,
    STRATIX_V_5SGSD8,
    FPGAPowerModel,
    GPUModel,
    estimate_network,
    estimate_network_timing,
    gpu_launch_count,
    kernel_timing,
    m20k_blocks,
    network_macs,
    partition_network,
    weight_cache_blocks,
)
from repro.models import (
    direct_alexnet_graph,
    direct_resnet18_graph,
    direct_vgg_graph,
)
from repro.nn.graph import ConvNode

RNG = np.random.default_rng(9)


def signs(shape):
    return (RNG.integers(0, 2, size=shape) * 2 - 1).astype(np.int8)


@pytest.fixture(scope="module")
def vgg32():
    return direct_vgg_graph(32, pool_to=4)


@pytest.fixture(scope="module")
def vgg96():
    return direct_vgg_graph(96, pool_to=4)


@pytest.fixture(scope="module")
def resnet18():
    return direct_resnet18_graph()


@pytest.fixture(scope="module")
def alexnet():
    return direct_alexnet_graph()


class TestM20KGeometry:
    def test_single_block_cases(self):
        assert m20k_blocks(40, 512) == 1
        assert m20k_blocks(1, 16384) == 1

    def test_width_tiling(self):
        assert m20k_blocks(80, 512) == 2
        assert m20k_blocks(41, 512) == 2

    def test_depth_tiling(self):
        assert m20k_blocks(40, 1024) == 2

    def test_picks_best_configuration(self):
        # 20 bits x 1024 fits one block in 1024x20 mode, not two in 512x40.
        assert m20k_blocks(20, 1024) == 1

    def test_zero(self):
        assert m20k_blocks(0, 100) == 0


class TestWeightCache:
    def test_waste_at_least_25pct_when_shallow(self):
        """§III-B1a: min depth 512 vs at most 384 entries wastes >= 25%."""
        for o in (64, 128, 256, 384):
            node = ConvNode("c", signs((3, 3, 64, o)))
            _, waste = weight_cache_blocks(node)
            assert waste >= 0.25 - 1e-9, f"O={o}: waste {waste}"

    def test_full_depth_is_efficient(self):
        node = ConvNode("c", signs((1, 1, 40, 512)))
        blocks, waste = weight_cache_blocks(node)
        assert blocks == 1 and waste < 1e-9

    def test_blocks_scale_with_width(self):
        small = weight_cache_blocks(ConvNode("a", signs((3, 3, 16, 64))))[0]
        large = weight_cache_blocks(ConvNode("b", signs((3, 3, 64, 64))))[0]
        assert large > small


class TestResourceEstimation:
    def test_paper_calibration_points(self, vgg32, resnet18):
        """Calibrated model must stay pinned to Tables III/IV."""
        r32 = estimate_network(vgg32).total
        assert abs(r32.luts - 133887) / 133887 < 0.05
        assert abs(r32.ffs - 278501) / 278501 < 0.05
        assert abs(r32.bram_kbits - 11020) / 11020 < 0.05
        rrn = estimate_network(resnet18).total
        assert abs(rrn.luts - 596081) / 596081 < 0.05
        assert abs(rrn.ffs - 1175373) / 1175373 < 0.05
        assert abs(rrn.bram_kbits - 30854) / 30854 < 0.05

    def test_figure6_growth_is_small(self, vgg32, vgg96):
        """Figure 6: ~5% growth from 32x32 to 96x96."""
        a = estimate_network(vgg32).total
        b = estimate_network(vgg96).total
        assert (b.luts / a.luts - 1) < 0.10
        assert (b.ffs / a.ffs - 1) < 0.10
        assert (b.bram_kbits / a.bram_kbits - 1) < 0.10

    def test_resnet_fewer_bram_than_alexnet(self, resnet18, alexnet):
        """Table III: ResNet needs fewer BRAMs (no big FC layers)."""
        assert (
            estimate_network(resnet18).total.bram_kbits
            < estimate_network(alexnet).total.bram_kbits
        )

    def test_resnet_more_luts_than_alexnet(self, resnet18, alexnet):
        assert estimate_network(resnet18).total.luts > estimate_network(alexnet).total.luts

    def test_utilization_fractions(self, vgg32):
        util = estimate_network(vgg32).utilization(STRATIX_V_5SGSD8)
        assert 0 < util["lut"] < 1 and 0 < util["ff"] < 1 and 0 < util["bram"] < 1

    def test_monotone_in_input_size(self):
        sizes = (32, 64, 96)
        luts = [estimate_network(direct_vgg_graph(s, pool_to=4)).total.luts for s in sizes]
        assert luts == sorted(luts)


class TestTimingModel:
    def test_conv_cycle_formula(self, vgg32):
        """scan + emits, exactly as the kernel behaves."""
        t = kernel_timing(vgg32, "conv1_1")
        assert t.cycles_per_image == 34 * 34 * 3 + 32 * 32 * 64

    def test_pool_is_scan_bound(self, vgg32):
        t = kernel_timing(vgg32, "pool1")
        assert t.cycles_per_image == 32 * 32 * 64

    def test_interval_is_bottleneck(self, vgg32):
        timing = estimate_network_timing(vgg32)
        assert timing.interval_cycles == max(t.cycles_per_image for t in timing.per_kernel)

    def test_latency_at_least_bottleneck(self, vgg32):
        timing = estimate_network_timing(vgg32)
        assert timing.latency_cycles >= timing.interval_cycles

    def test_sequential_exceeds_latency(self, resnet18):
        """Streaming overlap beats run-to-completion scheduling."""
        timing = estimate_network_timing(resnet18)
        assert timing.overlap_speedup > 2.0

    def test_resnet_clocks_per_picture_order_of_magnitude(self, resnet18):
        """§IV-B4: the paper estimates ~1.85e6 clocks; ours must be same order."""
        timing = estimate_network_timing(resnet18)
        assert 5e5 < timing.latency_cycles < 4e6

    def test_stratix10_projection(self, resnet18):
        """5x clock -> 5x faster (the paper projects 3-4 ms)."""
        timing = estimate_network_timing(resnet18)
        fast = timing.at_clock(STRATIX_10_PROJECTION.fabric_mhz)
        assert np.isclose(fast.latency_ms, timing.latency_ms / 5)
        assert fast.latency_ms < 4.0

    def test_realtime_requirement(self, resnet18, alexnet, vgg32):
        """Conclusion: 'more than 60 fps for all types of inputs'."""
        for g in (resnet18, alexnet, vgg32):
            assert estimate_network_timing(g).throughput_fps > 60

    def test_multidfe_adds_only_link_latency(self, vgg32):
        base = estimate_network_timing(vgg32)
        names = [n for n in vgg32.order if n != vgg32.input_name]
        half = len(names) // 2
        part = [names[:half], names[half:]]
        split = estimate_network_timing(vgg32, partition=part)
        assert split.interval_cycles == base.interval_cycles
        assert 0 < split.latency_cycles - base.latency_cycles <= 4 * 16

    def test_fclk_scaling(self, vgg32):
        t = estimate_network_timing(vgg32, fclk_mhz=105.0)
        assert np.isclose(t.latency_ms, t.latency_cycles / 105e3)


class TestPowerModel:
    def test_vgg32_power_near_12w(self, vgg32):
        """Table IVa: the single-DFE design draws ~12 W."""
        power = FPGAPowerModel(STRATIX_V_5SGSD8).power(estimate_network(vgg32))
        assert 10.0 < power.total_w < 14.0

    def test_power_grows_with_dfes(self, alexnet):
        pm = FPGAPowerModel(STRATIX_V_5SGSD8)
        r = estimate_network(alexnet)
        assert pm.power(r, n_dfes=3).total_w > pm.power(r, n_dfes=1).total_w

    def test_power_scales_with_clock(self, vgg32):
        pm = FPGAPowerModel(STRATIX_V_5SGSD8)
        r = estimate_network(vgg32)
        assert pm.power(r, fclk_mhz=210.0).dynamic_w == pytest.approx(
            2 * pm.power(r, fclk_mhz=105.0).dynamic_w
        )

    def test_energy_per_image(self, vgg32):
        pm = FPGAPowerModel(STRATIX_V_5SGSD8)
        rep = pm.power(estimate_network(vgg32))
        assert rep.energy_per_image_j(10.0) == pytest.approx(rep.total_w * 0.01)


class TestGPUModel:
    def test_macs_resnet18(self, resnet18):
        """ResNet-18 at 224x224 is ~1.8 GMACs."""
        assert 1.6e9 < network_macs(resnet18) < 2.0e9

    def test_launch_counts(self, vgg32, alexnet, resnet18):
        assert gpu_launch_count(vgg32) == 12  # 9 conv/fc + 3 pool
        assert gpu_launch_count(alexnet) == 11
        assert gpu_launch_count(resnet18) == 23

    def test_dfe_beats_gpu_at_32(self, vgg32):
        """Figure 5: our network is faster than the GPU at 32x32."""
        dfe_ms = estimate_network_timing(vgg32).latency_ms
        gpu_ms = GPUModel(P100).time_per_image(vgg32).per_image_ms
        assert dfe_ms < gpu_ms

    def test_gpu_beats_dfe_at_224(self, resnet18):
        dfe_ms = estimate_network_timing(resnet18).latency_ms
        gpu_ms = GPUModel(P100).time_per_image(resnet18).per_image_ms
        assert gpu_ms < dfe_ms

    def test_minibatch_amortisation(self, resnet18):
        """'Modern GPUs can process at least 128-256 inputs with very small
        inference time degradation' — per-image time falls with batch."""
        m = GPUModel(P100)
        t1 = m.time_per_image(resnet18, batch=1).per_image_s
        t128 = m.time_per_image(resnet18, batch=128).per_image_s
        assert t128 < t1

    def test_layer_count_sensitivity(self, resnet18, alexnet):
        """GPU time grows with layer count (the paper's +42.5% argument)."""
        m = GPUModel(P100)
        ratio = (
            m.time_per_image(resnet18).per_image_ms / m.time_per_image(alexnet).per_image_ms
        )
        assert ratio > 1.3

    def test_power_at_least_8x_dfe(self, vgg32):
        gpu_w = GPUModel(P100).power_w()
        dfe_w = FPGAPowerModel(STRATIX_V_5SGSD8).power(estimate_network(vgg32)).total_w
        assert gpu_w / dfe_w > 8

    def test_energy_ratio_direction(self, vgg32):
        """Figure 8: FPGA energy per image is lower."""
        dfe_t = estimate_network_timing(vgg32)
        dfe_e = FPGAPowerModel(STRATIX_V_5SGSD8).power(estimate_network(vgg32)).energy_per_image_j(
            dfe_t.latency_ms
        )
        gpu_e = GPUModel(P100).energy_per_image_j(vgg32)
        assert gpu_e > 2 * dfe_e

    def test_invalid_batch(self, vgg32):
        with pytest.raises(ValueError):
            GPUModel(P100).time_per_image(vgg32, batch=0)

    def test_gtx1080_slower_than_p100(self, resnet18):
        assert (
            GPUModel(GTX1080).time_per_image(resnet18).per_image_ms
            > GPUModel(P100).time_per_image(resnet18).per_image_ms
        )


class TestPartitioner:
    def test_alexnet_needs_three_dfes(self, alexnet):
        """Abstract: AlexNet runs on three FPGAs."""
        assert partition_network(alexnet).n_dfes == 3

    def test_resnet_needs_two_dfes(self, resnet18):
        """Abstract: ResNet-18 runs on two FPGAs."""
        assert partition_network(resnet18).n_dfes == 2

    def test_vgg_fits_one_dfe_up_to_144(self):
        """Conclusion: 'for inputs up to 144x144 ... fits a single FPGA'."""
        for size in (32, 96, 144):
            g = direct_vgg_graph(size, pool_to=4)
            assert partition_network(g).n_dfes == 1, f"size {size}"

    def test_partition_respects_fill_cap(self, resnet18):
        part = partition_network(resnet18)
        for i in range(part.n_dfes):
            util = part.utilization(i)
            assert max(util.values()) <= part.fill_cap + 1e-9

    def test_groups_cover_all_nodes(self, resnet18):
        part = partition_network(resnet18)
        covered = {n for g in part.groups for n in g}
        expected = set(resnet18.nodes) - {resnet18.input_name}
        assert covered == expected

    def test_groups_contiguous_in_topo_order(self, resnet18):
        part = partition_network(resnet18)
        order = [n for n in resnet18.order if n != resnet18.input_name]
        flat = [n for g in part.groups for n in g]
        assert flat == order

    def test_residual_blocks_atomic(self, resnet18):
        """Skip streams never cross DFEs."""
        part = partition_network(resnet18)
        dfe_of = {}
        for i, g in enumerate(part.groups):
            for n in g:
                dfe_of[n] = i
        from repro.nn.graph import AddNode

        for name in resnet18.order:
            if isinstance(resnet18.nodes[name], AddNode):
                for p in resnet18.parents(name):
                    if p != resnet18.input_name:
                        assert dfe_of[p] == dfe_of[name]

    def test_link_feasible(self, resnet18):
        """§III-B6: every crossing fits MaxRing bandwidth (210 Mbps needed)."""
        part = partition_network(resnet18)
        assert part.link_feasible()
        for crossing in part.crossings:
            assert crossing.required_mbps == pytest.approx(210.0)

    def test_greedy_split_is_pinned(self, alexnet, resnet18):
        """The greedy cuts themselves, not only the DFE counts: Table III's splits."""
        assert [len(g) for g in partition_network(alexnet).groups] == [8, 1, 2]
        assert [len(g) for g in partition_network(resnet18).groups] == [40, 15]

    def test_impossible_partition_raises(self, resnet18):
        from repro.hardware import FPGASpec

        tiny_device = FPGASpec("tiny", alms=1000, m20k_blocks=10, ffs=1000, fabric_mhz=105, static_power_w=1)
        with pytest.raises(ValueError):
            partition_network(resnet18, device=tiny_device)


class TestDeviceSpecs:
    def test_table2_fpga(self):
        assert STRATIX_V_5SGSD8.alms == 262400
        assert STRATIX_V_5SGSD8.m20k_blocks == 2567
        assert STRATIX_V_5SGSD8.ffs == 1_050_000

    def test_table2_gpus(self):
        assert P100.cuda_cores == 3584 and P100.core_clock_mhz == 1480
        assert GTX1080.cuda_cores == 2560 and GTX1080.core_clock_mhz == 1733

    def test_stratix10_is_5x_clock(self):
        assert STRATIX_10_PROJECTION.fabric_mhz == 5 * STRATIX_V_5SGSD8.fabric_mhz

    def test_peak_flops(self):
        assert P100.peak_fp32_gflops == pytest.approx(2 * 3584 * 1.48, rel=1e-3)
