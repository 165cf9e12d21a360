"""Tests for the model zoo: topology fidelity to the paper."""

import pytest

from repro.models import (
    build_alexnet,
    build_resnet,
    build_resnet18,
    build_vgg_like,
    direct_alexnet_graph,
    direct_resnet18_graph,
    direct_vgg_graph,
)
from repro.nn import export_model
from repro.nn.graph import AddNode, ConvNode


class TestResNet18Topology:
    @pytest.fixture(scope="class")
    def graph(self):
        return direct_resnet18_graph()

    def test_table1_output_sizes(self, graph):
        """Table I: 112 -> 56 -> 28 -> 14 -> 7 -> 1."""
        assert (graph.specs["conv1"].height, graph.specs["conv1"].width) == (112, 112)
        assert graph.specs["maxpool"].height == 56
        assert graph.specs["conv2_2.bnact2"].height == 56
        assert graph.specs["conv3_2.bnact2"].height == 28
        assert graph.specs["conv4_2.bnact2"].height == 14
        assert graph.specs["conv5_2.bnact2"].height == 7
        assert graph.specs["avgpool"].height == 1

    def test_table1_channels(self, graph):
        assert graph.specs["conv2_2.bnact2"].channels == 64
        assert graph.specs["conv3_2.bnact2"].channels == 128
        assert graph.specs["conv4_2.bnact2"].channels == 256
        assert graph.specs["conv5_2.bnact2"].channels == 512
        assert graph.specs["fc"].channels == 1000

    def test_weight_count_near_11_7m(self, graph):
        """Real ResNet-18 has ~11.7M parameters; 1-bit weights = 11.7M bits."""
        assert 11e6 < graph.total_weight_bits() < 12.5e6

    def test_eight_residual_blocks(self, graph):
        adds = [n for n in graph.order if isinstance(graph.nodes[n], AddNode)]
        assert len(adds) == 16  # 2 adds per block x 8 blocks

    def test_downsampling_blocks_have_projections(self, graph):
        projections = [n for n in graph.order if n.endswith(".proj")]
        assert len(projections) == 3  # conv3_1, conv4_1, conv5_1

    def test_stride2_stages(self, graph):
        for stage in ("conv3_1", "conv4_1", "conv5_1"):
            node = graph.nodes[f"{stage}.conv1"]
            assert node.stride == 2


class TestAlexNetTopology:
    @pytest.fixture(scope="class")
    def graph(self):
        return direct_alexnet_graph()

    def test_conv1_geometry(self, graph):
        """11x11 stride 4 -> 55x55 with 96 maps."""
        spec = graph.specs["conv1"]
        assert (spec.height, spec.channels) == (55, 96)

    def test_fc_stage(self, graph):
        assert graph.specs["fc6"].channels == 4096
        assert graph.specs["fc8"].channels == 1000

    def test_weight_count_near_62m(self, graph):
        assert 60e6 < graph.total_weight_bits() < 65e6

    def test_eight_weight_layers(self, graph):
        convs = [n for n in graph.order if isinstance(graph.nodes[n], ConvNode)]
        assert len(convs) == 8


class TestVGGTopology:
    def test_block_structure(self):
        g = direct_vgg_graph(32)
        convs = [n for n in g.order if isinstance(g.nodes[n], ConvNode)]
        assert len(convs) == 9  # 6 conv + 3 fc

    def test_channel_plan(self):
        g = direct_vgg_graph(32)
        assert g.specs["conv1_2"].channels == 64
        assert g.specs["conv2_2"].channels == 128
        assert g.specs["conv3_2"].channels == 256
        assert g.specs["fc1"].channels == 512

    def test_input_size_must_divide_8(self):
        with pytest.raises(ValueError):
            direct_vgg_graph(30)

    def test_pool_to_keeps_fc_constant(self):
        g32 = direct_vgg_graph(32, pool_to=4)
        g96 = direct_vgg_graph(96, pool_to=4)
        w32 = g32.nodes["fc1"].weight_count
        w96 = g96.nodes["fc1"].weight_count
        assert w32 == w96

    def test_pool_to_for_non_divisible_feat(self):
        # 144 -> feat 18, not divisible by 4; pooling must still yield 4x4
        g = direct_vgg_graph(144, pool_to=4)
        assert g.specs["pool_fc"].height == 4


class TestDirectVsExported:
    """The direct IR builders must structurally match the exporter route."""

    def test_vgg_structure_matches(self):
        direct = direct_vgg_graph(16, width=0.0625, classes=4)
        model = build_vgg_like(input_size=16, width=0.0625, classes=4)
        model.eval()
        exported = export_model(model, (16, 16, 3))
        d_kinds = [type(direct.nodes[n]).__name__ for n in direct.order]
        e_kinds = [type(exported.nodes[n]).__name__ for n in exported.order]
        assert d_kinds == e_kinds
        d_shapes = [direct.specs[n] for n in direct.order]
        e_shapes = [exported.specs[n] for n in exported.order]
        assert d_shapes == e_shapes

    def test_resnet_structure_matches(self):
        stages = [(64, 1, 1), (128, 1, 2)]
        direct = direct_resnet18_graph(32, width=0.0625, classes=4, stages=stages)
        model = build_resnet(
            input_size=32, width=0.0625, classes=4, stages=stages,
            stem_kernel=7, stem_stride=2, stem_pool=True,
        )
        model.eval()
        exported = export_model(model, (32, 32, 3))
        d_kinds = [type(direct.nodes[n]).__name__ for n in direct.order]
        e_kinds = [type(exported.nodes[n]).__name__ for n in exported.order]
        assert d_kinds == e_kinds
        d_shapes = [(direct.specs[n].height, direct.specs[n].channels) for n in direct.order]
        e_shapes = [(exported.specs[n].height, exported.specs[n].channels) for n in exported.order]
        assert d_shapes == e_shapes


class TestBuilderValidation:
    def test_resnet_rejects_binary_activations(self):
        with pytest.raises(ValueError):
            build_resnet(act_bits=1)

    def test_alexnet_rejects_collapsing_input(self):
        with pytest.raises(ValueError):
            build_alexnet(input_size=16)

    def test_resnet18_default_is_table1(self):
        model = build_resnet18()
        assert model.name == "resnet18-224"

    def test_width_scales_channels(self):
        g = direct_vgg_graph(32, width=0.5)
        assert g.specs["conv1_1"].channels == 32
