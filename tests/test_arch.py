import numpy as np
import pytest

from elastic_tickets import arch
from elastic_tickets.errors import ConfigError, DomainError
from elastic_tickets.tensor import Rng


class TestDerive:
    def test_resnet20_three_stages_three_units(self):
        a = arch.derive_arch("resnet_cifar", 20)
        assert [(s.width, s.units) for s in a.stages] == [(16, 3), (32, 3), (64, 3)]
        for group in arch.transform_groups(a):
            roles = [u.role for u in group]
            assert roles == [arch.ROLE_DOWNSAMPLING, arch.ROLE_NORMAL, arch.ROLE_NORMAL]

    def test_resnet32_four_normal_per_stage(self):
        a = arch.derive_arch("resnet_cifar", 32)
        assert all(s.units == 5 for s in a.stages)
        for group in arch.transform_groups(a):
            assert sum(1 for u in group if u.role == arch.ROLE_NORMAL) == 4

    def test_resnet_depth_constraint(self):
        for bad in (9, 10, 21, 0, 2):
            with pytest.raises(ConfigError, match="6n\\+2"):
                arch.derive_arch("resnet_cifar", bad)

    def test_mlp_block_family(self):
        # hidden block of n equal-width layers, so depth transforms exist
        a = arch.derive_arch("mlp", 3)
        assert a.widths == (784, 300, 300, 300, 100, 10)
        roles = [u.role for u in arch.units(a)]
        assert roles == [arch.ROLE_INPUT, arch.ROLE_NORMAL, arch.ROLE_NORMAL,
                         arch.ROLE_DOWNSAMPLING, arch.ROLE_OUTPUT]

    def test_vgg_configs(self):
        for depth, counts in ((13, (2, 2, 2, 2, 2)), (16, (2, 2, 3, 3, 3)), (19, (2, 2, 4, 4, 4))):
            a = arch.derive_arch("vgg_cifar", depth)
            assert tuple(s.units for s in a.stages) == counts
            assert tuple(s.width for s in a.stages) == (64, 128, 256, 512, 512)
        assert arch.derive_arch("vgg_cifar", 13, head_layers=5).head_widths == (512, 512, 512, 512, 10)
        with pytest.raises(ConfigError):
            arch.derive_arch("vgg_cifar", 11)

    def test_one_input_one_output(self):
        for a in (arch.derive_arch("resnet_cifar", 14), arch.derive_arch("vgg_cifar", 16),
                  arch.derive_arch("mlp", 2), arch.mlp_arch([6, 4, 2])):
            roles = [u.role for u in arch.units(a)]
            assert roles.count(arch.ROLE_INPUT) == 1
            assert roles.count(arch.ROLE_OUTPUT) == 1

    def test_derive_pure(self):
        assert arch.derive_arch("resnet_cifar", 20) == arch.derive_arch("resnet_cifar", 20)

    def test_depth_identity(self):
        # depth = 6*(units per stage) + 2, counting input conv and classifier
        for d in (8, 14, 20, 32, 44, 56):
            a = arch.derive_arch("resnet_cifar", d)
            assert 6 * a.stages[0].units + 2 == d

    def test_json_roundtrip(self):
        for a in (arch.derive_arch("resnet_cifar", 20), arch.derive_arch("vgg_cifar", 16),
                  arch.derive_arch("mlp", 4), arch.mlp_arch([5, 4, 3])):
            assert arch.arch_from_json(arch.arch_to_json(a)) == a


class TestParams:
    def test_init_bn_identity(self):
        a = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
        p = arch.init_params(a, Rng(1))
        assert np.array_equal(p["input/bn/gamma"], np.ones(16, np.float32))
        assert np.array_equal(p["input/bn/beta"], np.zeros(16, np.float32))
        assert np.array_equal(p["stage1/unit0/bn1/rvar"], np.ones(32, np.float32))

    def test_init_kaiming_std(self):
        a = arch.mlp_arch([784, 900, 100, 10])
        p = arch.init_params(a, Rng(2))
        got = p["layer0/weight"].std()
        want = np.sqrt(2.0 / 784)
        assert abs(got - want) / want < 0.05

    def test_init_conv_kaiming_std(self):
        a = arch.derive_arch("resnet_cifar", 14)
        p = arch.init_params(a, Rng(3))
        w = p["stage1/unit1/conv1/weight"]  # fan_in = 32*9
        want = np.sqrt(2.0 / (32 * 9))
        assert abs(w.std() - want) / want < 0.05

    def test_init_deterministic(self):
        a = arch.derive_arch("mlp", 2)
        p1 = arch.init_params(a, Rng(7))
        p2 = arch.init_params(a, Rng(7))
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_prunable_paths_resnet20(self):
        a = arch.derive_arch("resnet_cifar", 20)
        paths = arch.prunable_paths(a)
        # 1 input conv + 18 block convs + 2 downsampling shortcut convs + 1 fc
        assert len(paths) == 22
        assert "input/conv/weight" in paths
        assert "output/fc/weight" in paths
        assert "stage1/unit0/shortcut/weight" in paths
        assert not any("bn" in p or "bias" in p for p in paths)

    def test_prunable_paths_mlp(self):
        a = arch.derive_arch("mlp", 2)
        assert arch.prunable_paths(a) == [f"layer{k}/weight" for k in range(4)]

    def test_param_shapes_pure_function(self):
        a = arch.derive_arch("vgg_cifar", 13, head_layers=2)
        s1 = [(s.path, s.shape) for s in arch.param_specs(a)]
        s2 = [(s.path, s.shape) for s in arch.param_specs(a)]
        assert s1 == s2
        shapes = dict(s1)
        assert shapes["stage0/unit0/conv/weight"] == (64, 3, 3, 3)
        assert shapes["output/fc0/weight"] == (512, 512)
        assert shapes["output/fc1/weight"] == (512, 10)


class TestFlops:
    def test_dense_identity(self):
        a = arch.derive_arch("mlp", 2)
        assert arch.estimate_flops(a, 0.0, 1.0) == 1.0

    def test_paper_anchor(self):
        a = arch.derive_arch("resnet_cifar", 32)
        assert round(arch.estimate_flops(a, 0.7379, 5.0), 4) == 1.3105

    def test_sparsity_domain(self):
        a = arch.derive_arch("mlp", 2)
        with pytest.raises(DomainError):
            arch.estimate_flops(a, 1.0, 1.0)
        with pytest.raises(DomainError):
            arch.estimate_flops(a, -0.1, 1.0)

    def test_macs_hand_counted(self):
        # mlp: plain sum of layer products
        a = arch.mlp_arch([7, 5, 3])
        assert arch.forward_macs(a) == 7 * 5 + 5 * 3
        # resnet-8 at 8x8 input: stem + 3 stages of one downsampling unit + fc
        r = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
        stem = 8 * 8 * 16 * 3 * 9
        s0 = 8 * 8 * 16 * 16 * 9 * 2
        s1 = 4 * 4 * 32 * 16 * 9 + 4 * 4 * 32 * 32 * 9 + 4 * 4 * 32 * 16
        s2 = 2 * 2 * 64 * 32 * 9 + 2 * 2 * 64 * 64 * 9 + 2 * 2 * 64 * 32
        fc = 64 * 10
        assert arch.forward_macs(r) == stem + s0 + s1 + s2 + fc
        # vgg-16 at 32x32: 13 convs at sides 32, 16, 8, 4, 2, then the fc head
        convs = (32 * 32 * 9 * (64 * 3 + 64 * 64) + 16 * 16 * 9 * (128 * 64 + 128 * 128)
                 + 8 * 8 * 9 * (256 * 128 + 2 * 256 * 256) + 4 * 4 * 9 * (512 * 256 + 2 * 512 * 512)
                 + 2 * 2 * 9 * 3 * 512 * 512)
        assert convs + 512 * 512 * 2 + 512 * 10 == 313_725_952
        assert arch.forward_macs(arch.derive_arch("vgg_cifar", 16)) == 313_725_952
        assert arch.forward_macs(arch.derive_arch("vgg_cifar", 16, head_layers=1)) == 313_201_664

    # every preset arch and transform target; even sides, so the conv
    # output formula gives the counts that halving gave
    PRESET_MACS = {("resnet_cifar", 8): 12_501_632, ("resnet_cifar", 14): 26_657_408,
                   ("resnet_cifar", 20): 40_813_184, ("resnet_cifar", 32): 69_124_736,
                   ("resnet_cifar", 56): 125_747_840, ("mlp", 2): 356_200, ("mlp", 3): 446_200,
                   ("vgg_cifar", 13): 228_791_296, ("vgg_cifar", 19): 398_660_608}

    @pytest.mark.parametrize("family, depth", sorted(PRESET_MACS))
    def test_preset_macs_pinned(self, family, depth):
        macs = arch.forward_macs(arch.derive_arch(family, depth))
        assert macs == self.PRESET_MACS[family, depth]

    def test_ratio_between_archs(self):
        a = arch.derive_arch("mlp", 2)
        b = arch.mlp_arch([784, 300, 300, 100, 10])
        assert a.widths == b.widths
        ratio = arch.estimate_flops(a, 0.0, 1.0, reference=b)
        assert ratio == 1.0
        deeper = arch.derive_arch("mlp", 4)
        got = arch.estimate_flops(deeper, 0.0, 1.0, reference=a)
        assert got == pytest.approx(arch.forward_macs(deeper) / arch.forward_macs(a))
