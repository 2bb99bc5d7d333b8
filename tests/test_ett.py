import numpy as np
import pytest

from conftest import assert_tickets_equal, tiny_mlp_ticket, tiny_resnet_ticket
from elastic_tickets import arch, ett, nn, ticket
from elastic_tickets.errors import IncompatibilityError, UsageError
from elastic_tickets.tensor import Rng
from support import inverse


def unit_payload(t, prefix):
    pre = prefix + "/"
    w = {p[len(pre):]: t.rewind_weights[p] for p in t.rewind_weights if p.startswith(pre)}
    m = {p[len(pre):]: t.mask[p] for p in t.mask if p.startswith(pre)}
    return w, m


def payload_fingerprint(t, prefix):
    w, m = unit_payload(t, prefix)
    parts = []
    for k in sorted(w):
        parts.append((k, w[k].tobytes()))
    for k in sorted(m):
        parts.append(("mask:" + k, m[k].tobytes()))
    return tuple(parts)


class TestDefaultSpec:
    def test_resnet_20_to_32_replicates_each_normal_once(self):
        src = arch.derive_arch("resnet_cifar", 20)
        tgt = arch.derive_arch("resnet_cifar", 32)
        spec = ett.default_spec(src, tgt)
        assert spec.direction == ett.STRETCH
        assert spec.per_stage_selection == ((1, 2), (1, 2), (1, 2))

    def test_resnet_32_to_20_drops_latest(self):
        src = arch.derive_arch("resnet_cifar", 32)
        tgt = arch.derive_arch("resnet_cifar", 20)
        spec = ett.default_spec(src, tgt)
        assert spec.direction == ett.SQUEEZE
        assert spec.per_stage_selection == ((3, 4), (3, 4), (3, 4))

    def test_identity(self):
        a = arch.derive_arch("resnet_cifar", 20)
        spec = ett.default_spec(a, a)
        assert spec.per_stage_selection == ((), (), ())

    def test_uneven_replication_favors_earlier(self):
        src = arch.derive_arch("resnet_cifar", 20)   # 2 normal units per stage
        tgt = arch.derive_arch("resnet_cifar", 38)   # 5 normal units per stage
        spec = ett.default_spec(src, tgt)
        # 3 extra copies: B1 twice, B2 once
        assert spec.per_stage_selection == ((1, 1, 2),) * 3

    def test_family_mismatch(self):
        with pytest.raises(IncompatibilityError, match="famil"):
            ett.default_spec(arch.derive_arch("resnet_cifar", 20),
                             arch.derive_arch("vgg_cifar", 13))

    def test_mixed_grow_shrink_rejected(self):
        src = arch.mlp_arch([6, 4, 4, 5, 5, 2])
        tgt = arch.mlp_arch([6, 4, 4, 4, 5, 2])
        # one equal-width run grows while another shrinks
        with pytest.raises(IncompatibilityError):
            ett.default_spec(src, tgt)

    def test_no_replicable_units_rejected(self):
        src = arch.derive_arch("resnet_cifar", 8)
        tgt = arch.derive_arch("resnet_cifar", 14)
        with pytest.raises(IncompatibilityError, match="no replicable"):
            ett.default_spec(src, tgt)

    def test_width_mismatch_rejected(self):
        src = arch.mlp_arch([6, 4, 4, 2])
        tgt = arch.mlp_arch([6, 5, 5, 2])
        with pytest.raises(IncompatibilityError):
            ett.default_spec(src, tgt)


class TestStretch:
    def test_appending_order_resnet(self):
        t = tiny_resnet_ticket(depth=20, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 32, input_shape=(3, 8, 8))
        spec = ett.default_spec(t.arch, tgt, ett.APPENDING)
        out = ett.stretch(t, spec)
        assert not ticket.check_ticket(out)
        for i in range(3):
            src_units = [f"stage{i}/unit{j}" for j in range(3)]
            got = [payload_fingerprint(out, f"stage{i}/unit{j}") for j in range(5)]
            want = [payload_fingerprint(t, src_units[j]) for j in (0, 1, 2, 1, 2)]
            assert got == want

    def test_interpolation_order_resnet(self):
        t = tiny_resnet_ticket(depth=20, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 32, input_shape=(3, 8, 8))
        spec = ett.default_spec(t.arch, tgt, ett.INTERPOLATION)
        out = ett.stretch(t, spec)
        for i in range(3):
            got = [payload_fingerprint(out, f"stage{i}/unit{j}") for j in range(5)]
            want = [payload_fingerprint(t, f"stage{i}/unit{j}") for j in (0, 1, 1, 2, 2)]
            assert got == want

    def test_orderings_same_multiset(self):
        t = tiny_resnet_ticket(depth=20, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 32, input_shape=(3, 8, 8))
        a = ett.stretch(t, ett.default_spec(t.arch, tgt, ett.APPENDING))
        b = ett.stretch(t, ett.default_spec(t.arch, tgt, ett.INTERPOLATION))
        for i in range(3):
            fa = sorted(payload_fingerprint(a, f"stage{i}/unit{j}") for j in range(5))
            fb = sorted(payload_fingerprint(b, f"stage{i}/unit{j}") for j in range(5))
            assert fa == fb

    def test_invariant_components_bit_identical(self):
        t = tiny_resnet_ticket(depth=14, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 26, input_shape=(3, 8, 8))
        out = ett.stretch(t, ett.default_spec(t.arch, tgt))
        for path in ("input/conv/weight", "input/bn/gamma", "input/bn/rmean",
                     "output/fc/weight", "output/fc/bias"):
            assert np.array_equal(out.rewind_weights[path], t.rewind_weights[path])
        for i in range(3):
            assert payload_fingerprint(out, f"stage{i}/unit0") == \
                payload_fingerprint(t, f"stage{i}/unit0")

    def test_sparsity_drift_bounded_replicate_all(self):
        t = tiny_resnet_ticket(depth=20, sparsity_target=0.8, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 32, input_shape=(3, 8, 8))
        out = ett.stretch(t, ett.default_spec(t.arch, tgt))
        drift = abs(ticket.sparsity(out).overall - ticket.sparsity(t).overall)
        assert drift <= 0.01

    def test_per_stage_sparsity_is_weighted_average(self):
        t = tiny_resnet_ticket(depth=20, sparsity_target=0.7, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 44, input_shape=(3, 8, 8))
        spec = ett.default_spec(t.arch, tgt)
        out = ett.stretch(t, spec)
        src_groups = arch.transform_groups(t.arch)
        for i, group in enumerate(src_groups):
            zeros = total = 0
            sel = spec.per_stage_selection[i]
            for pos, u in enumerate(group):
                mult = 1 + sel.count(pos)
                w, m = unit_payload(t, u.prefix)
                for k, mk in m.items():
                    zeros += mult * int(mk.size - np.count_nonzero(mk))
                    total += mult * mk.size
            got = ticket.sparsity(out).per_stage[f"stage{i}"]
            assert (got[0], got[1]) == (zeros, total)

    def test_mask_permute_mode(self):
        t = tiny_resnet_ticket(depth=14, sparsity_target=0.6, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 20, input_shape=(3, 8, 8))
        spec = ett.default_spec(t.arch, tgt, ett.APPENDING, ett.MASK_PERMUTE)
        out = ett.stretch(t, spec, Rng(5))
        # originals untouched
        for i in range(3):
            assert payload_fingerprint(out, f"stage{i}/unit1") == \
                payload_fingerprint(t, f"stage{i}/unit1")
        # replicas: same per-tensor counts, different layout (whp), masked weights
        changed = 0
        for prefix in ett.replica_prefixes(spec):
            src_prefix = prefix.split("/")[0] + "/unit1"
            _, m_src = unit_payload(t, src_prefix)
            w_out, m_out = unit_payload(out, prefix)
            for k in m_src:
                assert int(np.count_nonzero(m_out[k])) == int(np.count_nonzero(m_src[k]))
                if not np.array_equal(m_out[k], m_src[k]):
                    changed += 1
                assert np.array_equal(w_out[k.replace("mask:", "")] * m_out[k],
                                      w_out[k.replace("mask:", "")])
        assert changed > 0
        assert not ticket.check_ticket(out)

    def test_permute_requires_rng(self):
        t = tiny_resnet_ticket(depth=14, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 20, input_shape=(3, 8, 8))
        spec = ett.default_spec(t.arch, tgt, ett.APPENDING, ett.MASK_PERMUTE)
        with pytest.raises(UsageError):
            ett.stretch(t, spec)

    def test_wrong_direction_rejected(self):
        t = tiny_resnet_ticket(depth=20, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 14, input_shape=(3, 8, 8))
        spec = ett.default_spec(t.arch, tgt)
        with pytest.raises(UsageError):
            ett.stretch(t, spec)

    def test_provenance_history_appends(self):
        t = tiny_mlp_ticket(widths=(8, 6, 6, 4, 2))
        mid = arch.mlp_arch([8, 6, 6, 6, 4, 2])
        top = arch.mlp_arch([8, 6, 6, 6, 6, 4, 2])
        s1 = ett.default_spec(t.arch, mid)
        out1 = ett.stretch(t, s1)
        out2 = ett.stretch(out1, ett.default_spec(mid, top))
        hist = out2.provenance["transform_history"]
        assert len(hist) == 2
        assert hist[0]["target_arch"]["widths"] == list(mid.widths)
        assert hist[1]["target_arch"]["widths"] == list(top.widths)

    @pytest.mark.parametrize("mode", [ett.MASK_COPY, ett.MASK_PERMUTE])
    def test_result_shares_no_memory(self, mode):
        """Replicas and passthrough tensors are new arrays: editing the result
        leaves the source, and the other replicas, unchanged."""
        small, big = (tiny_resnet_ticket(depth=d, input_side=8) for d in (14, 20))
        pairs = [(small, ett.stretch(small, ett.default_spec(
                     small.arch, big.arch, replicated_mask_mode=mode), Rng(2))),
                 (big, ett.squeeze(big, ett.default_spec(big.arch, small.arch)))]
        for source, out in pairs:
            arrays = [*source.rewind_weights.values(), *source.mask.values(),
                      *out.rewind_weights.values(), *out.mask.values()]
            for i, x in enumerate(arrays):
                assert not any(np.shares_memory(x, y) for y in arrays[i + 1:])


class TestSqueeze:
    def test_survivors_bit_identical(self):
        t = tiny_resnet_ticket(depth=32, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 20, input_shape=(3, 8, 8))
        out = ett.squeeze(t, ett.default_spec(t.arch, tgt))
        for i in range(3):
            for j in (0, 1, 2):
                assert payload_fingerprint(out, f"stage{i}/unit{j}") == \
                    payload_fingerprint(t, f"stage{i}/unit{j}")

    def test_non_consecutive_drop_legal(self):
        t = tiny_resnet_ticket(depth=32, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 20, input_shape=(3, 8, 8))
        spec = ett.TransformSpec(direction=ett.SQUEEZE,
                                 per_stage_selection=((2, 4), (2, 4), (2, 4)),
                                 ordering=None, replicated_mask_mode=ett.MASK_COPY,
                                 target_arch=tgt)
        out = ett.squeeze(t, spec)
        assert not ticket.check_ticket(out)
        for i in range(3):
            got = [payload_fingerprint(out, f"stage{i}/unit{j}") for j in range(3)]
            want = [payload_fingerprint(t, f"stage{i}/unit{j}") for j in (0, 1, 3)]
            assert got == want

    def test_drop_downsampling_rejected(self):
        t = tiny_resnet_ticket(depth=20, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 14, input_shape=(3, 8, 8))
        spec = ett.TransformSpec(direction=ett.SQUEEZE,
                                 per_stage_selection=((0,), (0,), (0,)),
                                 ordering=None, replicated_mask_mode=ett.MASK_COPY,
                                 target_arch=tgt)
        with pytest.raises(IncompatibilityError, match="invariant role"):
            ett.squeeze(t, spec)

    def test_wrong_slot_count_rejected(self):
        t = tiny_resnet_ticket(depth=20, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 8, input_shape=(3, 8, 8))
        spec = ett.TransformSpec(direction=ett.SQUEEZE,
                                 per_stage_selection=((1,), (1,), (1,)),
                                 ordering=None, replicated_mask_mode=ett.MASK_COPY,
                                 target_arch=tgt)
        with pytest.raises(IncompatibilityError):
            ett.squeeze(t, spec)


class TestInverse:
    def test_appending_positions(self):
        src = arch.derive_arch("resnet_cifar", 20)
        tgt = arch.derive_arch("resnet_cifar", 32)
        spec = ett.default_spec(src, tgt, ett.APPENDING)
        inv = inverse(spec)
        assert inv.direction == ett.SQUEEZE
        assert inv.per_stage_selection == ((3, 4), (3, 4), (3, 4))
        assert inv.target_arch == src

    def test_interpolation_positions(self):
        src = arch.derive_arch("resnet_cifar", 20)
        tgt = arch.derive_arch("resnet_cifar", 32)
        spec = ett.default_spec(src, tgt, ett.INTERPOLATION)
        assert inverse(spec).per_stage_selection == ((2, 4), (2, 4), (2, 4))

    def test_identity_inverse(self):
        a = arch.derive_arch("resnet_cifar", 20)
        spec = ett.default_spec(a, a)
        inv = inverse(spec)
        assert inv.per_stage_selection == ((), (), ())
        assert inv.target_arch == a

    def test_inverse_of_squeeze_rejected(self):
        src = arch.derive_arch("resnet_cifar", 32)
        spec = ett.default_spec(src, arch.derive_arch("resnet_cifar", 20))
        with pytest.raises(UsageError):
            inverse(spec)

    @pytest.mark.parametrize("ordering", [ett.APPENDING, ett.INTERPOLATION])
    def test_roundtrip_bit_exact_resnet(self, ordering):
        t = tiny_resnet_ticket(depth=14, sparsity_target=0.55, input_side=8)
        tgt = arch.derive_arch("resnet_cifar", 32, input_shape=(3, 8, 8))
        spec = ett.default_spec(t.arch, tgt, ordering)
        back = ett.squeeze(ett.stretch(t, spec), inverse(spec))
        assert_tickets_equal(back, t)

    @pytest.mark.parametrize("ordering", [ett.APPENDING, ett.INTERPOLATION])
    def test_roundtrip_bit_exact_mlp(self, ordering):
        t = tiny_mlp_ticket(widths=(8, 6, 6, 4, 2), sparsity_target=0.4)
        tgt = arch.mlp_arch([8, 6, 6, 6, 6, 4, 2])
        spec = ett.default_spec(t.arch, tgt, ordering)
        back = ett.squeeze(ett.stretch(t, spec), inverse(spec))
        assert_tickets_equal(back, t)


class TestMlpAndVgg:
    def test_mlp_block_stretch_shapes_and_forward(self, blob_data):
        train_ds, _ = blob_data
        t = tiny_mlp_ticket(widths=(12, 10, 10, 6, 4))
        tgt = arch.mlp_arch([12, 10, 10, 10, 6, 4])
        out = ett.stretch(t, ett.default_spec(t.arch, tgt))
        logits, _ = nn.forward(tgt, out.rewind_weights, train_ds.images[:8], "eval")
        assert logits.shape == (8, 4)

    def test_vgg_conv_stretch_13_to_16(self):
        src = arch.derive_arch("vgg_cifar", 13, input_shape=(3, 32, 32))
        tgt = arch.derive_arch("vgg_cifar", 16, input_shape=(3, 32, 32))
        spec = ett.default_spec(src, tgt)
        # stages 2..4 gain one conv each; head unchanged
        assert spec.per_stage_selection == ((), (), (1,), (1,), (1,), ())
        weights = arch.init_params(src, Rng(4))
        from elastic_tickets import prune
        mask = prune.magnitude_prune(weights, ticket.all_ones_mask(src), 0.5, src)
        t = ticket.make_ticket(src, weights, mask, 0, {"method": "imp"})
        out = ett.stretch(t, spec)
        assert not ticket.check_ticket(out)
        x = Rng(5).normal64("init", 2 * 3 * 32 * 32).reshape(2, 3, 32, 32).astype(np.float32)
        logits, _ = nn.forward(tgt, out.rewind_weights, x, "eval")
        assert logits.shape == (2, 10)

    def test_vgg_head_transfer_2_to_3(self):
        src = arch.derive_arch("vgg_cifar", 13, head_layers=2, input_shape=(3, 32, 32))
        tgt = arch.derive_arch("vgg_cifar", 13, head_layers=3, input_shape=(3, 32, 32))
        spec = ett.default_spec(src, tgt)
        assert spec.per_stage_selection == ((), (), (), (), (), (0,))
        weights = arch.init_params(src, Rng(6))
        t = ticket.make_ticket(src, weights, ticket.all_ones_mask(src), 0, {"method": "imp"})
        out = ett.stretch(t, spec)
        assert np.array_equal(out.rewind_weights["output/fc0/weight"],
                              out.rewind_weights["output/fc1/weight"])
        assert np.array_equal(out.rewind_weights["output/fc2/weight"],
                              t.rewind_weights["output/fc1/weight"])

    def test_spec_json_roundtrip(self):
        src = arch.derive_arch("resnet_cifar", 20)
        tgt = arch.derive_arch("resnet_cifar", 32)
        spec = ett.default_spec(src, tgt, ett.INTERPOLATION, ett.MASK_PERMUTE)
        assert ett.TransformSpec.from_json(spec.to_json()) == spec
