import tracemalloc

import numpy as np
import pytest

from conftest import tiny_mlp_ticket
import oracles
from elastic_tickets import arch, nn, prune, ticket
from elastic_tickets.errors import ConfigError, DomainError
from elastic_tickets.tensor import Rng
from support import randint_below


def small_mlp(widths=(8, 6, 4)):
    a = arch.mlp_arch(list(widths))
    return a, arch.init_params(a, Rng(3))


class TestMagnitude:
    def test_hand_case(self):
        a = arch.mlp_arch([4, 1])
        weights = {"layer0/weight": np.array([[3.0], [-1.0], [2.0], [-4.0]], np.float32),
                   "layer0/bias": np.zeros(1, np.float32)}
        mask = ticket.all_ones_mask(a)
        out = prune.magnitude_prune(weights, mask, 0.5, a)
        assert out["layer0/weight"].ravel().tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_noop_at_current_sparsity(self):
        t = tiny_mlp_ticket(sparsity_target=0.5)
        rep = ticket.sparsity(t)
        out = prune.magnitude_prune(t.rewind_weights, t.mask, rep.zeros, t.arch)
        for p in t.mask:
            assert np.array_equal(out[p], t.mask[p])

    def test_below_current_rejected(self):
        t = tiny_mlp_ticket(sparsity_target=0.5)
        with pytest.raises(DomainError):
            prune.magnitude_prune(t.rewind_weights, t.mask, 0.1, t.arch)

    def test_infeasible_target(self):
        a, weights = small_mlp()
        with pytest.raises(DomainError):
            prune.magnitude_prune(weights, ticket.all_ones_mask(a), 1.0, a)

    def test_matches_full_sort_oracle(self):
        for i in range(100):
            rng = Rng(4000 + i)
            a, weights = small_mlp((5 + i % 3, 6, 3))
            total = sum(weights[p].size for p in arch.prunable_paths(a))
            for p in arch.prunable_paths(a):
                weights[p] = rng.normal64("init", weights[p].size).astype(np.float32).reshape(weights[p].shape)
            target = randint_below(rng, "init", total)
            got = prune.magnitude_prune(weights, ticket.all_ones_mask(a), int(target), a)
            ref = oracles.oracle_global_prune(
                [(p, weights[p].ravel()) for p in arch.prunable_paths(a)], int(target))
            for p in arch.prunable_paths(a):
                assert np.array_equal(got[p].ravel(), ref[p]), (i, p)

    def test_oracle_agreement_with_existing_mask(self):
        for i in range(30):
            rng = Rng(6000 + i)
            a, weights = small_mlp()
            paths = arch.prunable_paths(a)
            mask = {p: (rng.uniform64("init", weights[p].size) > 0.3)
                    .astype(np.float32).reshape(weights[p].shape) for p in paths}
            current = sum(int(m.size - np.count_nonzero(m)) for m in mask.values())
            total = sum(m.size for m in mask.values())
            target = current + randint_below(rng, "init", total - current)
            got = prune.magnitude_prune(weights, mask, int(target), a)
            ref = oracles.oracle_global_prune(
                [(p, weights[p].ravel()) for p in paths], int(target),
                alive={p: mask[p] for p in paths})
            for p in paths:
                assert np.array_equal(got[p].ravel(), ref[p])

    def test_tie_break_all_equal(self):
        a = arch.mlp_arch([3, 2])
        weights = {"layer0/weight": np.ones((3, 2), np.float32),
                   "layer0/bias": np.zeros(2, np.float32)}
        out = prune.magnitude_prune(weights, ticket.all_ones_mask(a), 2, a)
        # earlier flat positions kept first on full ties
        assert out["layer0/weight"].ravel().tolist() == [1, 1, 1, 1, 0, 0]


def lexsort_keep_first(keys, alive, keep):
    """Reference ranking: a full sort by (key, position) of the alive entries."""
    idx = np.nonzero(alive)[0]
    order = np.lexsort((idx, keys[idx]))
    mask = np.zeros(keys.shape[0], dtype=np.float32)
    mask[idx[order[:keep]]] = 1.0
    return mask


class TestKeepFirstMask:
    """Selection gives the mask of the full (key, position) sort."""

    @staticmethod
    def keys_with_ties(seed, n, dtype):
        rng = np.random.default_rng(seed)
        values = np.array([-3.0, -1.5, -0.0, 0.0, 0.25, 2.0, np.nan], dtype=dtype)
        keys = values[rng.integers(0, values.size - (seed % 2), n)]  # odd seeds: no NaN
        alive = rng.random(n) < (1.0 if seed % 3 == 0 else 0.7)
        return keys, alive

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_lexsort_on_every_keep(self, seed, dtype):
        keys, alive = self.keys_with_ties(seed, 60, dtype)
        for keep in range(int(alive.sum()) + 1):
            assert np.array_equal(prune._keep_first_mask(keys, alive, keep),
                                  lexsort_keep_first(keys, alive, keep)), keep

    def test_keep_on_a_tie_takes_earliest_positions(self):
        keys = np.array([1.0, 0.0, 1.0, -0.0, 1.0, 2.0, 1.0])
        alive = np.array([1, 1, 1, 1, 0, 1, 1], dtype=bool)
        got = prune._keep_first_mask(keys, alive, 4)
        assert got.tolist() == [1, 1, 1, 1, 0, 0, 0]  # both zeros, then 1.0 at 0 and 2

    def test_split_returns_views_of_the_flat_mask(self):
        shapes = {"a": (2, 3), "b": (4,)}
        flat = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1], dtype=np.float32)
        out = prune._split(flat, ["a", "b"], shapes)
        assert out["a"].tolist() == [[1, 0, 1], [1, 0, 0]] and out["b"].tolist() == [1, 0, 1, 1]
        assert all(m.dtype == np.float32 and np.shares_memory(m, flat) for m in out.values())
        cast = prune._split(flat.astype(np.float64), ["a", "b"], shapes)
        assert all(m.dtype == np.float32 for m in cast.values())

    def test_continuous_keys_with_nan(self):
        rng = np.random.default_rng(5)
        keys = rng.standard_normal(5000).astype(np.float32)
        keys[rng.integers(0, 5000, 300)] = np.nan
        keys[rng.integers(0, 5000, 300)] = 0.0
        alive = rng.random(5000) < 0.8
        for keep in (0, 1, 1000, 2500, int(np.count_nonzero(alive & ~np.isnan(keys))),
                     int(alive.sum()) - 1, int(alive.sum())):
            assert np.array_equal(prune._keep_first_mask(keys, alive, keep),
                                  lexsort_keep_first(keys, alive, keep)), keep


class TestSnip:
    def test_zero_weight_zero_grad_pruned_first(self, blob_data):
        train_ds, _ = blob_data
        a, weights = small_mlp((12, 6, 4))
        weights["layer0/weight"][0, :] = 0.0  # dead input row: zero saliency
        batch = (train_ds.images[:16], train_ds.labels[:16])
        mask = prune.snip_prune(a, weights, batch, 6)
        assert mask["layer0/weight"][0].sum() == 0

    def test_positive_scale_invariance(self, blob_data):
        train_ds, _ = blob_data
        a, weights = small_mlp((12, 6, 4))
        batch = (train_ds.images[:16], train_ds.labels[:16])
        m1 = prune.snip_prune(a, weights, batch, 0.5, loss_scale=1.0)
        m2 = prune.snip_prune(a, weights, batch, 0.5, loss_scale=7.3)
        for p in m1:
            assert np.array_equal(m1[p], m2[p])

    def test_ranking_matches_fd_saliency(self, blob_data):
        # 2-layer mlp, ~30 weights: |theta * dL/dtheta| vs finite differences
        train_ds, _ = blob_data
        a = arch.mlp_arch([12, 2, 4])
        weights = {k: v.astype(np.float64) for k, v in arch.init_params(a, Rng(8)).items()}
        x, y = train_ds.images[:16].astype(np.float64), train_ds.labels[:16]
        saliency = prune.snip_saliency(a, weights, (x, y))
        for p in arch.prunable_paths(a):
            def loss_of(th, p=p):
                pp = dict(weights)
                pp[p] = th.reshape(weights[p].shape)
                return nn.loss_and_grad(a, pp, x, y, "train")[0]
            g_fd = oracles.oracle_fd_grad(loss_of, weights[p].copy().ravel(), 1e-5)
            fd_sal = np.abs(weights[p].ravel() * g_fd)
            assert np.array_equal(np.argsort(-saliency[p].ravel(), kind="stable"),
                                  np.argsort(-fd_sal, kind="stable"))


class TestGrasp:
    def test_hvp_exact_on_quadratic(self):
        rng = Rng(9)
        n = 6
        m = rng.normal64("init", n * n).reshape(n, n)
        a_mat = m @ m.T + np.eye(n)  # SPD
        theta = rng.normal64("init", n)
        hg = prune.hvp_forward_diff(lambda th: a_mat @ th, theta)
        want = a_mat @ (a_mat @ theta)
        assert np.linalg.norm(hg - want) / np.linalg.norm(want) <= 1e-3

    def test_eps_doubling_stable_on_quadratic(self):
        # on an exactly quadratic loss the forward-difference HVP is exact, so
        # the induced keep set cannot move when eps doubles
        rng = Rng(10)
        n = 12
        m = rng.normal64("init", n * n).reshape(n, n)
        a_mat = m @ m.T + 2.0 * np.eye(n)
        theta = rng.normal64("init", n)
        exact = a_mat @ (a_mat @ theta)
        keep = 5
        masks = []
        for eps in (1e-2, 2e-2):
            hg = prune.hvp_forward_diff(lambda th: a_mat @ th, theta, eps_scale=eps)
            assert np.linalg.norm(hg - exact) / np.linalg.norm(exact) <= 1e-3
            scores = theta * hg
            masks.append(prune._keep_first_mask(scores, np.ones(n, dtype=bool), keep))
        assert np.array_equal(masks[0], masks[1])

    def test_positive_scale_invariance(self, blob_data):
        # scale-invariant ranking: v = g scales, eps shrinks, Hg and theta*Hg scale together
        train_ds, _ = blob_data
        a, weights = small_mlp((12, 6, 4))
        batch = (train_ds.images[:16], train_ds.labels[:16])
        m1 = prune.grasp_prune(a, weights, batch, 0.5, loss_scale=1.0)
        m2 = prune.grasp_prune(a, weights, batch, 0.5, loss_scale=3.7)
        for p in m1:
            assert np.array_equal(m1[p], m2[p])

    def test_zero_weights_degenerate_matches_magnitude_tiebreak(self, blob_data):
        train_ds, _ = blob_data
        a, weights = small_mlp((12, 6, 4))
        zero = {k: np.zeros_like(v) for k, v in weights.items()}
        batch = (train_ds.images[:16], train_ds.labels[:16])
        g_mask = prune.grasp_prune(a, zero, batch, 20)
        m_mask = prune.magnitude_prune(zero, ticket.all_ones_mask(a), 20, a)
        for p in g_mask:
            assert np.array_equal(g_mask[p], m_mask[p])


class TestRandomReinitMatch:
    def test_random_preserves_per_path_counts(self):
        t = tiny_mlp_ticket(seed=2, sparsity_target=0.6)
        out = prune.random_prune(t, Rng(5))
        for p in t.mask:
            assert int(np.count_nonzero(out.mask[p])) == int(np.count_nonzero(t.mask[p]))
        assert ticket.sparsity(out).overall == ticket.sparsity(t).overall
        assert not ticket.check_ticket(out)

    def test_random_all_ones_path_fixed_point(self):
        t = tiny_mlp_ticket(seed=2, sparsity_target=0.0)
        out = prune.random_prune(t, Rng(5))
        for p in t.mask:
            assert np.array_equal(out.mask[p], t.mask[p])

    def test_random_uses_dense_rewind_for_new_survivors(self):
        t = tiny_mlp_ticket(seed=2, sparsity_target=0.6)
        a = t.arch
        dense = arch.init_params(a, Rng(2))
        out = prune.random_prune(t, Rng(5), dense_rewind=dense)
        for p in t.mask:
            assert np.array_equal(out.rewind_weights[p], dense[p] * out.mask[p])

    def test_match_sparsity_contract(self, blob_data):
        train_ds, _ = blob_data
        ref = tiny_mlp_ticket(seed=1, sparsity_target=0.8926)
        dense = arch.init_params(ref.arch, Rng(1))
        batch = (train_ds.images[:16], train_ds.labels[:16])
        ref_zeros = ticket.sparsity(ref).zeros
        for method in ("magnitude", "snip", "grasp", "random", "reinit"):
            out = prune.match_sparsity(method, ref, dense, batch, Rng(7))
            assert abs(ticket.sparsity(out).zeros - ref_zeros) <= 1, method
            assert not ticket.check_ticket(out), method

    def test_reinit_mask_identical(self, blob_data):
        ref = tiny_mlp_ticket(seed=1, sparsity_target=0.5)
        out = prune.match_sparsity("reinit", ref, arch.init_params(ref.arch, Rng(1)), None, Rng(7))
        for p in ref.mask:
            assert np.array_equal(out.mask[p], ref.mask[p])

    def test_one_shot_magnitude_equals_direct_call(self):
        ref = tiny_mlp_ticket(seed=1, sparsity_target=0.5)
        dense = arch.init_params(ref.arch, Rng(1))
        out = prune.match_sparsity("magnitude", ref, dense, None, None)
        direct = prune.magnitude_prune(dense, ticket.all_ones_mask(ref.arch),
                                       ticket.sparsity(ref).zeros, ref.arch)
        for p in direct:
            assert np.array_equal(out.mask[p], direct[p])

    def test_unknown_method(self):
        ref = tiny_mlp_ticket()
        with pytest.raises(ConfigError):
            prune.match_sparsity("synflow", ref, {}, None, None)


class TestImp:
    def test_single_round_prunes_floor(self, blob_data):
        train_ds, test_ds = blob_data
        a = arch.mlp_arch([12, 10, 4])
        cfg = prune.ImpConfig(rate=0.2, rounds=1, rewind_step=2,
                              train=nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=3))
        res = prune.imp_run(a, train_ds, test_ds, cfg)
        total = ticket.sparsity(res.tickets[0]).total
        assert ticket.sparsity(res.tickets[0]).zeros == int(np.floor(0.2 * total))

    def test_masks_nested_and_sparsity_follows_closed_form(self, blob_data):
        train_ds, test_ds = blob_data
        a = arch.mlp_arch([12, 10, 4])
        cfg = prune.ImpConfig(rate=0.3, rounds=5, rewind_step=2,
                              train=nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=3))
        res = prune.imp_run(a, train_ds, test_ds, cfg)
        prev = None
        total = ticket.sparsity(res.tickets[0]).total
        for k, t in enumerate(res.tickets, start=1):
            rep = ticket.sparsity(t)
            assert abs(rep.overall - (1 - 0.7 ** k)) <= k / total
            if prev is not None:
                for p in t.mask:
                    assert np.all(prev.mask[p] >= t.mask[p])  # pruning only removes
            prev = t
            assert t.provenance["imp_round"] == k

    def test_rewind_weights_shared_across_rounds(self, blob_data):
        train_ds, test_ds = blob_data
        a = arch.mlp_arch([12, 10, 4])
        cfg = prune.ImpConfig(rate=0.2, rounds=3, rewind_step=4,
                              train=nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=3))
        res = prune.imp_run(a, train_ds, test_ds, cfg)
        for t in res.tickets:
            for p in t.mask:
                assert np.array_equal(t.rewind_weights[p], res.dense_rewind[p] * t.mask[p])

    def test_rewind_zero_resets_to_init(self, blob_data):
        train_ds, test_ds = blob_data
        a = arch.mlp_arch([12, 10, 4])
        cfg = prune.ImpConfig(rate=0.2, rounds=1, rewind_step=0,
                              train=nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=3))
        res = prune.imp_run(a, train_ds, test_ds, cfg)
        theta0 = arch.init_params(a, Rng(3))
        for p in theta0:
            assert np.array_equal(res.dense_rewind[p], theta0[p])

    def test_too_many_rounds_rejected_before_running(self, blob_data):
        train_ds, test_ds = blob_data
        a = arch.mlp_arch([4, 3, 2])
        cfg = prune.ImpConfig(rate=0.5, rounds=10, rewind_step=0,
                              train=nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=3))
        with pytest.raises(DomainError, match="round"):
            prune.imp_run(a, train_ds, test_ds, cfg)

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            prune.ImpConfig(rate=0.0, rounds=1, rewind_step=0,
                            train=nn.TrainConfig(epochs=1, batch_size=1, lr=0.1))
        with pytest.raises(ConfigError):
            prune.ImpConfig(rate=1.0, rounds=1, rewind_step=0,
                            train=nn.TrainConfig(epochs=1, batch_size=1, lr=0.1))

    def test_rewind_step_must_be_reachable(self, blob_data):
        train_ds, test_ds = blob_data
        a = arch.mlp_arch([12, 10, 4])
        cfg = prune.ImpConfig(rate=0.2, rounds=1, rewind_step=10_000,
                              train=nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=3))
        with pytest.raises(ConfigError, match="rewind_step"):
            prune.imp_run(a, train_ds, test_ds, cfg)

    def test_deterministic(self, blob_data):
        train_ds, test_ds = blob_data
        a = arch.mlp_arch([12, 10, 4])
        cfg = prune.ImpConfig(rate=0.2, rounds=2, rewind_step=2,
                              train=nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=3))
        r1 = prune.imp_run(a, train_ds, test_ds, cfg)
        r2 = prune.imp_run(a, train_ds, test_ds, cfg)
        for t1, t2 in zip(r1.tickets, r2.tickets):
            for p in t1.mask:
                assert np.array_equal(t1.mask[p], t2.mask[p])
                assert np.array_equal(t1.rewind_weights[p], t2.rewind_weights[p])


def test_magnitude_prune_peak_memory_on_vgg16():
    """The global ranking holds a few flat copies of the prunable weights, not
    the index arrays of every alive weight."""
    a = arch.derive_arch("vgg_cifar", 16)
    w = arch.init_params(a, Rng(4))
    m = ticket.all_ones_mask(a)
    n = sum(int(m[p].size) for p in arch.prunable_paths(a))
    flat_f32 = 4 * n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = prune.magnitude_prune(w, m, 0.5, a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sum(int(v.size - np.count_nonzero(v)) for v in out.values()) == round(0.5 * n)
    assert peak <= 6 * flat_f32, peak / flat_f32
