import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from elastic_tickets import nn
from elastic_tickets.errors import ConfigError
from elastic_tickets.tensor import Rng, SUBSTREAMS, _apply_swaps, _gf2_mul
from support import draw


def int_valued(rng, shape, lo=-8, hi=8):
    """Random float32 tensors with integer values: exact under any summation order."""
    u = rng.uniform64("init", int(np.prod(shape)))
    return np.floor(u * (hi - lo) + lo).astype(np.float32).reshape(shape)


class TestRng:
    def test_same_seed_bitwise_identical(self):
        a = draw(Rng(123), "init", 1000, "standard-normal")
        b = draw(Rng(123), "init", 1000, "standard-normal")
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(draw(Rng(1), "init", 100), draw(Rng(2), "init", 100))

    def test_substreams_independent(self):
        r = Rng(5)
        base = draw(Rng(5), "data-order", 64)
        draw(r, "init", 1000)
        draw(r, "augmentation", 17)
        assert np.array_equal(draw(r, "data-order", 64), base)

    def test_stream_splitting_uniform(self):
        r = Rng(9)
        parts = np.concatenate([draw(r, "init", 5), draw(r, "init", 5)])
        assert np.array_equal(parts, draw(Rng(9), "init", 10))

    def test_stream_splitting_normal_odd_counts(self):
        r = Rng(9)
        parts = np.concatenate([r.normal64("init", 5), r.normal64("init", 5)])
        assert np.array_equal(parts, Rng(9).normal64("init", 10))

    def test_empty_draw(self):
        assert draw(Rng(1), "init", 0).shape == (0,)

    def test_unknown_substream(self):
        with pytest.raises(ConfigError, match="unknown rng substream"):
            draw(Rng(1), "nope", 3)

    def test_unknown_distribution(self):
        with pytest.raises(ConfigError):
            draw(Rng(1), "init", 3, "cauchy")

    def test_uniform_moments(self):
        u = Rng(7).uniform64("init", 100_000)
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.01

    def test_normal_moments(self):
        z = Rng(11).normal64("init", 100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_permutation_is_permutation(self):
        for n in (0, 1, 2, 17, 100):
            p = Rng(3).permutation("data-order", n)
            assert sorted(p.tolist()) == list(range(n))

    def test_permutation_deterministic(self):
        assert np.array_equal(Rng(3).permutation("data-order", 50),
                              Rng(3).permutation("data-order", 50))

    def test_draws_finite(self):
        for dist in ("uniform01", "standard-normal"):
            v = draw(Rng(13), "init", 10_000, dist)
            assert np.isfinite(v).all()

    # Captured from the pure-Python xoshiro256** generator. Words and
    # permutations are exact integer arithmetic on every platform; normals
    # pass through the platform's log1p/cos/sin, hence the ulp-level rtol.
    KNOWN = {
        0: ([0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0, 0x6AA594F1262D2D2C],
            [-0.01896499060631051, -1.3559302271143727, -0.40372109705088766,
             0.23335097938940202, 1.6251100012755157, -0.0025686863690826036,
             -1.0212488312794932],
            [5, 3, 17, 1, 2, 13, 15, 19, 12, 0, 4, 14, 10, 18, 6, 8, 11, 9, 16, 7]),
        20211: ([0xD99078009A528CB3, 0x1F0BC531B670530E, 0xAD2B5C377EF395AD, 0x9F641FCF6FEB660A],
                [1.408885590424219, 1.3444048755676017, -1.0780076458260053,
                 -1.0462593871052326, 0.39045864275435177, -0.41517103475369904,
                 -0.6920084633436573],
                [18, 7, 19, 6, 13, 17, 0, 11, 10, 3, 14, 16, 8, 9, 1, 4, 12, 5, 15, 2]),
    }

    @pytest.mark.parametrize("seed", sorted(KNOWN))
    def test_known_answers(self, seed):
        words, normals, perm = self.KNOWN[seed]
        assert Rng(seed)._next_block("init", 4) == words
        assert np.array_equal(Rng(seed).uniform64("init", 4),
                              np.array([w >> 11 for w in words], dtype=np.float64) * 2.0 ** -53)
        r = Rng(seed)
        got = np.concatenate([r.normal64("init", 5), r.normal64("init", 2)])  # 6th is banked
        np.testing.assert_allclose(got, normals, rtol=1e-13, atol=0)
        assert Rng(seed).permutation("data-order", 20).tolist() == perm

    def test_substream_registry_stable(self):
        # seeding is positional: every registered name yields a distinct stream
        outs = [Rng(1).uniform64(name, 4).tolist() for name in SUBSTREAMS]
        assert len({tuple(o) for o in outs}) == len(SUBSTREAMS)

    # sha256 of the little-endian bytes, then the next 4 words of the same
    # substream; captured from the one-word-at-a-time loop generator. Both are
    # exact integer and IEEE arithmetic, so they hold on every platform.
    KNOWN_LARGE = {
        0: ("bbe51edc22d2224020b616a718db2494e9434e687a8f1c95452eafe33e018aa6",
            [0x3AF8255EE3B8E1AD, 0x9A02EF951FDB0A5F, 0xCEBC68F8A4237B24, 0xA5D255B85F144A96],
            "b630f8370524bdb6398d5f6f41a9f4fb25f2b999074c0d9f67f60ac28353a259",
            [0xB85D4D930EE8346F, 0xCAEC44BE36FD29D7, 0x7988FC4A30CAD11B, 0x2E1C7AE0424D94FE]),
        20211: ("94543d9bdb95620c4938bcf7e9105841ab83f7a6727129d70c3e91d1f6e8d47a",
                [0x5B1EB42E647EE01E, 0x7189036EDE3E9385, 0x56BD63FF4DBC7629, 0xF592CD0D762F5BC9],
                "91f24d85f90af3580a3e257472b5fc0cc7b474c9da8d1d30025971141c3e1388",
                [0xCEED55BBD1D8ED02, 0x23F8BA4307597FC2, 0x0F9A267B1D815B9D, 0xD6C141A6CE7F7188]),
    }

    @pytest.mark.parametrize("seed", sorted(KNOWN_LARGE))
    def test_known_answers_at_real_sizes(self, seed):
        u_sha, u_next, p_sha, p_next = self.KNOWN_LARGE[seed]
        r = Rng(seed)
        u = r.uniform64("init", (1 << 20) + 37)
        assert hashlib.sha256(u.astype("<f8").tobytes()).hexdigest() == u_sha
        assert r._next_block("init", 4) == u_next
        p = r.permutation("mask-permutation", 100_003)
        assert hashlib.sha256(p.astype("<i8").tobytes()).hexdigest() == p_sha
        assert r._next_block("mask-permutation", 4) == p_next


class LoopRng(Rng):
    """The reference generator: every word from the ``_next_block`` loop and
    the Fisher-Yates swaps in a scalar loop, as before the lane path."""

    def uniform64(self, substream, n):
        words = np.array(self._next_block(substream, n), dtype=np.uint64)
        return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def permutation(self, substream, n):
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        u = self.uniform64(substream, n - 1)
        for i in range(n - 1, 0, -1):
            j = min(int(u[n - 1 - i] * (i + 1)), i)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


LANES = 2048


class TestLanePath:
    """The lane-parallel path gives the loop's words, order and final state."""

    @staticmethod
    def assert_same_state(a, b, substream):
        assert a._states.get(substream) == b._states.get(substream)
        assert a._normal_spare == b._normal_spare

    @pytest.mark.parametrize("n", [1, 2047, 8 * LANES - 1, 8 * LANES, 8 * LANES + 1,
                                   9 * LANES + LANES - 1, 13 * LANES + 5, 30_011])
    @pytest.mark.parametrize("seed", [0, 77])
    def test_uniform_matches_loop(self, seed, n):
        fast, loop = Rng(seed), LoopRng(seed)
        assert np.array_equal(fast.uniform64("augmentation", n), loop.uniform64("augmentation", n))
        self.assert_same_state(fast, loop, "augmentation")

    def test_mixed_draws_on_one_substream(self):
        fast, loop = Rng(3), LoopRng(3)
        for n in (5, 8 * LANES + 3, 1, 0, 9 * LANES, 100, 8 * LANES - 1, 10 * LANES + 17, 2):
            assert np.array_equal(fast.uniform64("init", n), loop.uniform64("init", n)), n
        self.assert_same_state(fast, loop, "init")
        assert fast._next_block("init", 4) == loop._next_block("init", 4)

    def test_odd_normal_requests_with_banked_spare(self):
        fast, loop = Rng(11), LoopRng(11)
        for n in (7, 8 * LANES + 1, 1, 2 * 8 * LANES - 1, 3, 20_001, 16_384):
            assert np.array_equal(fast.normal64("init", n), loop.normal64("init", n)), n
            self.assert_same_state(fast, loop, "init")

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 8 * LANES + 1, 20_000])
    def test_permutation_matches_loop(self, n):
        fast, loop = Rng(21), LoopRng(21)
        assert np.array_equal(fast.permutation("data-order", n), loop.permutation("data-order", n))
        self.assert_same_state(fast, loop, "data-order")


class TestGf2Mul:
    """Parity by integer AND gives what ``np.remainder`` of the GEMM gave."""

    @staticmethod
    def reference(a, b):
        return np.remainder(a @ b, 2.0)

    @pytest.mark.parametrize("rows", [1, 7, 256, 2048])
    def test_random_bit_matrices(self, rows):
        u = Rng(rows).uniform64("init", (rows + 256) * 256)
        bits = (u < 0.5).astype(np.float32)
        a, b = bits[: rows * 256].reshape(rows, 256), bits[rows * 256 :].reshape(256, 256)
        got = _gf2_mul(a, b)
        assert got.dtype == np.float32
        assert np.array_equal(got, self.reference(a, b))

    def test_all_ones_sums_reach_256(self):
        ones = np.ones((256, 256), dtype=np.float32)
        assert np.array_equal(_gf2_mul(ones, ones), self.reference(ones, ones))
        assert not _gf2_mul(ones, ones).any()  # every sum is 256, even
        odd = ones[:, :255]
        assert np.array_equal(_gf2_mul(odd, odd.T), self.reference(odd, odd.T))
        assert _gf2_mul(odd, odd.T).all()  # every sum is 255, odd


def sequential_swaps(js):
    """The Fisher-Yates swap loop on a Python list: step k swaps i = n-1-k with js[k]."""
    n = len(js) + 1
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), js):
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def reference_permutation(seed, substream, n):
    """(permutation, final state) from the word loop, scalar j and the swap loop."""
    loop = LoopRng(seed)
    if n < 2:
        return list(range(n)), loop._states.get(substream)
    u = loop.uniform64(substream, n - 1).tolist()
    js = [min(int(u[n - 1 - i] * (i + 1)), i) for i in range(n - 1, 0, -1)]
    return sequential_swaps(js), loop._states.get(substream)


class TestPermutationSwaps:
    """``permutation`` and ``_apply_swaps`` give what the sequential swaps give."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 2048, 2049, 100_003, 356_200])
    def test_permutation_matches_sequential_swaps(self, n):
        perm, state = reference_permutation(5, "mask-permutation", n)
        r = Rng(5)
        got = r.permutation("mask-permutation", n)
        assert got.dtype == np.int64
        assert got.tolist() == perm
        assert r._states.get("mask-permutation") == state

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_swap_sequence_of_small_n(self, n):
        for js in itertools.product(*(range(i + 1) for i in range(n - 1, 0, -1))):
            assert _apply_swaps(np.array(js, dtype=np.int64)).tolist() == sequential_swaps(js), js

    @pytest.mark.parametrize("n", [2, 3, 10, 4097, 50_001])
    @pytest.mark.parametrize("case", ["all_zero", "self_swaps", "i_minus_1", "halves"])
    def test_adversarial_swap_targets(self, n, case):
        i = np.arange(n - 1, 0, -1, dtype=np.int64)
        js = {"all_zero": np.zeros_like(i), "self_swaps": i, "i_minus_1": i - 1,
              "halves": i // 2}[case]
        assert _apply_swaps(js).tolist() == sequential_swaps(js.tolist())


def matmul(a, b):
    """The GEMM every dense layer runs (conv layers run the same ``@``)."""
    return nn._dense_f(a, b, None)[0]


class TestMatmul:
    def test_identity(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.float32)
        assert np.array_equal(matmul(a, np.eye(2, dtype=np.float32)), a)

    def test_hand_case(self):
        a = np.array([[1, 0], [0, 0]], dtype=np.float32)
        b = np.array([[0, 1], [1, 0]], dtype=np.float32)
        assert np.array_equal(matmul(a, b), np.array([[0, 1], [0, 0]], dtype=np.float32))

    def test_against_triple_loop_oracle(self):
        rng = Rng(21)
        a = int_valued(rng, (7, 5))
        b = int_valued(rng, (5, 3))
        assert np.array_equal(matmul(a, b), oracles.oracle_matmul(a, b))

    def test_float_against_oracle_tolerance(self):
        rng = Rng(22)
        a = rng.normal64("init", 7 * 5).astype(np.float32).reshape(7, 5)
        b = rng.normal64("init", 5 * 3).astype(np.float32).reshape(5, 3)
        got = matmul(a, b)
        ref = oracles.oracle_matmul(a, b)
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 63), st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))
    def test_distributivity_exact_on_integer_tensors(self, seed, m, k, n):
        rng = Rng(seed)
        a = int_valued(rng, (m, k), -4, 4)
        b = int_valued(rng, (k, n), -4, 4)
        c = int_valued(rng, (k, n), -4, 4)
        assert np.array_equal(matmul(a, b + c), matmul(a, b) + matmul(a, c))
        assert np.array_equal(matmul(a, np.eye(k, dtype=np.float32)), a)
        assert np.isfinite(matmul(a, b)).all()
