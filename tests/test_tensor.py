import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_tickets import nn, oracles
from elastic_tickets.errors import ConfigError
from elastic_tickets.tensor import Rng, SUBSTREAMS


def int_valued(rng, shape, lo=-8, hi=8):
    """Random float32 tensors with integer values: exact under any summation order."""
    u = rng.uniform64("init", int(np.prod(shape)))
    return np.floor(u * (hi - lo) + lo).astype(np.float32).reshape(shape)


class TestRng:
    def test_same_seed_bitwise_identical(self):
        a = Rng(123).draw("init", 1000, "standard-normal")
        b = Rng(123).draw("init", 1000, "standard-normal")
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).draw("init", 100), Rng(2).draw("init", 100))

    def test_substreams_independent(self):
        r = Rng(5)
        base = Rng(5).draw("data-order", 64)
        r.draw("init", 1000)
        r.draw("augmentation", 17)
        assert np.array_equal(r.draw("data-order", 64), base)

    def test_stream_splitting_uniform(self):
        r = Rng(9)
        parts = np.concatenate([r.draw("init", 5), r.draw("init", 5)])
        assert np.array_equal(parts, Rng(9).draw("init", 10))

    def test_stream_splitting_normal_odd_counts(self):
        r = Rng(9)
        parts = np.concatenate([r.normal64("init", 5), r.normal64("init", 5)])
        assert np.array_equal(parts, Rng(9).normal64("init", 10))

    def test_empty_draw(self):
        assert Rng(1).draw("init", 0).shape == (0,)

    def test_unknown_substream(self):
        with pytest.raises(ConfigError, match="unknown rng substream"):
            Rng(1).draw("nope", 3)

    def test_unknown_distribution(self):
        with pytest.raises(ConfigError):
            Rng(1).draw("init", 3, "cauchy")

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
            v = Rng(13).draw("init", 10_000, dist)
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
