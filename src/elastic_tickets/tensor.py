"""Dense float32 tensors and deterministic pseudo-randomness.

Tensors are plain numpy float32 arrays in row-major (C) order. Randomness comes
from named substreams of a single 64-bit seed: SplitMix64 expands the seed into
one xoshiro256** state per substream, so any draw sequence is reproducible
bit-for-bit from (seed, substream, call order) alone and substreams never
interfere with each other.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1

# Registry of named substreams. Each owns an independent generator state;
# drawing from one never advances another.
SUBSTREAMS = (
    "init",
    "data-order",
    "augmentation",
    "mask-permutation",
    "saliency-batch",
    "synth-data",
)

_INV_2_53 = 2.0 ** -53


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """Seeded generator with independent named substreams.

    Substream i is seeded with words 4i..4i+3 of the SplitMix64 sequence
    started at the user seed; each substream then runs xoshiro256**.
    Normal variates use Box-Muller on consecutive uniform pairs (branch-free,
    so the draw count per call is a pure function of n).
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._states: dict[str, list[int]] = {}
        self._normal_spare: dict[str, float] = {}

    def _state(self, substream: str) -> list[int]:
        st = self._states.get(substream)
        if st is None:
            if substream not in SUBSTREAMS:
                raise ConfigError(
                    f"unknown rng substream {substream!r}; known: {', '.join(SUBSTREAMS)}"
                )
            idx = SUBSTREAMS.index(substream)
            sm = self.seed
            words = []
            for _ in range(4 * idx + 4):
                sm, w = _splitmix64_next(sm)
                words.append(w)
            st = words[4 * idx : 4 * idx + 4]
            if not any(st):  # xoshiro state must be nonzero
                st[0] = 1
            self._states[substream] = st
        return st

    def _next_block(self, substream: str, n: int) -> list[int]:
        s0, s1, s2, s3 = self._state(substream)
        out = []
        append = out.append
        for _ in range(n):
            r = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = _rotl(s3, 45)
            append(r)
        self._states[substream] = [s0, s1, s2, s3]
        return out

    def uniform64(self, substream: str, n: int) -> np.ndarray:
        """n uniform draws in [0, 1) as float64 (53 random mantissa bits)."""
        if n < 0:
            raise ConfigError(f"draw count must be >= 0, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        words = np.array(self._next_block(substream, n), dtype=np.uint64)
        return (words >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normal64(self, substream: str, n: int) -> np.ndarray:
        """n standard-normal draws.

        Box-Muller on consecutive uniform pairs, cos before sin; an odd request
        banks the unused variate, so k draws then m draws equals one draw of
        k+m bit-for-bit.
        """
        if n < 0:
            raise ConfigError(f"draw count must be >= 0, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        have = []
        if substream in self._normal_spare:
            have.append(self._normal_spare.pop(substream))
        need = n - len(have)
        pairs = max((need + 1) // 2, 0)
        u = self.uniform64(substream, 2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], avoids log(0)
        theta = 2.0 * math.pi * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        vals = np.concatenate([np.array(have, dtype=np.float64), z])
        if vals.size > n:
            self._normal_spare[substream] = float(vals[n])
        return vals[:n]

    def draw(self, substream: str, n: int, dist: str = "uniform01") -> np.ndarray:
        """Public draw: a float32 tensor of n variates from the named substream."""
        if dist == "uniform01":
            return self.uniform64(substream, n).astype(np.float32)
        if dist == "standard-normal":
            return self.normal64(substream, n).astype(np.float32)
        raise ConfigError(f"unknown distribution {dist!r}")

    def randint_below(self, substream: str, bound: int) -> int:
        """One integer in [0, bound) via a single uniform draw."""
        if bound <= 0:
            raise ConfigError(f"bound must be positive, got {bound}")
        u = self.uniform64(substream, 1)[0]
        return min(int(u * bound), bound - 1)

    def permutation(self, substream: str, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); consumes n-1 uniforms."""
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        u = self.uniform64(substream, n - 1)
        for i in range(n - 1, 0, -1):
            j = min(int(u[n - 1 - i] * (i + 1)), i)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
