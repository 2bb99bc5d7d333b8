"""Dense float32 tensors and deterministic pseudo-randomness.

Tensors are plain numpy float32 arrays in row-major (C) order. Randomness comes
from named substreams of a single 64-bit seed: SplitMix64 expands the seed into
one xoshiro256** state per substream, so any draw sequence is reproducible
bit-for-bit from (seed, substream, call order) alone and substreams never
interfere with each other.

Large uniform requests run the same generator on 2048 lanes at once: the
xoshiro256** state update is linear over GF(2), so a jump of k steps is a
256x256 bit-matrix power (Haramoto et al. 2008; Blackman & Vigna 2018). Each
lane is jumped to the start of its contiguous segment of the request and all
lanes step together on uint64 arrays, so the words, their order and the final
state are exactly those of the one-word-at-a-time loop. The GF(2) products
are float32 GEMMs whose sums are whole numbers below 2**24, so their parity
is taken by an integer AND.

``permutation`` draws its Fisher-Yates swap targets as one array and then
computes, with whole-array operations, the permutation that applying those
swaps one after another would give (``_apply_swaps``).
"""

from __future__ import annotations

import math
import threading

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

# Lane path: a request of n words runs on _LANES lanes of n // _LANES words
# each once that covers at least _LANE_MIN words; below, stepping arrays costs
# more than the jumps save. The tail of n % _LANES words comes from the loop.
_LANES = 2048
_LANE_MIN = 16384


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _to_bits(states: np.ndarray) -> np.ndarray:
    """(k, 4) uint64 states -> (k, 256) float32 0/1 rows; bit 64*w + b is bit b of word w."""
    raw = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little").astype(np.float32)


def _from_bits(bits: np.ndarray) -> np.ndarray:
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _gf2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product over GF(2) of 0/1 float32 matrices. Exact: every float32 sum of
    at most 256 zeros and ones is an integer below 2**24, whose parity is its
    lowest bit."""
    prod = (a @ b).astype(np.int32)
    prod &= 1
    return prod.astype(np.float32)


# _JUMPS[j] advances bit rows 2**j steps (row @ _JUMPS[j] over GF(2)); built
# on first use, never at import, under the lock so threads extend it in order.
_JUMPS: list[np.ndarray] = []
_JUMPS_LOCK = threading.Lock()


def _step_lanes(s0, s1, s2, s3, t) -> None:
    """One xoshiro256** state update of every lane, in place; t is scratch."""
    np.left_shift(s1, np.uint64(17), out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.right_shift(s3, np.uint64(19), out=t)
    s3 <<= np.uint64(45)
    s3 |= t


def _jump_matrix(steps: int) -> np.ndarray:
    with _JUMPS_LOCK:
        if not _JUMPS:
            basis = _from_bits(np.eye(256, dtype=np.float32))
            lanes = [basis[:, i].copy() for i in range(4)]
            _step_lanes(*lanes, np.empty(256, dtype=np.uint64))
            _JUMPS.append(_to_bits(np.stack(lanes, axis=1)))
        while len(_JUMPS) < steps.bit_length():
            _JUMPS.append(_gf2_mul(_JUMPS[-1], _JUMPS[-1]))
    out = None
    for j in range(steps.bit_length()):
        if steps >> j & 1:
            out = _JUMPS[j] if out is None else _gf2_mul(out, _JUMPS[j])
    return out


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
            x = (s1 * 5) & _MASK64
            append((((x << 7) | (x >> 57)) * 9) & _MASK64)  # rotl(x, 7) * 9
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._states[substream] = [s0, s1, s2, s3]
        return out

    def _lane_block(self, substream: str, seg: int) -> np.ndarray:
        """The next _LANES * seg words, as _next_block would give them: lane i
        starts i * seg steps ahead and yields words i*seg .. (i+1)*seg - 1."""
        lanes = _to_bits(np.array([self._state(substream)], dtype=np.uint64))
        jump = _jump_matrix(seg)
        while len(lanes) < _LANES:
            lanes = np.concatenate([lanes, _gf2_mul(lanes, jump)])
            if len(lanes) < _LANES:
                jump = _gf2_mul(jump, jump)
        state = _from_bits(lanes)
        s0, s1, s2, s3 = (state[:, i].copy() for i in range(4))
        out = np.empty((seg, _LANES), dtype=np.uint64)
        t = np.empty(_LANES, dtype=np.uint64)
        for r in out:
            np.multiply(s1, np.uint64(5), out=t)
            np.left_shift(t, np.uint64(7), out=r)
            t >>= np.uint64(57)
            r |= t
            r *= np.uint64(9)
            _step_lanes(s0, s1, s2, s3, t)
        self._states[substream] = [int(s[-1]) for s in (s0, s1, s2, s3)]
        return out.T.ravel()

    def uniform64(self, substream: str, n: int) -> np.ndarray:
        """n uniform draws in [0, 1) as float64 (53 random mantissa bits)."""
        if n < 0:
            raise ConfigError(f"draw count must be >= 0, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        seg = n // _LANES
        if seg * _LANES >= _LANE_MIN:
            words = self._lane_block(substream, seg)
            if n > seg * _LANES:
                tail = np.array(self._next_block(substream, n - seg * _LANES), dtype=np.uint64)
                words = np.concatenate([words, tail])
        else:
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

    def permutation(self, substream: str, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); consumes n-1 uniforms.

        Step k (i = n-1-k) swaps i with j = min(int(u[k] * (i+1)), i); the j
        are computed in one float64 product and truncation, and
        ``_apply_swaps`` gives the result of the sequential swaps.
        """
        if n < 2:
            return np.arange(n, dtype=np.int64)
        u = self.uniform64(substream, n - 1)
        i = np.arange(n - 1, 0, -1, dtype=np.int64)
        return _apply_swaps(np.minimum((u * (i + 1)).astype(np.int64), i))


def _apply_swaps(js: np.ndarray) -> np.ndarray:
    """The permutation of range(n), n = len(js) + 1, left by swapping
    positions i and js[k] for k = 0, 1, ..., with i = n-1-k and js[k] <= i.

    Computed without the sequential loop. Steps only touch positions at or
    below their i, so position i is final after its step k and holds what
    stood at js[k] then; position 0 is treated as a last step k = n-1 with
    j = 0. A position p <= i is written before step k only by earlier steps
    with j = p, each moving in the value that stood at its own i. So:

    * out[i_k] = moved[prev[k]], where prev[k] is the latest earlier step
      with the same j, or js[k] itself when there is none;
    * moved[k], the value at i_k before step k, is moved[q[k]], where q[k]
      is the latest earlier step with j = i_k, or i_k itself when none.

    One argsort of the unique keys j*n + k groups the steps by j in step
    order, and pointer jumping resolves the chains of q.
    """
    n = len(js) + 1
    ks = np.arange(n, dtype=np.int64)
    js = np.append(js, 0)
    order = np.argsort(js * n + ks)
    j_sorted = js[order]
    # latest earlier step with the same j (-1: none)
    same = np.flatnonzero(j_sorted[1:] == j_sorted[:-1]) + 1
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[same]] = order[same - 1]
    # q[k]: the last step of group j = i_k. Every step of that group has
    # k' <= k; k' = k only when step k swaps i_k with itself, and then no
    # later step reads moved[k], since their j lie below i_k.
    counts = np.bincount(js, minlength=n)
    last = np.cumsum(counts)[::-1] - 1  # by k: sorted position of group i_k's last step
    ptr = np.where(counts[::-1] > 0, order[last], ks)
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        ptr = nxt
    moved = n - 1 - ptr
    return np.where(prev >= 0, moved[prev], js)[::-1].copy()  # by k, so i descending
