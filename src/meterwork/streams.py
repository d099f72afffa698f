"""Reproducible stream-partitioned sampling.

A root seed plus a stream index determines a counter-based generator
(Philox). Samples are partitioned into fixed-size blocks of `STREAM_BLOCK`
draws, block k drawing from stream k, so the first n samples of a larger
run are exactly the samples of a run of size n, and every result is a
function of the configuration and the seed alone.

The generator is numpy's ``Generator(Philox(SeedSequence(seed,
spawn_key=(stream,)))).random``, reproduced here bit for bit: the key comes
from SeedSequence's hash mixing, the words from Philox4x64-10 (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) on counters
1, 2, 3, ..., and each double from the top 53 bits of one word. Owning the
kernel keeps the draws fixed across numpy versions (numpy promises stable
bit-generator streams, not stable `Generator` methods) and spares every run
the import of numpy.random.

Inverse-CDF sampling over discrete outcomes uses a fixed outcome order and
resolves ties at CDF boundaries to the lower index.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SchemeConstraintError
from .numeric import require_integer

__all__ = [
    "STREAM_BLOCK",
    "PhiloxStream",
    "check_seed",
    "stream_generator",
    "stream_blocks",
    "draw_indices",
    "draw_rows",
]

STREAM_BLOCK = 4096

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# SeedSequence hash constants (numpy.random.bit_generator)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# Philox4x64-10: round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# A kernel call costs about as much for 64 counters as for 1 (its ~170
# numpy calls dominate), so scalar draws are made 256 at a time.
_MIN_COUNTERS = 64

# each multiplier and its 32-bit halves, one row per multiplied word (v0, v2)
_MULTIPLIERS = np.array(
    [_PHILOX_M, [m & _MASK32 for m in _PHILOX_M], [m >> 32 for m in _PHILOX_M]],
    dtype=np.uint64,
)[:, :, None]
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_TO_UNIT = 2.0**-53


def check_seed(seed) -> int:
    """`seed` as an int; ValueError naming it unless it is an integer in
    [0, 2**64), a 64-bit unsigned root seed."""
    seed = require_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0; one zero word for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _philox_key(seed: int, stream: int) -> tuple[int, int]:
    """SeedSequence(seed, spawn_key=(stream,)).generate_state(2, uint64)."""
    seed_words = _uint32_words(seed)
    # a spawn key is given, so the seed words are zero-padded to the pool size
    entropy = seed_words + [0] * (_POOL_SIZE - len(seed_words)) + _uint32_words(stream)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in pool:  # two uint64 words, each from two uint32 (low word first)
        value = word ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _round_keys(key: tuple[int, int]) -> np.ndarray:
    """The key of each Philox round as a (rounds, 2, 1) array, bumped by the
    Weyl increments before every round after the first."""
    keys = np.empty((_PHILOX_ROUNDS, 2, 1), dtype=np.uint64)
    k0, k1 = key
    for r in range(_PHILOX_ROUNDS):
        keys[r] = [[k0], [k1]]
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
    return keys


def _philox_uniforms(keys: np.ndarray, first: int, m: int) -> np.ndarray:
    """The doubles (word >> 11) * 2**-53 of the Philox4x64-10 words on
    counters first .. first + m - 1, four per counter, in word order.

    The counter's upper three words stay 0. Each round multiplies the words
    v0 and v2 by their constants into 128 bits; numpy has no such multiply,
    so the high half is built from 32-bit halves (every partial product fits
    in 64 bits), in place in a few preallocated (2, m) buffers.
    """
    mult = np.zeros((2, m), dtype=np.uint64)  # (v0, v2)
    mult[0] = np.arange(first, first + m, dtype=np.uint64)
    # full-shape operands: numpy multiplies them twice as fast as broadcast ones
    m_full, m_lo, m_hi = np.repeat(_MULTIPLIERS, m, axis=2)
    # (v1, v3), held xored with the coming round's key: it only feeds that xor
    other = np.empty_like(mult)
    other[...] = keys[0]
    lo, hi, a_lo, a_hi, carry = (np.empty_like(mult) for _ in range(5))
    for next_key in (*keys[1:], None):
        np.multiply(mult, m_full, out=lo)  # low 64 bits, wrapping
        np.bitwise_and(mult, _LOW32, out=a_lo)
        np.right_shift(mult, _SHIFT32, out=a_hi)
        np.multiply(a_lo, m_lo, out=carry)
        carry >>= _SHIFT32
        np.multiply(a_hi, m_lo, out=hi)
        carry += hi
        np.bitwise_and(carry, _LOW32, out=hi)
        carry >>= _SHIFT32
        a_lo *= m_hi
        hi += a_lo
        hi >>= _SHIFT32
        a_hi *= m_hi
        hi += a_hi
        hi += carry
        # v0' = hi(v2) ^ v1 ^ k0, v1' = lo(v2), v2' = hi(v0) ^ v3 ^ k1, v3' = lo(v0)
        np.bitwise_xor(hi[::-1], other, out=mult)
        if next_key is not None:
            np.bitwise_xor(lo[::-1], next_key, out=other)
    mult >>= _SHIFT11
    lo >>= _SHIFT11
    out = np.empty((m, 4))
    out[:, 0::2] = mult.T  # below 2**53, so the conversion is exact
    out[:, 1::2] = lo[::-1].T
    out *= _TO_UNIT
    return out.reshape(-1)


class PhiloxStream:
    """Uniform doubles in [0, 1) from one Philox stream; see `stream_generator`.

    Draws take one 64-bit word each, in order, so a block of draws equals the
    same number of scalar draws. Words are made at least `_MIN_COUNTERS`
    counters at a time, and the draws left over are kept for the next call.
    """

    __slots__ = ("_keys", "_counter", "_spare")

    def __init__(self, key: tuple[int, int]):
        self._keys = _round_keys(key)
        self._counter = 0  # last counter used
        self._spare = np.empty(0)

    def _draws(self, n: int) -> np.ndarray:
        taken, self._spare = self._spare[:n], self._spare[n:]
        need = n - taken.size
        if need == 0:
            return taken
        m = max(-(-need // 4), _MIN_COUNTERS)
        fresh = _philox_uniforms(self._keys, self._counter + 1, m)
        self._counter += m
        self._spare = fresh[need:].copy()  # keeps the leftover, not the block
        return np.concatenate((taken, fresh[:need])) if taken.size else fresh[:need]

    def random(self, size=None):
        """A float, or an array of shape `size`, of uniform doubles in [0, 1)."""
        if size is None:
            return float(self._draws(1)[0])
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        return self._draws(math.prod(shape)).reshape(shape)


def stream_generator(seed: int, stream_id: int) -> PhiloxStream:
    """Counter-based generator for one stream, derived only from (seed, stream)."""
    seed = check_seed(seed)
    stream_id = require_integer("stream_id", stream_id)
    if stream_id < 0:
        raise ValueError(f"stream_id must be an integer >= 0, got {stream_id!r}")
    return PhiloxStream(_philox_key(seed, stream_id))


def _block_rows(n: int):
    """The slice of samples [0, n) that each stream block covers, in order."""
    for start in range(0, n, STREAM_BLOCK):
        yield slice(start, min(start + STREAM_BLOCK, n))


def stream_blocks(seed: int, n: int, k: int):
    """`k` uniforms for each of samples [0, n), one stream block at a time.

    Yields ``(stream, block, us)``: block `stream` covers the samples
    ``block`` (a slice of at most STREAM_BLOCK), and row j of the
    (size, k) array `us` holds the next k draws of that stream, exactly
    what k scalar ``rng.random()`` calls would return to a per-sample loop.
    """
    for stream, block in enumerate(_block_rows(n)):
        yield stream, block, stream_generator(seed, stream).random((block.stop - block.start, k))


def _draw_blocks(seed: int, n: int, cdfs):
    """``(stream, rows, code)`` of each block of `stream_blocks`: each
    sample's branch code, ``np.ravel_multi_index(indices, cdfs[-1].shape)``
    of the index it drew at each stage of `cdfs`, one uniform per stage.
    Stage 0 is one CDF; stage k holds one CDF row per branch of the stages
    before it, indexed by the tuple of their indices."""
    for stream, rows, us in stream_blocks(seed, n, len(cdfs)):
        code = draw_indices(cdfs[0], us[:, 0])
        for k, cdf in enumerate(cdfs[1:], 1):
            branch_rows = cdf.reshape(-1, cdf.shape[-1])  # one row per code so far
            code = code * cdf.shape[-1] + draw_rows(branch_rows, code, us[:, k])
        yield stream, rows, code


def cdf_of(probs: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    cdf[-1] = 1.0  # guard the top edge against rounding
    return cdf


class _BranchTable:
    """The branches of a sampler that draws each sample as a chain of
    readings, one outcome per stage, and one value per branch for each of
    its columns.

    Stage k's probabilities ``stages[k]`` are indexed by the outcomes of
    stages 0 .. k, one row per branch of the stages before it; the last
    stage's shape is that of the branches, and a branch's flat index (C
    order) is its code. `floor` prunes each branch of a stage but the last
    whose probability is at or below it: no row is drawn under it, so its
    rows of the later stages stay all zero in `cdfs`, and a sample that
    draws it raises. `names` holds, for each stage but the last, the text
    naming one of its branches, formatted with the outcome indices. `table`
    maps column names to read-only columns of one value per branch code.
    """

    def __init__(self, stages, floor: float, names, table):
        self.stages, self.floor, self.names, self.table = tuple(stages), floor, names, table
        self.shape = self.stages[-1].shape
        for column in table.values():
            column.flags.writeable = False
        cdfs = []
        # reach: each branch's probability so far, 0 under a pruned one
        reach, live, self.pruned_mass = np.ones(()), np.ones((), dtype=bool), 0.0
        for k, p in enumerate(self.stages):
            cdf = np.zeros(p.shape)
            for row in map(tuple, np.argwhere(live)):
                cdf[row] = cdf_of(p[row])
            cdfs.append(cdf)
            reach = reach[..., None] * p
            if k + 1 < len(self.stages):
                live = live[..., None] & ~(p <= floor)
                self.pruned_mass += float(reach[~live].sum())
                reach = np.where(live, reach, 0.0)
        self.cdfs = tuple(cdfs)
        self.probabilities = reach.reshape(-1)  # of each branch code, 0 if pruned
        self._pruned = np.broadcast_to(~live[..., None], self.shape).reshape(-1)
        self.code_dtype = np.min_scalar_type(self._pruned.size - 1)

    def draw(self, seed: int, n: int) -> np.ndarray:
        """The read-only branch code column of samples [0, n), in the
        narrowest unsigned dtype that holds every code, from one uniform per
        stage from each sample's stream (`_draw_blocks`). A sample on a
        pruned branch raises `SchemeConstraintError`, naming the first in
        draw order."""
        code = np.empty(n, dtype=self.code_dtype)
        for _, rows, drawn in _draw_blocks(seed, n, self.cdfs):
            code[rows] = drawn
        code.flags.writeable = False
        if self._pruned.any() and (pruned := self._pruned[code]).any():
            j = int(pruned.argmax())  # the first run on a pruned branch
            index = np.unravel_index(code[j], self.shape)
            k, p = next((k, p[index[:k + 1]]) for k, p in enumerate(self.stages)
                        if p[index[:k + 1]] <= self.floor)
            raise SchemeConstraintError(
                f"run {j} drew {self.names[k].format(*index)} with probability {p:.6g}, at or "
                f"below outcome_floor {self.floor:g}; a pruned branch has no tabulated values"
            )
        return code

# A draw of exactly 0.0 must not land in a zero-width leading segment.
_U_FLOOR = 1e-300


def draw_indices(cdf: np.ndarray, us: float | np.ndarray):
    """First index whose CDF value reaches u (ties resolve to the lower index),
    for a scalar u or elementwise over an array."""
    return np.searchsorted(cdf, np.maximum(us, _U_FLOOR), side="left")


def draw_rows(cdf_rows: np.ndarray, code: np.ndarray, us: np.ndarray) -> np.ndarray:
    """`draw_indices` with one CDF per draw: draw j searches row ``code[j]``
    of `cdf_rows` for us[j].

    Every row ends at 1.0 (see `cdf_of`) and each u is below 1, so the first
    row entry reaching u exists and equals the row's sorted search. The rows
    are read one CDF column at a time: a draw's index is the number of
    leading columns that stay below its u, which is ``argmax(u <= row)``
    for any row, and 0 where no entry reaches u (a NaN row), as argmax gives.
    """
    us = np.maximum(us, _U_FLOOR)
    index = np.zeros(len(us), dtype=np.intp)
    below = np.ones(len(us), dtype=bool)  # every column so far stays below u
    for column in cdf_rows.T:
        below &= ~(us <= np.take(column, code))
        index += below
    index[below] = 0
    return index
