"""Reproducible stream-partitioned sampling.

A root seed plus a stream index determines a counter-based generator
(Philox). Samples are partitioned into fixed-size blocks of `STREAM_BLOCK`
draws, block k drawing from stream k, so the first n samples of a larger
run are exactly the samples of a run of size n, and every result is a
function of the configuration and the seed alone.

Inverse-CDF sampling over discrete outcomes uses a fixed outcome order and
resolves ties at CDF boundaries to the lower index.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STREAM_BLOCK",
    "stream_generator",
    "stream_blocks",
    "draw_index",
    "draw_indices",
]

STREAM_BLOCK = 4096


def stream_generator(seed: int, stream_id: int) -> np.random.Generator:
    """Counter-based generator for one stream, derived only from (seed, stream)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.Philox(ss))


def stream_blocks(n_total: int, block: int = STREAM_BLOCK) -> list[tuple[int, int, int]]:
    """Partition [0, n_total) into (stream_id, start, count) blocks."""
    if n_total < 0:
        raise ValueError(f"sample count must be nonnegative, got {n_total}")
    out = []
    stream = 0
    start = 0
    while start < n_total:
        count = min(block, n_total - start)
        out.append((stream, start, count))
        stream += 1
        start += count
    return out


def cdf_of(probs: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    cdf[-1] = 1.0  # guard the top edge against rounding
    return cdf

# A draw of exactly 0.0 must not land in a zero-width leading segment.
_U_FLOOR = 1e-300


def draw_index(cdf: np.ndarray, u: float) -> int:
    """First index whose CDF value reaches u (ties resolve to the lower index)."""
    return int(np.searchsorted(cdf, max(u, _U_FLOOR), side="left"))


def draw_indices(cdf: np.ndarray, us: np.ndarray) -> np.ndarray:
    return np.searchsorted(cdf, np.maximum(us, _U_FLOOR), side="left")
