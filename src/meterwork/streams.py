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
    "stream_uniforms",
    "draw_indices",
    "draw_rows",
]

STREAM_BLOCK = 4096


def stream_generator(seed: int, stream_id: int) -> np.random.Generator:
    """Counter-based generator for one stream, derived only from (seed, stream)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.Philox(ss))


def stream_uniforms(seed: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`k` uniforms for each of samples [0, n), and each sample's stream id.

    Sample j belongs to block j // STREAM_BLOCK, drawn from the stream of
    that number; its row holds the next k draws of the stream, exactly what
    k scalar ``rng.random()`` calls would return to a per-sample loop.
    """
    us = np.empty((n, k))
    stream_id = np.empty(n, dtype=np.int64)
    for stream, start in enumerate(range(0, n, STREAM_BLOCK)):
        block = slice(start, min(start + STREAM_BLOCK, n))
        us[block] = stream_generator(seed, stream).random((block.stop - start, k))
        stream_id[block] = stream
    return us, stream_id


def cdf_of(probs: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    cdf[-1] = 1.0  # guard the top edge against rounding
    return cdf

# A draw of exactly 0.0 must not land in a zero-width leading segment.
_U_FLOOR = 1e-300


def draw_indices(cdf: np.ndarray, us: float | np.ndarray):
    """First index whose CDF value reaches u (ties resolve to the lower index),
    for a scalar u or elementwise over an array."""
    return np.searchsorted(cdf, np.maximum(us, _U_FLOOR), side="left")


def draw_rows(cdf_rows: np.ndarray, us: np.ndarray) -> np.ndarray:
    """`draw_indices` with one CDF per draw: draw j searches row j for us[j].

    Every row ends at 1.0 (see `cdf_of`) and each u is below 1, so the first
    row entry reaching u exists and equals the row's sorted search.
    """
    return np.argmax(np.maximum(us, _U_FLOOR)[:, None] <= cdf_rows, axis=1)
