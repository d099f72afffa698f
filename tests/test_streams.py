import numpy as np
import pytest

from meterwork.streams import (
    STREAM_BLOCK,
    _draw_blocks,
    cdf_of,
    draw_indices,
    draw_rows,
    stream_blocks,
    stream_generator,
)


def _stage_cdfs(rng, sizes):
    """Stage k's CDFs, one row per branch of the stages before it, with
    zero-width segments."""
    cdfs = []
    for k, size in enumerate(sizes):
        probs = rng.random((*sizes[:k], size))
        probs[rng.random(probs.shape) < 0.3] = 0.0
        probs[..., -1] += 1e-3  # every row keeps some mass
        cdfs.append(np.apply_along_axis(lambda p: cdf_of(p / p.sum()), -1, probs))
    return cdfs


@pytest.mark.parametrize("stages", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
def test_draw_blocks_equal_scalar_draws(n, stages):
    cdfs = _stage_cdfs(np.random.default_rng(stages), [3, 4, 2][:stages])
    expected = []
    for j in range(n):
        if j % STREAM_BLOCK == 0:  # block b is drawn from stream b
            rng = stream_generator(5, j // STREAM_BLOCK)
        idx = ()
        for cdf in cdfs:  # the row of this stage after the indices drawn so far
            idx += (int(draw_indices(cdf[idx], rng.random())),)
        expected.append(idx)
    blocks = list(_draw_blocks(5, n, cdfs))
    assert all(code.dtype == np.intp for _, _, code in blocks)
    codes = np.concatenate([code for _, _, code in blocks])
    drawn = list(zip(*(idx.tolist() for idx in np.unravel_index(codes, cdfs[-1].shape))))
    assert drawn == expected
    streams = [stream for stream, rows, _ in blocks for _ in range(rows.start, rows.stop)]
    assert streams == [j // STREAM_BLOCK for j in range(n)]


@pytest.mark.parametrize("n", [0, 1, 4096, 9000])
def test_stream_blocks_partition_the_samples(n):
    blocks = list(stream_blocks(5, n, 2))
    starts = list(range(0, n, STREAM_BLOCK))
    assert [stream for stream, _, _ in blocks] == list(range(len(starts)))
    assert [(rows.start, rows.stop) for _, rows, _ in blocks] == [
        (start, min(start + STREAM_BLOCK, n)) for start in starts
    ]
    assert all(us.shape == (rows.stop - rows.start, 2) for _, rows, us in blocks)


def _row_by_row(cdf_rows, us):
    return np.array([int(draw_indices(row, u)) for row, u in zip(cdf_rows, us)])


def test_draw_rows_equals_row_by_row_search():
    rng = np.random.default_rng(3)
    probs = rng.random((500, 5))
    probs[rng.random(probs.shape) < 0.3] = 0.0  # zero-width segments
    probs[:, -1] += 1e-3  # every row keeps some mass
    cdf_rows = np.vstack([cdf_of(p / p.sum()) for p in probs])
    us = rng.random(500)
    # u exactly on a CDF value, at an inner boundary and at zero
    on_value = rng.integers(0, 4, size=100)
    us[:100] = cdf_rows[np.arange(100), on_value]
    us[100:120] = 0.0
    drawn = draw_rows(cdf_rows, np.arange(500), us)
    np.testing.assert_array_equal(drawn, _row_by_row(cdf_rows, us))


def test_zero_draw_skips_zero_width_leading_segment():
    cdf_rows = np.vstack([cdf_of([0.0, 0.0, 0.4, 0.6]), cdf_of([0.0, 0.5, 0.0, 0.5])])
    us = np.zeros(2)
    assert draw_rows(cdf_rows, np.arange(2), us).tolist() == [2, 1]
    assert _row_by_row(cdf_rows, us).tolist() == [2, 1]


def test_cumsum_above_one_is_clamped():
    probs = np.array([0.33, 0.56, 0.11, 0.0])
    assert np.cumsum(probs)[-2] > 1.0  # rounding carries the sum past 1
    cdf = cdf_of(probs)
    assert cdf[-1] == 1.0 < cdf[-2]
    us = np.array([0.0, 0.33, 0.95, np.nextafter(1.0, 0.0)])
    drawn = draw_rows(np.vstack([cdf] * len(us)), np.arange(len(us)), us)
    assert drawn.tolist() == [0, 0, 2, 2]
    np.testing.assert_array_equal(drawn, draw_indices(cdf, us))


def _argmax_by_row(cdf_rows, code, us):
    """The row-by-row reference of `draw_rows`: the first entry of row
    code[j] that reaches us[j], by argmax (0 where none does)."""
    return np.array([
        np.argmax(max(u, 1e-300) <= cdf_rows[c]) for c, u in zip(code.tolist(), us.tolist())
    ])


@pytest.mark.parametrize("width", [1, 2, 3, 64])
def test_draw_rows_by_code_equals_argmax_by_row(width):
    rng = np.random.default_rng(width)
    probs = rng.random((40, width))
    probs[rng.random(probs.shape) < 0.3] = 0.0  # zero-width segments
    probs[:, -1] += 1e-3
    rows = [cdf_of(p / p.sum()) for p in probs]
    rows[0] = np.full(width, 1.0)  # every segment but the first zero-width
    if width >= 4:
        rows[1] = cdf_of([0.33, 0.56, 0.11, 0.0, *[0.0] * (width - 4)])  # clamped top
        assert rows[1][-2] > 1.0
    cdf_rows = np.vstack(rows)
    # rows that are not CDFs: decreasing entries and NaN
    odd = np.vstack([rng.random(width), np.full(width, np.nan), np.linspace(1.0, 0.0, width)])
    odd[0, -1] = np.nan
    cdf_rows = np.vstack([cdf_rows, odd])
    n = 5000
    code = rng.integers(0, len(cdf_rows), size=n)
    us = rng.random(n)
    # u exactly on a boundary of its row, at zero, and just below 1
    on = rng.random(n) < 0.3
    us[on] = cdf_rows[code[on], rng.integers(0, width, size=on.sum())]
    us[rng.random(n) < 0.05] = 0.0
    us[:3] = np.nextafter(1.0, 0.0)
    us = np.nan_to_num(us, nan=0.5)
    drawn = draw_rows(cdf_rows, code, us)
    assert drawn.dtype == np.intp
    np.testing.assert_array_equal(drawn, _argmax_by_row(cdf_rows, code, us))
    valid = code < 40  # on proper CDF rows, as the sorted search finds
    np.testing.assert_array_equal(drawn[valid], _row_by_row(cdf_rows[code[valid]], us[valid]))


def test_draw_indices_scalar_and_array_agree():
    cdf = cdf_of([0.25, 0.0, 0.5, 0.25])
    us = np.array([0.0, 0.25, 0.2500001, 0.75, 0.9])
    assert [int(draw_indices(cdf, float(u))) for u in us] == draw_indices(cdf, us).tolist()
    assert draw_indices(cdf, us).tolist() == [0, 0, 2, 2, 3]


@pytest.mark.parametrize(
    "seed, message",
    [(-1, r"seed must be an integer in \[0, 2\*\*64\), got -1"),
     (2**64, r"seed must be an integer in \[0, 2\*\*64\), got 18446744073709551616"),
     (1.5, "seed must be an integer, got 1.5"),
     (True, "seed must be an integer, got True")],
)
def test_seed_outside_64_bit_unsigned_is_named(seed, message):
    with pytest.raises(ValueError, match=message):
        stream_generator(seed, 0)
    with pytest.raises(ValueError, match=message):
        next(stream_blocks(seed, 10, 2))


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int32(7)])
def test_seed_range_edges_are_accepted(seed):
    assert stream_generator(seed, 3).random() == stream_generator(int(seed), 3).random()


@pytest.mark.parametrize(
    "stream_id, message",
    [(-1, r"stream_id must be an integer >= 0, got -1"),
     (1.5, "stream_id must be an integer, got 1.5"),
     (True, "stream_id must be an integer, got True")],
)
def test_stream_id_outside_nonnegative_integers_is_named(stream_id, message):
    with pytest.raises(ValueError, match=message):
        stream_generator(5, stream_id)


def test_numpy_integer_stream_id_is_accepted():
    assert stream_generator(5, np.int64(3)).random() == stream_generator(5, 3).random()


# numpy.random is the oracle here only: the package itself never imports it.
def _numpy_stream(seed, stream):
    seq = np.random.SeedSequence(int(seed), spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def _assert_same_draws(ours, theirs, size):
    got, want = ours.random(size), theirs.random(size)
    if size is None:
        assert type(got) is float
        assert got == want
    else:
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, np.uint64(2**64 - 1)]
ORACLE_STREAMS = [0, 1, 4095, 2**32 + 3]
ORACLE_SIZES = [None, 1, 3, 4, 5, (4097, 3)]


@pytest.mark.parametrize("stream", ORACLE_STREAMS)
@pytest.mark.parametrize("seed", ORACLE_SEEDS, ids=repr)
def test_stream_matches_numpy_philox_bit_for_bit(seed, stream):
    for size in ORACLE_SIZES:
        _assert_same_draws(stream_generator(seed, stream), _numpy_stream(seed, stream), size)
    # scalar and array draws interleaved on one stream carry the leftover
    # draws, and a run of scalar draws crosses a refill
    ours, theirs = stream_generator(seed, stream), _numpy_stream(seed, stream)
    for size in [None, 3, None, None, 5, None, (2, 3), 1, None, 4, (4097, 3), *[None] * 300]:
        _assert_same_draws(ours, theirs, size)
