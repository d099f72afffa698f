import numpy as np
import pytest

from meterwork.streams import (
    STREAM_BLOCK,
    cdf_of,
    draw_indices,
    draw_rows,
    stream_generator,
    stream_uniforms,
)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
def test_stream_uniforms_equal_scalar_draws(n, k):
    us, stream_id = stream_uniforms(5, n, k)
    expected = []
    for j in range(n):
        if j % STREAM_BLOCK == 0:  # block b is drawn from stream b
            rng = stream_generator(5, j // STREAM_BLOCK)
        expected.append([rng.random() for _ in range(k)])
    assert us.shape == (n, k)
    assert us.tolist() == expected
    assert stream_id.tolist() == [j // STREAM_BLOCK for j in range(n)]


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
    np.testing.assert_array_equal(draw_rows(cdf_rows, us), _row_by_row(cdf_rows, us))


def test_zero_draw_skips_zero_width_leading_segment():
    cdf_rows = np.vstack([cdf_of([0.0, 0.0, 0.4, 0.6]), cdf_of([0.0, 0.5, 0.0, 0.5])])
    us = np.zeros(2)
    assert draw_rows(cdf_rows, us).tolist() == [2, 1]
    assert _row_by_row(cdf_rows, us).tolist() == [2, 1]


def test_cumsum_above_one_is_clamped():
    probs = np.array([0.33, 0.56, 0.11, 0.0])
    assert np.cumsum(probs)[-2] > 1.0  # rounding carries the sum past 1
    cdf = cdf_of(probs)
    assert cdf[-1] == 1.0 < cdf[-2]
    us = np.array([0.0, 0.33, 0.95, np.nextafter(1.0, 0.0)])
    drawn = draw_rows(np.vstack([cdf] * len(us)), us)
    assert drawn.tolist() == [0, 0, 2, 2]
    np.testing.assert_array_equal(drawn, draw_indices(cdf, us))


def test_draw_indices_scalar_and_array_agree():
    cdf = cdf_of([0.25, 0.0, 0.5, 0.25])
    us = np.array([0.0, 0.25, 0.2500001, 0.75, 0.9])
    assert [int(draw_indices(cdf, float(u))) for u in us] == draw_indices(cdf, us).tolist()
    assert draw_indices(cdf, us).tolist() == [0, 0, 2, 2, 3]
