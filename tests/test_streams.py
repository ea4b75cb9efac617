import numpy as np
import pytest
from scipy.special import ndtri

from framemeasures import streams
from framemeasures.errors import IndexOutOfRange


def test_uniforms_open_interval():
    u = streams.uniforms(5, 100_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_uniforms_at_chunk_consistency():
    full = streams.uniforms(5, 1000, stream=2)
    for start, count in [(0, 10), (3, 7), (17, 500), (999, 1)]:
        chunk = streams.uniforms_at(5, start, count, stream=2)
        np.testing.assert_array_equal(chunk, full[start : start + count])


def test_streams_distinct():
    a = streams.uniforms(5, 100, stream=1)
    b = streams.uniforms(5, 100, stream=2)
    c = streams.uniforms(6, 100, stream=1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normal_matrix_row_prefix():
    big = streams.normal_matrix(9, streams.BLOCK_ROWS + 500, 3)
    small = streams.normal_matrix(9, streams.BLOCK_ROWS - 10, 3)
    np.testing.assert_array_equal(big[: streams.BLOCK_ROWS - 10], small)


def test_normal_matrix_worker_invariance():
    a = streams.normal_matrix(9, 3 * streams.BLOCK_ROWS, 2, workers=1)
    b = streams.normal_matrix(9, 3 * streams.BLOCK_ROWS, 2, workers=3)
    np.testing.assert_array_equal(a, b)


def test_inverse_cdf_lower_tie_break():
    cum = np.array([0.25, 0.5, 1.0])
    idx = streams.inverse_cdf_index(cum, np.array([0.1, 0.25, 0.26, 0.5, 0.99, 1.0]))
    np.testing.assert_array_equal(idx, [0, 0, 1, 1, 2, 2])


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("FRAMES_THREADS", "1")
    assert streams.worker_count() == 1
    monkeypatch.setenv("FRAMES_THREADS", "not-a-number")
    assert streams.worker_count() >= 1


def _old_open_unit(raw):
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def test_open_unit_extremes_are_open_and_finite():
    raw = np.array([0, 2**64 - 1], dtype=np.uint64)
    u = streams._to_open_unit(raw.copy())
    assert 0.0 < u[0] and u[1] < 1.0
    assert u[1] == np.nextafter(1.0, 0.0)
    assert np.isfinite(ndtri(u)).all()


def test_open_unit_matches_formula_bitwise():
    raw = streams._philox(11, 4).random_raw(1_000_000)
    expected = _old_open_unit(raw)
    np.testing.assert_array_equal(streams._to_open_unit(raw.copy()), expected)


def test_normal_rows_within_a_block():
    z = streams.normal_matrix(9, 2 * streams.BLOCK_ROWS, 5, stream=3)
    lo, hi = streams.BLOCK_ROWS + 333, streams.BLOCK_ROWS + 4000
    np.testing.assert_array_equal(streams.normal_rows(9, lo, hi, 5, stream=3), z[lo:hi])
    with pytest.raises(IndexOutOfRange):
        streams.normal_rows(9, streams.BLOCK_ROWS - 1, streams.BLOCK_ROWS + 1, 5)
