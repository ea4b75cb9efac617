import hashlib
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from framemeasures import streams

B = streams.BLOCK_ROWS


def _flat(seed, start, count, stream):
    # positions [start, start + count) of the uniforms: count units of width 1
    return streams.uniform_columns(seed, start, start + count, stream, np.empty((1, count)))[0]


def test_uniforms_open_interval():
    u = streams.uniform_columns(5, 0, 25_000, 0, np.empty((4, 25_000)))
    assert u.min() > 0.0 and u.max() < 1.0


def test_uniform_columns_chunk_consistency():
    # any range of units reads the same columns as one read of them all
    full = streams.uniform_columns(5, 0, 1000, 2, np.empty((3, 1000)))
    for start, count in [(0, 10), (3, 7), (17, 500), (999, 1)]:
        chunk = streams.uniform_columns(5, start, start + count, 2, np.empty((3, count)))
        np.testing.assert_array_equal(chunk, full[:, start : start + count])


def test_streams_distinct():
    a = _flat(5, 0, 100, stream=1)
    b = _flat(5, 0, 100, stream=2)
    c = _flat(6, 0, 100, stream=1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normal_matrix_row_prefix():
    big = streams.normal_matrix(9, streams.BLOCK_ROWS + 500, 3, stream=0)
    small = streams.normal_matrix(9, streams.BLOCK_ROWS - 10, 3, stream=0)
    np.testing.assert_array_equal(big[: streams.BLOCK_ROWS - 10], small)


def test_normal_matrix_worker_invariance():
    a = streams.normal_matrix(9, 3 * streams.BLOCK_ROWS, 2, stream=0, workers=1)
    b = streams.normal_matrix(9, 3 * streams.BLOCK_ROWS, 2, stream=0, workers=3)
    np.testing.assert_array_equal(a, b)


def test_inverse_cdf_lower_tie_break():
    table = streams.cdf_table(np.array([[0.25, 0.5, 1.0]]))
    u = np.array([0.1, 0.25, 0.26, 0.5, 0.99, 1.0])
    idx = streams.inverse_cdf_index(table, np.zeros(len(u), dtype=np.int64), u)
    np.testing.assert_array_equal(idx, [0, 0, 1, 1, 2, 2])


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65])
def test_inverse_cdf_matches_searchsorted(n):
    rng = np.random.default_rng(n)
    weights = rng.uniform(size=(9, n))
    weights[rng.uniform(size=weights.shape) < 0.3] = 0.0  # repeated partial sums
    weights[0] = 0.0  # every partial sum 0
    weights[1, -1] = 0.0  # the last partial sums repeat
    cum = np.cumsum(weights / np.maximum(weights.sum(axis=1, keepdims=True), 1e-300), axis=1)
    cum[2] *= 0.9  # a total below 1: uniforms above it clamp
    # uniforms on every partial sum (ties), between them, and beyond the last
    u = np.concatenate([cum.ravel(), rng.uniform(size=2000), [np.nextafter(1.0, 0.0)]])
    rows = rng.integers(0, len(cum), size=len(u))
    rows[: cum.size] = np.repeat(np.arange(len(cum)), n)
    expected = [min(np.searchsorted(cum[r], x, "left"), n - 1) for r, x in zip(rows, u)]
    idx = streams.inverse_cdf_index(streams.cdf_table(cum), rows, u)
    np.testing.assert_array_equal(idx, expected)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("FRAMES_THREADS", "1")
    assert streams.worker_count() == 1
    monkeypatch.setenv("FRAMES_THREADS", "not-a-number")
    assert streams.worker_count() >= 1


def test_worker_count_follows_the_cpus_this_process_may_run_on(monkeypatch):
    # a 2-CPU affinity mask on a 64-CPU host
    monkeypatch.setattr(streams.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(streams.os, "sched_getaffinity", lambda pid: {3, 17}, raising=False)
    monkeypatch.delenv("FRAMES_THREADS", raising=False)
    assert streams.worker_count() == 2
    monkeypatch.setenv("FRAMES_THREADS", "8")
    assert streams.worker_count() == 2
    monkeypatch.setenv("FRAMES_THREADS", "1")
    assert streams.worker_count() == 1
    # where the platform has no affinity call, the CPU count
    monkeypatch.delattr(streams.os, "sched_getaffinity")
    monkeypatch.setenv("FRAMES_THREADS", "8")
    assert streams.worker_count() == 8
    monkeypatch.delenv("FRAMES_THREADS")
    assert streams.worker_count() == 64


@pytest.mark.parametrize("workers", [1, 3])
def test_map_blocks_yields_blocks_in_order(workers):
    # earlier blocks take longer, so on threads they finish last
    def span(lo, hi, _):
        time.sleep(0.002 * (10 - lo))
        return lo, hi

    got = list(streams.map_blocks(span, 10, 4, workers=workers))
    assert got == [(0, 4), (4, 8), (8, 10)]


def test_map_blocks_lends_no_buffer_to_two_calls(monkeypatch):
    # more workers than cores and a short switch interval; a buffer lent to
    # two calls at once would be found busy
    monkeypatch.setattr(streams, "worker_count", lambda: 4)

    def use(lo, hi, lent):
        assert not lent[0], f"block {lo} was lent a busy buffer"
        lent[0] = True
        sum(range(200))
        lent[0] = False

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in streams.map_blocks(use, 4000, 1, scratch=lambda: [False]):
            pass
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers, count, made", [(None, 40, 4), (2, 40, 2), (4, 9, 3),
                                                  (1, 40, 1), (4, 0, 0)])
def test_map_blocks_makes_one_scratch_per_thread_on_the_caller(workers, count, made,
                                                               monkeypatch):
    # `workers` defaults to `worker_count()`, read at call time
    monkeypatch.setattr(streams, "worker_count", lambda: 4)
    makers = []
    blocks = streams.map_blocks(lambda lo, hi, lent: lent, count, 4, workers=workers,
                                scratch=lambda: makers.append(threading.get_ident()) or object())
    assert len(set(map(id, blocks))) == made
    assert makers == [threading.get_ident()] * made


@pytest.mark.parametrize("stop", ["error", "early"])
def test_map_blocks_cancels_the_blocks_not_started(stop):
    # after an error in block 0, or a consumer that stops after it, the
    # blocks in flight finish and no other starts
    started = []

    def run(lo, hi, _):
        started.append(lo)
        if lo == 0 and stop == "error":
            raise ArithmeticError("block 0")
        time.sleep(0.05)

    blocks = streams.map_blocks(run, 100, 1, workers=2)
    if stop == "error":
        with pytest.raises(ArithmeticError, match="block 0"):
            list(blocks)
    else:
        next(blocks)
        blocks.close()
    ran = len(started)
    time.sleep(0.1)
    assert len(started) == ran < 10


@pytest.mark.parametrize("workers, count", [(1, 40), (4, 3)])
def test_map_blocks_runs_inline_on_one_worker(workers, count):
    # one worker, or one block: every block runs on the calling thread
    threads = streams.map_blocks(lambda lo, hi, _: threading.get_ident(), count, 4,
                                 workers=workers)
    assert set(threads) == {threading.get_ident()}


def test_only_streams_runs_a_pool():
    # every block of pooled work goes through `streams.map_blocks`, and no
    # module flips numpy's process-wide huge-page hint
    for path in Path(streams.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert "_set_madvise_hugepage" not in source, path.name
        if path.name != "streams.py":
            assert "ThreadPoolExecutor" not in source, path.name
            assert "SimpleQueue" not in source, path.name


def test_only_streams_addresses_a_stream():
    # every position is computed, and every raw output drawn, in `streams`;
    # the samplers read their uniforms a block of units at a time
    for path in Path(streams.__file__).parent.glob("*.py"):
        source = path.read_text()
        if path.name != "streams.py":
            for name in ("random_raw", "_generator_at", "UNIFORM_CHUNK"):
                assert name not in source, (path.name, name)
        if path.name in ("dpp.py", "markov.py"):
            assert "uniforms_at" not in source, path.name


def _old_open_unit(raw):
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _reference(seed, start, count, stream):
    # positions [start, start + count), converted in one piece
    raw = streams._philox(seed, stream)
    raw.advance(start // 4)
    return _old_open_unit(raw.random_raw(count + start % 4)[start % 4 :])


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
    z = streams.normal_matrix(9, 2 * B, 5, stream=3)
    for lo, hi in [(B + 333, B + 4000), (B - 1, B + 1), (B - 700, 2 * B)]:
        np.testing.assert_array_equal(streams.normal_rows(9, lo, hi, 5, stream=3), z[lo:hi])


@pytest.mark.parametrize("start, stop, cols", [
    # first positions 7, 21 and 40950: 3, 1 and 2 mod 4
    (1, 30_000, 7),  # across three conversion pieces
    (3, 4, 7),  # one row
    (8190, 8190 + 2 * streams.UNIFORM_CHUNK // 5 + 1, 5),  # two pieces and one value
])
def test_normal_rows_into_out_equals_a_fresh_result(start, stop, cols):
    want = ndtri(_reference(9, start * cols, (stop - start) * cols, 3)).reshape(stop - start, cols)
    got = streams.normal_rows(9, start, stop, cols, stream=3)
    np.testing.assert_array_equal(got, want)
    buf = np.full((stop - start + 3, cols), np.nan)
    out = streams.normal_rows(9, start, stop, cols, stream=3, out=buf[: stop - start])
    assert np.shares_memory(out, buf)
    np.testing.assert_array_equal(buf[: stop - start], want)
    assert np.isnan(buf[stop - start :]).all()


def test_normal_rows_read_flat_positions():
    # entry (i, j) of a width-5 matrix is the normal at position 5*i + j
    u = _flat(9, (B - 2) * 5, 25, stream=3)
    np.testing.assert_array_equal(
        streams.normal_rows(9, B - 2, B + 3, 5, stream=3), ndtri(u).reshape(5, 5)
    )


@pytest.mark.parametrize("start, stop, width", [
    (5, 6, 7),  # one unit, first position 35: 3 mod 4
    (3, 30_000, 6),  # across three conversion pieces
    (1, 3, streams.UNIFORM_CHUNK + 1),  # a unit wider than a piece
])
def test_uniform_columns_read_units_as_columns(start, stop, width):
    # column i is unit start + i: uniforms [(start + i) * width, ...)
    want = _reference(9, start * width, (stop - start) * width, 3)
    buf = np.full((width, stop - start + 2), np.nan)
    out = streams.uniform_columns(9, start, stop, 3, buf[:, : stop - start])
    assert np.shares_memory(out, buf)
    np.testing.assert_array_equal(buf[:, : stop - start], want.reshape(-1, width).T)
    assert np.isnan(buf[:, stop - start :]).all()


def test_readers_hold_one_piece_of_raw_outputs():
    # into a given buffer, each reader holds one piece of UNIFORM_CHUNK raw
    # outputs at a time: no second piece, and no ufunc buffer for the
    # strided writes of `uniform_columns`
    columns, rows = np.empty((6, 29_127)), np.empty((8192, 32))
    for read in (lambda: streams.uniform_columns(1, 3, 29_130, 2, columns),
                 lambda: streams.normal_rows(1, 5, 8197, 32, 3, out=rows)):
        read()  # imports ndtri
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < streams.UNIFORM_CHUNK * 8 + 2**14


def test_duplicate_stream_id_fails_import_under_optimize(tmp_path):
    source = Path(streams.__file__).read_text()
    duplicated = source.replace("STREAM_RIESZ = 11", "STREAM_RIESZ = 10")
    assert duplicated != source
    path = tmp_path / "streams_copy.py"
    path.write_text(duplicated)
    proc = subprocess.run([sys.executable, "-O", str(path)], capture_output=True, text=True)
    assert proc.returncode != 0
    assert "ImportError: stream ids are not unique" in proc.stderr


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# SHA-256 of the little-endian float64 bytes, seed 7, for each registered
# stream: (uniforms at positions [0, 1000) and [5*2^20 + 3, +1000);
# normal rows [1000, 1256) of width 8; normal rows [R - 128, R + 128) and
# [3R + 5, 3R + 261) of width 8, R = 65536). The first two held before
# normal rows were flat-addressed; the third pins rows at and beyond R. A
# changed digest is a changed stream, and every record drawn from it moves.
STREAM_DIGESTS = {
    "STREAM_MARKOV": (
        "57573b925646e8e472f3b43b99b5c95c0ab7ef998c7795440e5ad0c047767941",
        "f525f4733611d046de3a717e0b0b918276087f0cf1f10ec8fd5674c5d4af3c51",
        "71321d20d6a79398fd555c341daa2cd8287721aed56af8b3f0841c593055ba0b",
    ),
    "STREAM_DPP": (
        "35761caf9289fe049ce3574e9f2d4dc49c6b2e75e588fb9eff69464963d43d02",
        "2de40ed7de6683e5b50a1da5c530679cad4fefbf3507c677749fcb9229f021e5",
        "ebe8725feeba6bb67396e36c3243c9d26958f5bb66ca1212d3e97356aa66bfc0",
    ),
    "STREAM_WHITENOISE": (
        "c6ba93294bf57eec96242e69da65337a3c849226f5fb9b932558b1da591fd17a",
        "73d397131f9c116ef451e3c2d5339ddf518b49ac2b8f88a75ba1cb97ec814002",
        "67a96398e3c4bd2831b73eeea8d55fc663033fe0cffa97e58c88ab44db635f50",
    ),
    "STREAM_PROBES": (
        "06117e33f3c53dfbd764127f4901ce6470daec1e1865cf53b06595877cd04b6f",
        "8d6c2222b49d15f107aeda726c87123da5737f00923293e8ca4ef6f3c59ace44",
        "f95823fe53610a7abf5e5fd8125ef2d55f32ff6c79aa344c7dca5e22918ac570",
    ),
    "STREAM_COCYCLE": (
        "a9baf54d136d63c08cc24642e6f580d938d205eda3eb0f8e4b8fd9ec3a81a52f",
        "76460a3d32773bf679de896e0f4f7c91a1bcdc136bac3c351b5cccb34ff9fda1",
        "694e5c651990de77de2f33aa1b5d9629b7708b70c463c65646ddfbf7a43b3c1f",
    ),
    "STREAM_RIESZ": (
        "1e38625cd26685e2c285bc9887672cff55458addb98ef1216cbd064ccc2f81ec",
        "8247b63b97c7ebd82b04ff775863d2bc7d0439b85d38c1f58129698d3867db20",
        "76e386375380b10f4f158e97f1ccda1cffad899363e49673f4f4b5a4f6c2b109",
    ),
}


def test_every_stream_is_pinned():
    assert set(STREAM_DIGESTS) == set(streams.STREAM_IDS)


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_stream_digests(name):
    s = streams.STREAM_IDS[name]
    r = 1 << 16
    uniforms = _sha256(
        _flat(7, 0, 1000, stream=s),
        _flat(7, 5 * 2**20 + 3, 1000, stream=s),
    )
    below = _sha256(streams.normal_rows(7, 1000, 1256, 8, stream=s))
    beyond = _sha256(
        streams.normal_rows(7, r - 128, r + 128, 8, stream=s),
        streams.normal_rows(7, 3 * r + 5, 3 * r + 261, 8, stream=s),
    )
    assert (uniforms, below, beyond) == STREAM_DIGESTS[name]
