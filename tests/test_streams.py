import hashlib
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from framemeasures import streams
from framemeasures.errors import DimensionMismatch, InvalidEnsembleSize

B = streams.BLOCK_ROWS
N = streams.NORMAL_ROWS


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
            for name in ("random_raw", "_generator_at", "UNIFORM_CHUNK", "SeedSequence",
                         "standard_normal"):
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


def test_open_unit_matches_formula_bitwise():
    raw = streams._philox(11, 4).random_raw(1_000_000)
    expected = _old_open_unit(raw)
    np.testing.assert_array_equal(streams._to_open_unit(raw.copy()), expected)


def _unit_rows(seed, stream, unit, cols):
    # the NORMAL_ROWS rows of a unit: its generator's draws, in order
    key = np.random.SeedSequence(seed, spawn_key=(stream, unit))
    return np.random.Generator(np.random.SFC64(key)).standard_normal(N * cols).reshape(N, cols)


def _reference_rows(seed, start, stop, cols, stream):
    units = range(start // N, (stop - 1) // N + 1)
    rows = np.concatenate([_unit_rows(seed, stream, k, cols) for k in units])
    return rows[start - units[0] * N : stop - units[0] * N]


# The law test's sample: LAW_UNITS units of 32 columns, 2^22 normals; its
# equiprobable bins of Phi; its tails |z| > c; and its false-failure rate,
# half of it the bins' chi-square, a quarter each tail's binomial band.
LAW_UNITS, LAW_COLS = 16, 32
LAW_BINS = 64
LAW_TAILS = (3.5, 4.5)
LAW_ALPHA = 1e-6


def test_normal_rows_follow_the_normal_law_in_bins_and_tails():
    # a pass's 5-sigma band sees only each coordinate's mean and variance,
    # so a wrong ziggurat layer or tail would pass it; a correct stream
    # fails this test with probability at most LAW_ALPHA
    from scipy.special import ndtr, ndtri
    from scipy.stats import binom, chi2

    edges = ndtri(np.arange(1, LAW_BINS) / LAW_BINS)
    bins, tails = np.zeros(LAW_BINS, dtype=np.int64), np.zeros(len(LAW_TAILS), dtype=np.int64)
    for unit in range(LAW_UNITS):
        z = streams.normal_rows(12, unit * N, (unit + 1) * N, LAW_COLS,
                                streams.STREAM_WHITENOISE).ravel()
        bins += np.bincount(np.searchsorted(edges, z), minlength=LAW_BINS)
        tails += [np.count_nonzero(np.abs(z) > c) for c in LAW_TAILS]
    n = LAW_UNITS * N * LAW_COLS
    expected = n / LAW_BINS
    stat = float(((bins - expected) ** 2).sum() / expected)
    assert stat < chi2.isf(LAW_ALPHA / 2, LAW_BINS - 1), stat
    for c, count in zip(LAW_TAILS, tails):
        p = 2.0 * ndtr(-c)
        # each side of the band takes LAW_ALPHA / 8
        low, high = binom.cdf(count, n, p), binom.sf(count - 1, n, p)
        assert min(low, high) > LAW_ALPHA / 8, (c, int(count), n * p)


def test_normal_rows_within_a_block():
    z = streams.normal_matrix(9, 2 * B, 5, stream=3)
    for lo, hi in [(B + 333, B + 4000), (B - 1, B + 1), (B - 700, 2 * B)]:
        np.testing.assert_array_equal(streams.normal_rows(9, lo, hi, 5, stream=3), z[lo:hi])


@pytest.mark.parametrize("start, stop, cols", [
    (1, 30_000, 7),  # across four units
    (3, 4, 7),  # one row
    (8190, 8190 + 2 * streams.UNIFORM_CHUNK // 5 + 1, 5),  # five units, starting inside one
    # the last rows of a unit and the first of the next, discarding more
    # than a piece of UNIFORM_CHUNK normals
    (N - 3, N + 5, 9),
])
def test_normal_rows_into_out_equals_a_fresh_result(start, stop, cols):
    # a range that starts inside a unit reads the rows a read from row 0 reads
    want = _reference_rows(9, start, stop, cols, 3)
    got = streams.normal_rows(9, start, stop, cols, stream=3)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(streams.normal_rows(9, 0, stop, cols, 3)[start:], want)
    # a view whose rows are not contiguous is filled in row order too
    strided = np.full((stop - start, 2 * cols), np.nan)[:, ::2]
    np.testing.assert_array_equal(streams.normal_rows(9, start, stop, cols, 3, out=strided), want)
    buf = np.full((stop - start + 3, cols), np.nan)
    out = streams.normal_rows(9, start, stop, cols, stream=3, out=buf[: stop - start])
    assert np.shares_memory(out, buf)
    np.testing.assert_array_equal(buf[: stop - start], want)
    assert np.isnan(buf[stop - start :]).all()


def test_normal_rows_read_flat_positions():
    # entry (i, j) of a width-5 matrix is draw 5*(i mod N) + j of unit i // N;
    # B is the first row of unit B // N
    last = _unit_rows(9, 3, B // N - 1, 5)[-2:]
    first = _unit_rows(9, 3, B // N, 5)[:3]
    np.testing.assert_array_equal(
        streams.normal_rows(9, B - 2, B + 3, 5, stream=3), np.concatenate([last, first])
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
        read()  # the first call makes the objects that stay loaded
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < streams.UNIFORM_CHUNK * 8 + 2**14


def test_stream_ids_past_32_bits_are_refused():
    # an id of 2^32 or more would carry into the seed's bits of the key:
    # stream 2^32 of seed 5 would read stream 0, and stream 2^32 + 3 of
    # seed 4 stream 3 of seed 5
    for seed, stream in ((5, 2**32), (4, 2**32 + 3)):
        with pytest.raises(InvalidEnsembleSize, match="stream"):
            streams.normal_rows(seed, 0, 3, 2, stream=stream)
    last = streams.normal_rows(5, 0, 3, 2, stream=2**32 - 1)
    assert not np.array_equal(last, streams.normal_rows(5, 0, 3, 2, stream=0))
    # so is a normal unit of 2^32 or more, each spawn-key entry being one
    # 32-bit word; the last unit is read
    with pytest.raises(InvalidEnsembleSize, match="normal unit"):
        streams.normal_rows(5, 2**32 * N, 2**32 * N + 1, 2, stream=0)
    with pytest.raises(InvalidEnsembleSize, match="normal unit"):
        streams.normal_rows(5, 2**32 * N - 1, 2**32 * N + 1, 2, stream=0)
    top = streams.normal_rows(5, 2**32 * N - 1, 2**32 * N, 2, stream=0)
    np.testing.assert_array_equal(top, _unit_rows(5, 0, 2**32 - 1, 2)[-1:])
    # seed 2^32 of stream 3 and seed 0 of stream 1 share the list entropy
    # [2^32, 3, 0] = [0, 1, 3] of 32-bit words; the spawn key keeps their
    # units 0 and 3 apart
    np.testing.assert_array_equal(
        np.random.SeedSequence([2**32, 3, 0]).generate_state(4),
        np.random.SeedSequence([0, 1, 3]).generate_state(4),
    )
    a = streams.normal_rows(2**32, 0, 4, 2, stream=3)
    b = streams.normal_rows(0, 3 * N, 3 * N + 4, 2, stream=1)
    assert not np.isin(a, b).any()


def test_negative_stream_id_is_refused():
    for read in (lambda: streams.normal_rows(5, 0, 3, 2, stream=-1),
                 lambda: streams.uniform_columns(5, 0, 3, -1, np.empty((2, 3)))):
        with pytest.raises(InvalidEnsembleSize, match="stream"):
            read()


def test_readers_refuse_a_range_that_out_does_not_hold():
    # the readers read stop - start units, and out must hold exactly those
    with pytest.raises(DimensionMismatch):
        streams.uniform_columns(1, 0, 1, 2, np.empty((2, 4)))
    with pytest.raises(DimensionMismatch):
        streams.normal_rows(1, 0, 3, 2, stream=2, out=np.empty((4, 2)))
    with pytest.raises(DimensionMismatch):
        streams.normal_rows(1, 0, 3, 2, stream=2, out=np.empty((3, 3)))
    with pytest.raises(DimensionMismatch):
        streams.uniform_columns(1, 0, 3, 2, np.empty(3))
    for start, stop in ((5, 3), (-1, 2)):
        with pytest.raises(InvalidEnsembleSize):
            streams.normal_rows(1, start, stop, 2, stream=2)
        with pytest.raises(InvalidEnsembleSize):
            streams.uniform_columns(1, start, stop, 2, np.empty((2, 0)))
    # an empty range reads nothing
    assert streams.normal_rows(1, 3, 3, 2, stream=2).shape == (0, 2)


def test_normal_rows_of_zero_width_are_empty():
    assert streams.normal_rows(1, 0, 3, 0, stream=2).shape == (3, 0)
    # the address is still checked
    with pytest.raises(InvalidEnsembleSize, match="stream"):
        streams.normal_rows(1, 0, 3, 0, stream=2**32)


def test_uniform_columns_of_zero_width_leave_out_unchanged():
    out = np.empty((0, 3))
    assert streams.uniform_columns(1, 0, 3, 2, out) is out
    with pytest.raises(InvalidEnsembleSize, match="stream"):
        streams.uniform_columns(1, 0, 3, 2**32, out)


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
# [3R + 5, 3R + 261) of width 8, R = 65536). The uniform digests held
# before normal rows were flat-addressed; the normal rows are read from
# the ziggurat of one SFC64 generator per unit, and pin rows within a
# unit, across a boundary and in units beyond R. A changed digest is a
# changed stream, and every record drawn from it moves.
STREAM_DIGESTS = {
    "STREAM_MARKOV": (
        "57573b925646e8e472f3b43b99b5c95c0ab7ef998c7795440e5ad0c047767941",
        "86a8e5e2b63473e6b6dbf6da32f759bb904367c816404d4e2396b57f5e72bfd0",
        "87d57bc5842c08d334277a50e1730f993cfbfd20b9ba3ea25cd3453c98039012",
    ),
    "STREAM_DPP": (
        "35761caf9289fe049ce3574e9f2d4dc49c6b2e75e588fb9eff69464963d43d02",
        "1414d0281ea13596f442e1ca54239c37f62ad6b0898db3a7b4db03c73f8b1f65",
        "407cd2a0101a5456a9383b6a1ff69d8cf1ddb60b634b8f094546c37d840b1ea6",
    ),
    "STREAM_WHITENOISE": (
        "c6ba93294bf57eec96242e69da65337a3c849226f5fb9b932558b1da591fd17a",
        "c0b06abad21d06ab8ae7372e7ab6515aa0580594c32058588341229804625d88",
        "f47dc1a69a7d9ceaca0b6ab4151b5321e516a98b74fca79e6266fbe76aaabb37",
    ),
    "STREAM_PROBES": (
        "06117e33f3c53dfbd764127f4901ce6470daec1e1865cf53b06595877cd04b6f",
        "436ea9309c8236932e6fda10f814d0bf5ea07f1c7c2d0dc16401310386d41497",
        "37e82a8fdd5759cfd442e371126d35e136a9806b991d4bcce0b5a77de8183f20",
    ),
    "STREAM_COCYCLE": (
        "a9baf54d136d63c08cc24642e6f580d938d205eda3eb0f8e4b8fd9ec3a81a52f",
        "c6770c1bd677a602d31b800e96b757a9245b0cb851ba2ab8a3c497572d0abe05",
        "be9dcd009c7d348fa8928faa9bb309ffc68247f08e274bf20d857f6e8f672f0c",
    ),
    "STREAM_RIESZ": (
        "1e38625cd26685e2c285bc9887672cff55458addb98ef1216cbd064ccc2f81ec",
        "0037712283b820c1f20aecce3e4614cc6b8ea35e1490ac5b9985bb82a8b67074",
        "3eb3afd79e4c94e2a208ebc1b542a0ac6d04988a9acd48c83572103fbb2b1ae0",
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
    ranges = ((1000, 1256), (r - 128, r + 128), (3 * r + 5, 3 * r + 261))
    rows = [streams.normal_rows(7, lo, hi, 8, stream=s) for lo, hi in ranges]
    for (lo, hi), got in zip(ranges, rows):
        np.testing.assert_array_equal(got, _reference_rows(7, lo, hi, 8, s))
    assert (uniforms, _sha256(rows[0]), _sha256(*rows[1:])) == STREAM_DIGESTS[name]
