"""Seeded random streams for reproducible Monte Carlo.

Every variate is a pure function of its address in a (seed, stream)
stream, so results never depend on execution order, chunking, or thread
count. Each consumer names its stream from the registry below; only the
readers here, `normal_rows` and `uniform_columns` (which the DPP and
Markov samplers use), compute an address.

Uniforms are read by position: position p of a stream is raw output p of
a Philox-4x64 generator keyed by (seed, stream), and variate j of unit i,
where a unit (a path, a draw) has width w, is at position i*w + j. Any
single uniform costs the same to reach.

Normals are read by unit: the rows [k*NORMAL_ROWS, (k+1)*NORMAL_ROWS) of
the (seed, stream) normal matrix with c columns are the (NORMAL_ROWS, c)
normals that numpy's ziggurat (`Generator.standard_normal`, Marsaglia &
Tsang 2000) draws in order from an SFC64 generator seeded by
SeedSequence(seed, spawn_key=(stream, k)). The ziggurat draws most
normals from one raw output, but it consumes a variable number of them,
so a normal has no fixed position: reading one means drawing its unit up
to its row. The rows of a unit are a prefix of its sequence, so the
first m rows of a matrix are the matrix of m rows.

`map_blocks` is the one entry point to the library's thread pool, whose
size FRAMES_THREADS caps: it runs blocks of units, each with a lent
scratch buffer, and yields their results in order.
"""
import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# The registry of stream ids, one per consumer, so a shared seed never
# aliases streams. Every id of the library is declared here, below 2^32:
# the id keys bits 32..63 of the Philox generator, the seed bits 64..127,
# and it is one 32-bit word of a normal unit's spawn key.
STREAM_MARKOV = 1
STREAM_DPP = 2
STREAM_WHITENOISE = 3
STREAM_PROBES = 9
STREAM_COCYCLE = 10
STREAM_RIESZ = 11
STREAM_IDS = {name: value for name, value in globals().items() if name.startswith("STREAM_")}
if len(set(STREAM_IDS.values())) != len(STREAM_IDS):
    # raised, not asserted, so that `python -O` keeps the check
    raise ImportError(f"stream ids are not unique: {STREAM_IDS}")

# imported after the registry check, so that the check runs even on this
# file loaded outside its package
from .errors import DimensionMismatch  # noqa: E402
from .frames import as_count  # noqa: E402

# A seed keys the Philox generator's upper 64 bits: 0 <= seed <= SEED_MAX.
SEED_MAX = (1 << 64) - 1
WORD_MAX = (1 << 32) - 1

# Rows of a normal unit, each drawn by one generator; see the module docstring.
NORMAL_ROWS = 1 << 13
# Rows per task of `normal_matrix`, a whole number of units; both serve
# only the stream tests and perfbench's probe.
BLOCK_ROWS = 1 << 16


def _address(seed: int, stream: int) -> tuple:
    stream = as_count(stream, "stream", 0, WORD_MAX)
    return as_count(seed, "seed", 0, SEED_MAX), stream


def _philox(seed: int, stream: int) -> np.random.Philox:
    seed, stream = _address(seed, stream)
    return np.random.Philox(key=(seed << 64) | (stream << 32))


# largest double below 1: the top raw values would otherwise round up to 1.0
_BELOW_ONE = np.nextafter(1.0, 0.0)
# Raw outputs drawn at a time (a unit at least) by `_read_units`, which
# converts them into the buffer that holds the result. So no array of the
# raw outputs of a whole range exists.
UNIFORM_CHUNK = 1 << 16


def _to_open_unit(raw: np.ndarray) -> np.ndarray:
    """uint64 -> float64 in the open interval (0, 1), 53-bit resolution.

    Shifts the 1-D `raw` in place and writes the result over its own
    buffer, returning a float64 view of it. Value k = raw >> 11 maps to
    (k + 0.5) * 2^-53 by one exact int64 -> float64 cast (k < 2^53), which
    numpy makes in place without a copy: over one dimension, its loop
    reads each value before it writes over it. The top value k = 2^53 - 1
    rounds to 1.0 and is clamped below it.
    """
    np.right_shift(raw, np.uint64(11), out=raw)
    out = raw.view(np.float64)
    np.copyto(out, raw.view(np.int64), casting="unsafe")
    out += 0.5
    out *= 2.0**-53
    return np.minimum(out, _BELOW_ONE, out=out)


def _generator_at(seed: int, stream: int, start: int) -> np.random.Philox:
    """The (seed, stream) generator, about to emit raw output `start`.

    Philox counter steps emit 4 raw outputs, so the generator is advanced
    by start // 4 and the remainder discarded; consecutive draws continue
    the stream, so any chunking of a range yields the same values.
    """
    bg = _philox(seed, stream)
    bg.advance(start // 4)
    bg.random_raw(start % 4)
    return bg


def _unit_count(start: int, stop: int) -> int:
    return as_count(stop, "stop", as_count(start, "start", 0)) - start


def _read_units(seed: int, stream: int, start: int, stop: int, view) -> None:
    """Units [start, stop) of the (seed, stream) uniforms into `view`, a
    (stop - start, w) array or view: entry (i, j) is position
    (start + i)*w + j. The raw outputs are drawn and converted whole units
    at a time, UNIFORM_CHUNK of them or one unit, and each piece is
    copied into its rows of the view."""
    if view.ndim != 2 or len(view) != _unit_count(start, stop):
        raise DimensionMismatch(f"out does not hold exactly the units [{start}, {stop})")
    units, width = view.shape
    step = max(1, UNIFORM_CHUNK // max(width, 1))
    bg = _generator_at(seed, stream, start * width)
    for lo in range(0, units, step):
        piece = view[lo : lo + step]
        # unnamed, the raw piece is freed before the next one is drawn
        np.copyto(piece, _to_open_unit(bg.random_raw(piece.size)).reshape(piece.shape))


# Multiply-adds up to which OpenBLAS runs a matrix product (gemm) on the
# calling thread. A larger product starts the library's own threads, which
# then compete with the workers of `map_blocks` for the cores, so a task
# on the pool keeps each of its products within this bound.
BLAS_SERIAL_MADDS = 1 << 18


def worker_count() -> int:
    """Worker cap from FRAMES_THREADS (defaults to the CPUs this process
    may run on).

    Results are identical for any value: workers fill or reduce disjoint,
    position-keyed row ranges, and reductions merge them in a fixed order.
    """
    try:
        cap = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cap = os.cpu_count() or 1
    env = os.environ.get("FRAMES_THREADS")
    if env:
        try:
            cap = min(cap, max(1, int(env)))
        except ValueError:
            pass
    return cap


def map_blocks(fn, count: int, block: int, scratch=lambda: None, workers: int | None = None):
    """Yield fn(lo, hi, lent) for each block [lo, hi) of range(count), in
    order, the last one short, computed in up to min(workers, blocks)
    threads (`workers` defaults to `worker_count()`; one runs them inline).
    Each call in flight borrows `lent`, one of the `scratch()` buffers,
    which are made here, on the calling thread, one per thread, and never
    lent to two calls at once. Consume the results as they come: only the
    blocks in flight hold their working memory."""
    starts = range(0, count, block)
    workers = min(worker_count() if workers is None else workers, len(starts))
    spare = queue.SimpleQueue()
    for _ in range(workers):
        spare.put(scratch())

    def run(lo: int):
        lent = spare.get()
        try:
            return fn(lo, min(count, lo + block), lent)
        finally:
            spare.put(lent)

    if workers < 2:
        yield from map(run, starts)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(run, starts)
    finally:
        # a block that raised, or a consumer that stopped early, cancels the rest
        pool.shutdown(cancel_futures=True)


def normal_rows(seed: int, start: int, stop: int, cols: int, stream: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Rows [start, stop) of the (seed, stream) normal matrix with `cols`
    columns, written into `out`, a (stop - start, cols) array or view, when
    given. Row i is in unit i // NORMAL_ROWS, whose generator draws the
    rows in order; see the module docstring. A range that starts inside a
    unit draws and discards that unit's earlier rows, UNIFORM_CHUNK
    normals at a time.
    """
    count = _unit_count(start, stop)
    seed, stream = _address(seed, stream)
    # the last unit read: each spawn-key entry is one 32-bit word
    as_count(max(stop - 1, 0) // NORMAL_ROWS, "normal unit", 0, WORD_MAX)
    out = np.empty((count, cols)) if out is None else out
    if out.shape != (count, cols):
        raise DimensionMismatch(f"out of shape {out.shape} does not hold rows [{start}, {stop}) "
                                f"of {cols} columns")
    lo = start
    while lo < stop:
        unit, row = divmod(lo, NORMAL_ROWS)
        hi = min(stop, (unit + 1) * NORMAL_ROWS)
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            seed, spawn_key=(stream, unit))))
        for skipped in range(0, row * cols, UNIFORM_CHUNK):
            gen.standard_normal(min(UNIFORM_CHUNK, row * cols - skipped))
        piece = out[lo - start : hi - start]
        if piece.flags.c_contiguous:
            gen.standard_normal(out=piece)
        else:
            # the generator fills memory order, which is row order only here
            piece[...] = gen.standard_normal(piece.shape)
        lo = hi
    return out


def uniform_columns(seed: int, start: int, stop: int, stream: int, out: np.ndarray) -> np.ndarray:
    """Units [start, stop) of width w of the (seed, stream) uniforms, one
    column per unit, into `out`, a (w, stop - start) array or view: entry
    (j, i) is position (start + i)*w + j, so a step over the units reads a
    row."""
    _read_units(seed, stream, start, stop, out.T)
    return out


def normal_matrix(
    seed: int,
    rows: int,
    cols: int,
    stream: int,
    workers: int | None = None,
) -> np.ndarray:
    """(rows, cols) i.i.d. standard normals, filled BLOCK_ROWS rows per task.

    Entry (i, j) is a pure function of (seed, stream, i, j); see
    `normal_rows`. Tasks may run in any number of threads in any order.
    Only the stream tests and perfbench's probe of the pool call it.
    """
    out = np.empty((rows, cols))

    def fill(lo: int, hi: int, _) -> None:
        normal_rows(seed, lo, hi, cols, stream=stream, out=out[lo:hi])

    for _ in map_blocks(fill, rows, BLOCK_ROWS, workers=workers):
        pass
    return out


def cdf_table(cumulative: np.ndarray) -> np.ndarray:
    """Search table of `inverse_cdf_index` for (r, n) non-decreasing rows.

    Row i holds cumulative[i] with its last partial sum replaced by +inf,
    padded with +inf to width w = 2^ceil(log2 n). The +inf in column n - 1
    is the clamp: a uniform beyond every earlier partial sum takes index
    n - 1, however the row's total rounds.
    """
    rows, n = cumulative.shape
    table = np.full((rows, 1 << (n - 1).bit_length()), np.inf)
    table[:, : n - 1] = cumulative[:, : n - 1]
    return table


def inverse_cdf_index(table: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices j = min(min{ j : cumulative[row, j] >= u }, n - 1), one per
    (row, u) pair, over a `cdf_table` of the cumulative rows.

    Ties at floating-point boundaries (u == cumulative[row, j]) resolve to
    the lower index; uniforms beyond the last partial sum clamp to the
    final index: `np.searchsorted(cumulative[row], u, "left")` and the
    clamp, bit for bit. Each of the log2(w) rounds of the bisection halves
    the candidate range of every pair at once, without a branch: the count
    of partial sums below u grows by s wherever entry pos + s - 1 lies
    below u, for s = w/2, ..., 1.
    """
    width = table.shape[1]
    flat = table.ravel()
    pos = rows * width
    s = width >> 1
    while s:
        pos += (flat[s - 1 :][pos] < u) * s
        s >>= 1
    pos -= rows * width
    return pos
