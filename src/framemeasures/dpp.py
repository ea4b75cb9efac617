"""Determinantal measures from frame Gramians.

The Gramian G of a frame has every principal minor nonnegative, and after
dividing by the upper frame bound its spectrum lies in [0, 1] (the
operator estimate T*T <= beta I read on the Gramian side). Such a kernel
K defines a determinantal measure on point configurations in the index
set: mu(Phi contains S) = det(K_S).

Sampling is exact and two-phase (spectral method): eigenvectors of K are
kept independently with probability lambda_i, and the resulting projection
kernel is sampled point by point: the probability of each point given
the choices before it is a pivot of a left-looking LDL^T factorization
(Poulson 2019), computed one column per point and vectorized across
draws. A Moebius-inversion oracle enumerates the full subset
distribution for n <= 20 as an independent cross-check.

The sampler's blocks of draws run on the `streams.map_blocks` pool,
whose size FRAMES_THREADS caps. A draw's uniforms, its column of
`streams.uniform_columns`, depend only on (seed, draw index) and its
kernel on a product over a fixed group of draws. So no bit depends on
the thread count, and the sampler's block size does not change which
product computes a draw. A block is one function, `_sample_block`, over
buffers the pool lends it; its steps slice rows contiguous in the draws,
and each numpy call covers thousands of draws, so the workers seldom
wait for each other under the GIL.
"""
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .errors import DimensionMismatch, IndexOutOfRange, InvalidKernel, NotDeterminantal, TooLarge
from .frames import Frame, _gramian, as_count, as_indices, as_symmetric

SPECTRUM_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-10
BRUTEFORCE_MAX = 20
# Doubles at most (9.6 MB) in the (n, n, block) kernel workspace of a
# block of `sample_masks` of more than one product. Per draw a block also
# holds 2n uniforms as doubles and n decisions as bytes: at n = 3 a block,
# one product of 29,127 draws, holds 3.6 MB, and 10^6 draws peak at
# 11.8 MiB on two threads, output included.
SAMPLER_WORKSPACE = 1_200_000
# Draws a block takes, in whole products, within SAMPLER_WORKSPACE: each
# step makes about ten numpy calls over them, whose dispatch the workers
# take under the GIL in turn. One product holds this many at n <= 8, two
# at n <= 12, four at n = 16 and 18 (3,236 draws and 8.4 MB at n = 18).
BLOCK_DRAWS = 3_500
# Draws per `np.bincount` call of `empirical_subset_distribution`, whose
# intp copy of the int32 codes then stays at 512 KiB.
TABULATION_CHUNK = 1 << 16


@dataclass(frozen=True)
class DppKernel:
    """Symmetric correlation kernel with spectrum in [0, 1].

    eigenvalues/eigenvectors cache the symmetric eigendecomposition
    (ascending order, eigenvectors as columns). Kept from them: the
    spectrum_excess max(-lambda_min, lambda_max - 1) over [0, 1], and the
    sampler's keep_probabilities, eigenvalues within EIGENVALUE_CLAMP of 0
    or 1 clamped there."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    spectrum_excess: float = field(init=False)
    keep_probabilities: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = self.eigenvalues
        clamped = np.where(np.abs(lam - 1.0) <= EIGENVALUE_CLAMP, 1.0, lam)
        clamped[np.abs(lam) <= EIGENVALUE_CLAMP] = 0.0
        clamped.setflags(write=False)
        object.__setattr__(self, "spectrum_excess", float(max(-lam[0], lam[-1] - 1.0)))
        object.__setattr__(self, "keep_probabilities", clamped)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def kernel_from_matrix(k) -> DppKernel:
    """Validate a raw symmetric matrix (`frames.as_symmetric`) as a
    correlation kernel."""
    mat = as_symmetric(k, "kernel", InvalidKernel)
    mat = (mat + mat.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    for arr in (mat, eigenvalues, eigenvectors):
        arr.setflags(write=False)
    kernel = DppKernel(matrix=mat, eigenvalues=eigenvalues, eigenvectors=eigenvectors)
    if kernel.spectrum_excess > SPECTRUM_TOL:
        raise InvalidKernel(
            f"kernel spectrum [{eigenvalues[0]:.3g}, {eigenvalues[-1]:.3g}] escapes [0, 1]"
        )
    return kernel


def kernel_from_frame(frame: Frame) -> DppKernel:
    """K = G / beta: the Gramian normalized by the upper frame bound."""
    return kernel_from_matrix(_gramian(frame) / frame.upper_bound)


def inclusion_probability(kernel: DppKernel, indices) -> float:
    """mu(Phi contains S) = det(K_S) for S given by strictly increasing
    indices; the empty set has probability 1."""
    idx = as_indices(indices, "index", kernel.size)
    if idx.ndim != 1 or np.any(idx[1:] <= idx[:-1]):
        raise IndexOutOfRange(f"indices must be one strictly increasing list, got {indices!r}")
    if not idx.size:
        return 1.0
    return float(np.linalg.det(kernel.matrix[np.ix_(idx, idx)]))


def _subset_minors(kernel: DppKernel) -> np.ndarray:
    """det(K_S) for every subset S, indexed by bitmask, from one tree of
    Schur complements (Griffin & Tsatsomeros 2006), O(2^n) work in all.

    Step k extends each code S below 2^k by index k: out[S | 2^k] =
    out[S] * p, where p = K[k, k] - d[S, 0, 0] = det(K_{S+k}) / det(K_S).
    Row S of the stack d is K[k:, k:] minus the Schur complement of S, the
    sum of the updates c c^T / p so far; kept apart from K, each pivot is
    rounded once at K's scale. S keeps d[S, 1:, 1:], and S | 2^k adds
    c c^T / p to it, with c = K[k, k+1:] - d[S, 0, 1:]. A pivot <= 0
    counts as 0: its include branch gets minors 0 and the exclude branch's
    row. For a positive semidefinite K this is exact (a zero pivot forces
    a zero row), so no minor is negative and nothing divides by 0.
    """
    n = kernel.size
    if n > BRUTEFORCE_MAX:
        raise TooLarge(f"subset enumeration capped at n = {BRUTEFORCE_MAX}, got {n}")
    mat = kernel.matrix
    out = np.empty(1 << n)
    out[0] = 1.0
    d = np.zeros((1, n, n))
    for k in range(n):
        half, m = 1 << k, n - k - 1
        p = mat[k, k] - d[:, 0, 0]
        null = p <= 0.0
        p[null] = 0.0
        np.multiply(out[:half], p, out=out[half : 2 * half])
        p[null] = np.inf  # c c^T / inf = 0: the include row is the exclude one
        c = mat[k, k + 1 :] - d[:, 0, 1:]
        nxt = np.empty((2 * half, m, m))
        keep, inc = nxt[:half], nxt[half:]
        np.copyto(keep, d[:, 1:, 1:])
        np.multiply(c[:, :, None], c[:, None, :], out=inc)
        np.divide(inc, p[:, None, None], out=inc)
        np.add(keep, inc, out=inc)
        d = nxt
    return out


def _moebius(minors: np.ndarray) -> np.ndarray:
    """P(Phi = S) for every S from the minors det(K_T), indexed by bitmask
    (see `subset_distribution_bruteforce`); `minors` is left as it is."""
    if minors.min() < -SPECTRUM_TOL:
        raise NotDeterminantal(f"principal minor {minors.min():.3g} below -{SPECTRUM_TOL:g}")
    n = minors.size.bit_length() - 1
    table = minors.copy()
    for b in range(n):
        # rows [S, S | bit b] for every S without bit b
        v = table.reshape(-1, 2, 1 << b)
        v[:, 0] -= v[:, 1]
    if table.min() < -SPECTRUM_TOL:
        raise NotDeterminantal("Moebius inversion produced a significantly negative mass")
    table = np.clip(table, 0.0, None)
    if abs(table.sum() - 1.0) > 1e-9:
        raise NotDeterminantal(f"subset table sums to {float(table.sum())!r}")
    return table


def subset_distribution_bruteforce(kernel: DppKernel) -> np.ndarray:
    """Exact P(Phi = S) for every subset S, indexed by bitmask.

    Moebius inversion over the subset lattice:
    P(S) = sum over supersets T of S of (-1)^(|T|-|S|) det(K_T).
    Tiny negative values (>= -1e-10, floating noise) are clipped to 0;
    the table must sum to 1 within 1e-9.
    """
    return _moebius(_subset_minors(kernel))


def empty_probability(kernel: DppKernel) -> float:
    """P(Phi = empty) = det(I - K), an independent check of the table."""
    return float(np.linalg.det(np.eye(kernel.size) - kernel.matrix))


def _product_shape(n: int) -> tuple[int, int]:
    """(rows, draws) of the kernel products of `sample_masks`.

    Row i of a block's kernels, from entry i on, is (v[i:] * v[i]) @ keep^T;
    each product takes at most `rows` rows of v[i:] * v[i] and `draws`
    columns of keep^T, with rows * n * draws <= streams.BLAS_SERIAL_MADDS
    so that BLAS runs it on the calling thread. Both are at least 2 when n
    is, so every product but a last one-row piece of a row is a gemm
    (numpy sends a one-row or one-column product to gemv, which OpenBLAS
    threads from 9216 matrix entries on; a piece has n * draws of them).
    """
    draws = max(2, streams.BLAS_SERIAL_MADDS // (n * n))
    rows = min(n, max(2, streams.BLAS_SERIAL_MADDS // (n * draws)))
    return rows, draws


def _block_draws(n: int) -> int:
    """Draws per block of `sample_masks`: whole products toward
    BLOCK_DRAWS draws, as many as keep the (n, n, block) kernels within
    SAMPLER_WORKSPACE doubles, and at least one."""
    draws = _product_shape(n)[1]
    return draws * max(1, min(-(-BLOCK_DRAWS // draws), SAMPLER_WORKSPACE // (n * n * draws)))


def sample_masks(kernel: DppKernel, m: int, seed: int) -> np.ndarray:
    """m exact draws as a boolean (m, n) inclusion matrix.

    Phase 1 keeps eigenvector i with probability lambda_i (clamped, in
    the kernel's `keep_probabilities`, so projection directions never
    flicker). Phase 2 samples the induced projection kernel exactly,
    walking the ground set: point t is kept when its uniform falls below
    the pivot p_t of a left-looking LDL^T factorization of the kernel,
    whose step t conditions on the accept/reject of every earlier point
    and costs (n - t) t multiply-adds. Draw i consumes uniforms
    [i*2n, (i+1)*2n) of the (seed, STREAM_DPP) stream, so every draw
    depends only on (seed, draw index).

    Blocks of `_block_draws(n)` draws run on the `streams` pool. Within
    and across blocks, the kernel products cover fixed groups of draws
    (aligned to multiples of the product width from draw 0, the last one
    ending at draw m), so neither the thread count nor the block size
    changes the product that computes a draw. Each block in flight
    borrows the buffers of `_sample_block`, allocated here, on the
    calling thread.
    """
    m = as_count(m, "sample count m")
    n = kernel.size
    out = np.empty((m, n), dtype=bool)
    block = _block_draws(n)
    # one spare column lets a last product of one draw run as two
    width = min(block, m + 1)

    def scratch():
        return np.empty((n, n, width)), np.empty((2 * n, width)), np.empty((n, width), dtype=bool)

    def fill(lo: int, hi: int, lent) -> None:
        _sample_block(kernel, seed, lo, out[lo:hi], *lent)

    for _ in streams.map_blocks(fill, m, block, scratch=scratch):
        pass
    return out


def _sample_block(kernel: DppKernel, seed: int, first: int, out, kernels, uniforms,
                  chosen) -> None:
    """Draws first, first + 1, ... into `out`, their (b, n) rows of the
    output, in buffers lent for blocks of up to w draws: `kernels`
    (n, n, w), `uniforms` (2n, w) and `chosen` (n, w), draws innermost.
    It reads nothing in them that it has not written.

    The kernels P = V diag(keep) V^T are formed only at the entries
    P[i, i:] = P[i:, i] of each row i, the ones the steps read. Step t
    computes pivot column t of the conditioned kernels, left-looking:
    c_t[t:] = P[t:, t] - sum_{s<t} c_s[t:] c_s[t] / d_s, one contraction
    over s, in place of P[t:, t], which no later step reads as a kernel
    entry. The pivot p = c_t[t] decides point t, and d_t, p when it is
    kept and p - 1 when not, replaces it on the diagonal `denom`. The keep
    rows, the first n rows of `uniforms` compared in place, are spent once
    the kernels are formed: at step t rows s < t take the c_s[t] / d_s
    and rows from t on the contraction, then row 0 is scratch. Step t
    reads row n + t of `uniforms` and writes row t of `chosen`, both
    contiguous.
    """
    lam, v = kernel.keep_probabilities, kernel.eigenvectors
    n, b = lam.size, out.shape[0]
    streams.uniform_columns(seed, first, first + b, streams.STREAM_DPP, uniforms[:, :b])
    keep = uniforms[:n, :b]
    np.less(keep, lam[:, None], out=keep)
    uniforms[:n, b:] = 0.0
    rows, draws = _product_shape(n)
    vv = np.empty((n, n))
    for i in range(n):
        # entries i.. of row i, the ones the steps read; the last row also
        # takes entry n - 2, so that its product has two rows
        j = max(0, min(i, n - 2))
        np.multiply(v[j:], v[i], out=vv[j:])
        for r in range(j, n, rows):
            for lo in range(0, b, draws):
                hi = min(lo + draws, max(b, lo + 2))
                np.matmul(vv[r : r + rows], uniforms[:n, lo:hi],
                          out=kernels[i, r : r + rows, lo:hi])
    cols, denom = kernels[:, :, :b], kernels.reshape(n * n, -1)[:: n + 1, :b]
    kept = keep[0]
    for t in range(n):
        col, p, inc = cols[t, t:], denom[t], chosen[t, :b]
        if t:
            ratio, acc = keep[:t], keep[t:]
            np.divide(cols[:t, t], denom[:t], out=ratio)
            np.einsum("sjb,sb->jb", cols[:t, t:], ratio, out=acc)
            np.subtract(col, acc, out=col)
        np.maximum(p, 0.0, out=p)
        np.minimum(p, 1.0, out=p)
        np.less(uniforms[n + t, :b], p, out=inc)
        if t == n - 1:
            break
        # d_t: max(p, 1e-12) where point t is kept, else min(p - 1, -1e-12)
        np.maximum(p, 1e-12, out=kept)
        np.subtract(p, 1.0, out=p)
        np.minimum(p, -1e-12, out=p)
        np.copyto(p, kept, where=inc)
    np.copyto(out, chosen[:, :b].T)


def empirical_subset_distribution(masks: np.ndarray) -> np.ndarray:
    """Relative subset frequencies of draws, indexed by bitmask.

    `masks` is a boolean (m, n) array with one row per draw, m >= 1, as
    `sample_masks` returns; anything else raises DimensionMismatch. The
    codes are int32 (n <= BRUTEFORCE_MAX), summed one column at a time,
    and counted TABULATION_CHUNK draws at a time, the integer counts
    summed, so neither the masks nor all the codes are copied to int64."""
    if not (isinstance(masks, np.ndarray) and masks.dtype == bool and masks.ndim == 2
            and masks.shape[0]):
        got = (f"{masks.dtype} array of shape {masks.shape}" if isinstance(masks, np.ndarray)
               else type(masks).__name__)
        raise DimensionMismatch(f"masks must be a boolean (draws, n) array with at least "
                                f"one draw, got {got}")
    m, n = masks.shape
    if n > BRUTEFORCE_MAX:
        raise TooLarge(f"subset tabulation capped at n = {BRUTEFORCE_MAX}")
    counts = np.zeros(1 << n, dtype=np.intp)
    for lo in range(0, m, TABULATION_CHUNK):
        rows = masks[lo : lo + TABULATION_CHUNK]
        codes = np.zeros(rows.shape[0], dtype=np.int32)
        for i in range(n):
            codes += rows[:, i].astype(np.int32) << i
        counts += np.bincount(codes, minlength=1 << n)
    return counts / m


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())
