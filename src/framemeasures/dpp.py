"""Determinantal measures from frame Gramians.

The Gramian G of a frame has every principal minor nonnegative, and after
dividing by the upper frame bound its spectrum lies in [0, 1] (the
operator estimate T*T <= beta I read on the Gramian side). Such a kernel
K defines a determinantal measure on point configurations in the index
set: mu(Phi contains S) = det(K_S).

Sampling is exact and two-phase (spectral method): eigenvectors of K are
kept independently with probability lambda_i, and the resulting projection
kernel is sampled point-by-point through its conditional kernels (Schur
complements), vectorized across draws. A Moebius-inversion oracle
enumerates the full subset distribution for n <= 20 as an independent
cross-check.
"""
import itertools
from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import (
    IndexOutOfRange,
    InvalidEnsembleSize,
    InvalidKernel,
    NotDeterminantal,
    TooLarge,
)
from .frames import Frame, GramMatrix, gram

SPECTRUM_TOL = 1e-10
SYMMETRY_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-10
BRUTEFORCE_MAX = 20
# Subsets per batched `det` call: 2^15 submatrices of size 10 (the widest
# layer at n = 20) take 26 MB.
MINOR_CHUNK = 1 << 15
# Doubles in the (block, n, n) projection-kernel workspace of
# `sample_masks`. Draws do not depend on the block size; 8 MB keeps the
# Schur updates near the cache (32 MB took 35-60% longer for 100k draws
# at n = 12 to 18).
SAMPLER_WORKSPACE = 1_000_000


@dataclass(frozen=True)
class DppKernel:
    """Symmetric correlation kernel with spectrum in [0, 1].

    eigenvalues/eigenvectors cache the symmetric eigendecomposition
    (ascending order, eigenvectors as columns).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True)
class PointConfiguration:
    """Sorted tuple of distinct indices: one realization of Phi."""

    indices: tuple

    def __post_init__(self):
        idx = self.indices
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise IndexOutOfRange("indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)


def kernel_from_matrix(k) -> DppKernel:
    """Validate a raw symmetric matrix as a correlation kernel."""
    mat = np.asarray(k, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidKernel(f"kernel must be square, got shape {mat.shape}")
    if np.abs(mat - mat.T).max() > SYMMETRY_TOL:
        raise InvalidKernel("kernel is not symmetric")
    mat = (mat + mat.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    if eigenvalues[0] < -SPECTRUM_TOL or eigenvalues[-1] > 1.0 + SPECTRUM_TOL:
        raise InvalidKernel(
            f"kernel spectrum [{eigenvalues[0]:.3g}, {eigenvalues[-1]:.3g}] "
            "escapes [0, 1]"
        )
    mat.setflags(write=False)
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return DppKernel(matrix=mat, eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def kernel_from_frame(frame: Frame) -> DppKernel:
    """K = G / beta: the Gramian normalized by the upper frame bound."""
    g = gram(frame)
    return kernel_from_matrix(g.entries / frame.upper_bound)


def kernel_from_gram(gram_matrix: GramMatrix) -> DppKernel:
    """Strict mode: accept an unnormalized Gramian only if its spectrum
    already lies in [0, 1]."""
    return kernel_from_matrix(gram_matrix.entries)


def inclusion_probability(kernel: DppKernel, config: PointConfiguration) -> float:
    """mu(Phi contains S) = det(K_S); the empty set has probability 1."""
    idx = list(config.indices)
    n = kernel.size
    if any(not 0 <= i < n for i in idx):
        raise IndexOutOfRange(f"indices must lie in 0..{n - 1}")
    if not idx:
        return 1.0
    return float(np.linalg.det(kernel.matrix[np.ix_(idx, idx)]))


def _subset_minors(kernel: DppKernel) -> np.ndarray:
    """det(K_S) for every subset S, indexed by bitmask.

    One batched `det` per cardinality layer, MINOR_CHUNK subsets at a
    time: each minor is the same LAPACK factorization of the same
    submatrix as a single `det` call, so its bits do not depend on the
    batching.
    """
    n = kernel.size
    if n > BRUTEFORCE_MAX:
        raise TooLarge(f"subset enumeration capped at n = {BRUTEFORCE_MAX}, got {n}")
    mat = kernel.matrix
    out = np.empty(1 << n)
    out[0] = 1.0
    for c in range(1, n + 1):
        subsets = itertools.combinations(range(n), c)
        rows = np.dtype((np.intp, c))
        while (idx := np.fromiter(itertools.islice(subsets, MINOR_CHUNK), dtype=rows)).size:
            out[(1 << idx).sum(axis=1)] = np.linalg.det(mat[idx[:, :, None], idx[:, None, :]])
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
        raise NotDeterminantal(f"subset table sums to {table.sum()!r}")
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


def sample_masks(kernel: DppKernel, m: int, seed: int) -> np.ndarray:
    """m exact draws as a boolean (m, n) inclusion matrix.

    Phase 1 keeps eigenvector i with probability lambda_i (eigenvalues
    within 1e-10 of 0 or 1 are clamped first, so projection directions
    never flicker). Phase 2 samples the induced projection kernel exactly,
    walking the ground set and conditioning by Schur complement on each
    accept/reject. Draw i consumes uniforms [i*2n, (i+1)*2n) of the
    (seed, STREAM_DPP) stream, so every draw depends only on
    (seed, draw index).
    """
    if m < 1:
        raise InvalidEnsembleSize("sample count m must be >= 1")
    n = kernel.size
    lam = kernel.eigenvalues.copy()
    lam[np.abs(lam) <= EIGENVALUE_CLAMP] = 0.0
    lam[np.abs(lam - 1.0) <= EIGENVALUE_CLAMP] = 1.0
    v = kernel.eigenvectors

    out = np.empty((m, n), dtype=bool)
    block = max(1, SAMPLER_WORKSPACE // max(n * n, 1))
    for lo in range(0, m, block):
        hi = min(m, lo + block)
        u = streams.uniforms_at(seed, lo * 2 * n, (hi - lo) * 2 * n, stream=streams.STREAM_DPP)
        out[lo:hi] = _sample_block(lam, v, u.reshape(hi - lo, 2 * n))
    return out


def _sample_block(lam: np.ndarray, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    n = lam.size
    b = u.shape[0]
    keep = (u[:, :n] < lam[None, :]).astype(float)
    # per-draw projection kernels P = V diag(keep) V^T
    proj = np.einsum("ik,mk,jk->mij", v, keep, v, optimize=True)
    chosen = np.zeros((b, n), dtype=bool)
    for t in range(n):
        p = np.clip(proj[:, t, t], 0.0, 1.0)
        inc = u[:, n + t] < p
        chosen[:, t] = inc
        if t == n - 1:
            break
        denom = np.where(inc, np.maximum(p, 1e-12), np.minimum(p - 1.0, -1e-12))
        col = proj[:, t + 1 :, t]
        row = proj[:, t, t + 1 :]
        proj[:, t + 1 :, t + 1 :] -= col[:, :, None] * row[:, None, :] / denom[:, None, None]
    return chosen


def dpp_sample(kernel: DppKernel, m: int, seed: int):
    """m independent exact draws as PointConfiguration values."""
    masks = sample_masks(kernel, m, seed)
    return [
        PointConfiguration(indices=tuple(int(j) for j in np.nonzero(row)[0]))
        for row in masks
    ]


def empirical_subset_distribution(masks: np.ndarray) -> np.ndarray:
    """Relative subset frequencies of draws, indexed by bitmask."""
    n = masks.shape[1]
    if n > BRUTEFORCE_MAX:
        raise TooLarge(f"subset tabulation capped at n = {BRUTEFORCE_MAX}")
    codes = masks @ (1 << np.arange(n, dtype=np.int64))
    return np.bincount(codes, minlength=1 << n) / masks.shape[0]


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())
