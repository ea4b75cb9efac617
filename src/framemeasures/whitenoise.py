"""Truncated Gaussian white-noise measure and its closed-form identities.

The standard Gaussian measure with characteristic functional
E[exp(i<x, .>)] = exp(-||x||^2 / 2) lives on a space strictly larger than
the Hilbert space. Its pushforward onto the first D coordinates of a fixed
orthonormal basis is the i.i.d. N(0,1) product on R^D, and every identity
checked here (Ito isometry, characteristic functional, moments, Gramian
covariance, synthesis/reconstruction, projection) holds *exactly* at any
truncation D >= dim(x), so Monte-Carlo verification at desk scale is
unbiased.

A WhiteNoiseEnsemble is the triple (D, M, seed) and nothing more: sample i
is row i of `streams.normal_rows(seed, 0, M, D, STREAM_WHITENOISE)`, and
the rows of a unit of that stream are a prefix of its sequence, so the
first m samples of an ensemble are the ensemble of m samples,
`WhiteNoiseEnsemble(D, m, seed)`. No sample is stored and no library path
holds the (M, D) matrix: every pass regenerates its tiles, each one unit
of the stream (TILE_ROWS = streams.NORMAL_ROWS), so no row is drawn
twice. A tile in flight works in two buffers that `streams.map_blocks`
lends it, made once per worker on the calling thread: its (TILE_ROWS, D)
coordinates, which the unit's generator fills in place, and its
(k, TILE_ROWS) pairings with the k probes. So a pass holds
O(workers * TILE_ROWS * (D + k)) doubles and allocates no tile-sized
array on the workers.

Each scalar estimator is written once, as a `Reduction`: the probe vectors
it pairs with every sample and a per-tile contribution (count, mean and M2
of per-sample values, or plain sums). `WhiteNoiseEnsemble.reduce` runs any
number of reductions in one pass, whose tiles of TILE_ROWS samples are the
blocks of `streams.map_blocks`: each tile is paired with the stacked
probes of all of them in one GEMM, and the tile statistics are merged in
tile order (Chan, Golub & LeVeque 1979). The order is fixed, so estimates
are bitwise identical for any thread count. White noise lives on a space
larger than the Hilbert space and is observed only through its pairings,
so every result has a size independent of M. Every estimate is computed
by passing its reduction to `reduce`, alone or with others:
`ens.reduce([ito_isometry(x), moment(x, 4), gramian_covariance(frame)])`.
Every pass runs the 5-sigma mean/variance sanity band first.
"""
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import streams
from .errors import (
    DimensionExceedsTruncation,
    KTooLarge,
    Overflow,
    SanityBandViolated,
    SingularGramian,
)
from .frames import Frame, GramMatrix, as_count, as_rows, as_vector
from .report import _estimate, _merge_moments, _moments

MAX_MOMENT_ORDER = 9     # 2k and 2k+1 for k <= 4
MEAN_BAND = 5.0       # generator sanity: |coord mean| <= 5/sqrt(M)
VAR_BAND = 5.0        # and coord var within the chi-square quantiles of 5-sigma tails
# Samples per task of a pass: one unit of the normal stream, so no row is
# drawn twice, and a tile of D = 32 coordinates is 2 MB, so a tile and its
# pairings stay in cache. Tiles fix the merge order, so a new value
# changes the estimates' last bits.
TILE_ROWS = streams.NORMAL_ROWS


def _pair(probes: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """p[j, i] = <probes[j], z[i]> for a tile z, written into the first
    z.shape[0] columns of `out` (k, >= rows) and returned as a view of them.
    A product takes the most samples, a power of two >= 2, whose k * width *
    samples multiply-adds stay within streams.BLAS_SERIAL_MADDS: one product
    over the whole tile made the white-noise pass of verify-all at 1M x 32
    take about 1.4 s instead of 0.8 s on 2 vCPUs."""
    k, width = probes.shape
    rows, cols = z.shape
    step = 1 << max(1, (streams.BLAS_SERIAL_MADDS // (k * width)).bit_length() - 1)
    full = rows - rows % step
    chunks = z[:full].reshape(-1, step, cols)[:, :, :width]
    # product c fills columns [c * step, (c + 1) * step) of out
    np.matmul(probes, chunks.transpose(0, 2, 1),
              out=np.reshape(out[:, :full], (k, -1, step), copy=False).transpose(1, 0, 2))
    if full < rows:
        np.matmul(probes, z[full:, :width].T, out=out[:, full:rows])
    return out[:, :rows]


def _column_sums(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-coordinate sums and sums of squares of a tile z, for the sanity band."""
    return np.array([np.einsum("ij->j", z), np.einsum("ij,ij->j", z, z)])


def _check_band(sums: np.ndarray, m: int) -> None:
    s1, s2 = sums
    mean = s1 / m
    mean_err = np.abs(mean).max()
    if mean_err > MEAN_BAND / math.sqrt(m):
        raise SanityBandViolated(f"coordinate mean off by {mean_err:.3g}")
    if m > 1:
        # (m - 1) var is chi-square with m - 1 degrees of freedom: the band
        # runs between its quantiles at the VAR_BAND-sigma normal tails
        from scipy.special import chdtri, ndtr

        var = (s2 - s1 * mean) / (m - 1)
        tail = ndtr(-VAR_BAND)
        lo, hi = chdtri(m - 1, [1.0 - tail, tail]) / (m - 1)
        outside = var[(var < lo) | (var > hi)]
        if outside.size:
            raise SanityBandViolated(
                f"coordinate variance {outside[0]:.3g} outside [{lo:.3g}, {hi:.3g}]"
            )


def _check_truncation(dim: int, truncation: int) -> None:
    """Refuse a vector longer than the points omega it is paired with."""
    if dim > truncation:
        raise DimensionExceedsTruncation(f"vector dimension {dim} exceeds truncation {truncation}")


@dataclass(frozen=True)
class Reduction:
    """One check's contribution to a pass over an ensemble.

    `probes` (k, w) are paired with every sample. For each tile,
    `block(p, z)` maps the pairings p (k, rows), p[j, i] = <probes[j],
    omega_i>, and the tile's coordinates z (rows, D) to statistics, which
    hold no view of p or z (the pass reuses their buffers for later tiles);
    `merge(a, b)` folds the statistics of the next tile b into a, and
    `finish(total, m)` turns the total over all m samples into the result.
    """

    probes: np.ndarray
    block: Callable
    finish: Callable
    merge: Callable = operator.add


# the 5-sigma band on every coordinate's mean and variance, which pairs with
# no probe; `reduce` runs it first
_SANITY_BAND = Reduction(np.empty((0, 0)), _column_sums, _check_band)


@dataclass(frozen=True)
class WhiteNoiseEnsemble:
    """M seeded i.i.d. standard-normal coordinate vectors in R^D, held as
    the stream they are read from; see the module docstring."""

    truncation_dim: int
    sample_count: int
    seed: int

    def __post_init__(self):
        for name, least, most in (("truncation_dim", 1, None), ("sample_count", 1, None),
                                  ("seed", 0, streams.SEED_MAX)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, least, most))

    def reduce(self, reductions) -> list:
        """The results of `reductions`, all computed in one pass over the
        samples, in tile order; see the module docstring."""
        reductions = [_SANITY_BAND, *reductions]
        if len(reductions) == 1:
            return []
        stacked = _stacked(*(v for r in reductions for v in r.probes))
        _check_truncation(stacked.shape[1], self.truncation_dim)
        sizes = [len(r.probes) for r in reductions]
        rows = [slice(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]

        dim, tile = self.truncation_dim, min(TILE_ROWS, self.sample_count)

        def tile_stats(lo: int, hi: int, lent) -> list:
            coords, pairs = lent
            z = streams.normal_rows(
                self.seed, lo, hi, dim, stream=streams.STREAM_WHITENOISE, out=coords[: hi - lo]
            )
            p = _pair(stacked, z, pairs)
            return [r.block(p[sl], z) for r, sl in zip(reductions, rows)]

        # each tile in flight borrows its coordinates and pairings, made here
        def scratch():
            return np.empty((tile, dim)), np.empty((len(stacked), tile))

        totals = None
        for stats in streams.map_blocks(tile_stats, self.sample_count, TILE_ROWS,
                                         scratch=scratch):
            totals = stats if totals is None else [
                r.merge(a, b) for r, a, b in zip(reductions, totals, stats)
            ]
        # the band is finished first: a generator defect raises before any result
        return [r.finish(t, self.sample_count) for r, t in zip(reductions, totals)][1:]


def _mean_reduction(probes, values: Callable, targets) -> Reduction:
    """Reduction estimating the means of per-sample values against targets.

    `values(p)` maps a tile's pairings with `probes` (k, rows) to values
    (c, rows), one row per target. Finishes to one `report.McEstimate` per
    target, a bare McEstimate when there is one target.
    """
    targets = [float(t) for t in targets]
    if not all(map(math.isfinite, targets)):
        raise Overflow(f"targets {targets} outside double range")

    def finish(moments, m):
        _, mean, m2 = moments
        ests = [_estimate(m, mu, s, t) for mu, s, t in zip(mean, m2, targets)]
        return ests[0] if len(ests) == 1 else tuple(ests)

    return Reduction(
        probes=np.atleast_2d(probes),
        block=lambda p, z: _moments(values(p)),
        finish=finish,
        merge=_merge_moments,
    )


def _power(t: np.ndarray, order: int) -> np.ndarray:
    """t**order for an integer order >= 1, by repeated multiplication."""
    out = t
    for _ in range(order - 1):
        out = out * t
    return out


def _inner(a: np.ndarray, b: np.ndarray, power: int = 1) -> float:
    """<a, b> ** power, the shorter vector zero-padded; Overflow unless finite."""
    n = min(a.size, b.size)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float((a[:n] @ b[:n]) ** power)
    if not math.isfinite(value):
        raise Overflow(f"inner product <a, b>^{power} = {value} outside double range")
    return value


def _stacked(*vectors) -> np.ndarray:
    """Rows of `vectors`, zero-padded to the longest."""
    vectors = [as_vector(v) for v in vectors]
    out = np.zeros((len(vectors), max(v.size for v in vectors)))
    for row, v in zip(out, vectors):
        row[: v.size] = v
    return out


def ito_isometry(x) -> Reduction:
    """Mean of <x, omega>^2 against ||x||^2 (isometry into L^2): the
    second `moment`."""
    return moment(x, 2)


def char_functional(x) -> Reduction:
    """Mean of exp(i <x, omega>) against exp(-||x||^2 / 2).

    Finishes to (real, imaginary) McEstimates; the imaginary target is 0.
    """
    x = as_vector(x)
    target = math.exp(-0.5 * _inner(x, x))
    return _mean_reduction(x, lambda p: np.concatenate([np.cos(p), np.sin(p)]), [target, 0.0])


def moment(x, order: int) -> Reduction:
    """Mean of <x, omega>^order against the Gaussian moment.

    Even order 2k targets (2k-1)!! * ||x||^(2k); odd orders target 0.
    Orders above 9 are refused: the single-sample variance grows like
    (4k-1)!! and drowns the estimate at desk-scale M.
    """
    order = as_count(order, "moment order", most=MAX_MOMENT_ORDER, error=KTooLarge)
    x = as_vector(x)
    if order % 2 == 0:
        target = math.prod(range(order - 1, 0, -2)) * _inner(x, x, order // 2)
    else:
        target = 0.0
    return _mean_reduction(x, lambda p: _power(p, order), [target])


def gramian_covariance(frame: Frame) -> Reduction:
    """Reduction to the empirical covariance of the frame's Gaussian
    process, the (n_frame, n_frame) mean of <phi_i, omega><phi_j, omega>,
    against E <phi_i, omega><phi_j, omega> = G_ij, the Gramian."""
    return Reduction(
        frame.vectors, block=lambda p, z: np.einsum("ik,jk->ij", p, p), finish=lambda s, m: s / m
    )


def joint_density(gram_matrix: GramMatrix, x):
    """Joint density of (T phi_1, ..., T phi_n) at the point x:

        (2 pi)^(-n/2) det(G)^(-1/2) exp(-x^T G^{-1} x / 2)

    x is a point of R^n, which gives a float, or a stack of points
    (..., n), which gives an array of densities. G must be strictly
    positive definite; overcomplete frames have singular full Gramians
    and callers must pass an invertible sub-Gramian.
    """
    g = gram_matrix.entries
    n = g.shape[0]
    x = as_rows(x, dim=n)
    eigs = gram_matrix.spectrum
    if eigs[0] <= 1e-12 * max(eigs[-1], 1e-300):
        raise SingularGramian(
            f"smallest Gramian eigenvalue {eigs[0]:.3g} is numerically zero"
        )
    # one solve with a right-hand side per point
    quad = np.vecdot(x, np.linalg.solve(g, x.reshape(-1, n).T).T.reshape(x.shape))
    log_det = float(np.log(eigs).sum())
    density = np.exp(-0.5 * quad - 0.5 * log_det - 0.5 * n * math.log(2.0 * math.pi))
    return float(density) if density.ndim == 0 else density


def reconstruction(x) -> Reduction:
    """Frame decomposition x = integral <x, omega> omega dmu via MC.

    Finishes to (x_hat, err) with x_hat the Monte-Carlo synthesis
    (1/M) sum_m f(omega_m) omega_m of f = <x, .>, a vector in R^D, and
    err = ||x_hat - x||. The per-sample integrand has covariance trace
    (D+1) ||x||^2, so E[err^2] = (D+1) ||x||^2 / M.
    """
    x = as_vector(x)

    def finish(total, m):
        x_hat = total / m
        full = np.zeros(x_hat.size)
        full[: x.size] = x
        return x_hat, float(np.linalg.norm(x_hat - full))

    return Reduction(
        np.atleast_2d(x), block=lambda p, z: np.einsum("i,ij->j", p[0], z), finish=finish
    )


def projection(y, x_probe) -> Reduction:
    """Idempotence of Q = T T* on range elements, contracted against a probe.

    For f = <y, .>, compares <x_hat, x_probe>, x_hat the synthesis of f
    (the sample mean of <y, omega><x_probe, omega>), with the exact value
    <y, x_probe>.
    """
    y = as_vector(y)
    x_probe = as_vector(x_probe)
    target = _inner(y, x_probe)
    return _mean_reduction(_stacked(y, x_probe), lambda p: p[:1] * p[1:], [target])
