"""Markov chains induced by a frame.

A frame {phi_n} turns inner products into transition weights:

    p(x, y) = <x, y>^2 / c(x),     c(x) = sum_n <x, phi_n>^2.

Summed against the frame family itself the weights are a stochastic row
(sum_n p(x, phi_n) = 1), the chain on frame indices is reversible with
respect to c, and p(x, y) <= ||y||^2 / alpha. The library computes the
weights only against the frame family: `FrameChain` holds c(phi_j) and
the matrix p(phi_j, phi_k), and `start_distribution(chain, x)` is the
row p(x, phi_j) of any nonzero x.

Path probabilities multiply transition weights exactly as sampled, and
a path's uniforms are its column of `streams.uniform_columns`, so a
sampled path and its probability can be recomputed bit-for-bit.
Sampled paths hold their indices in the smallest unsigned type that fits
the states (one byte up to 256 states); widen them before arithmetic.
"""
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .errors import IndexOutOfRange, InvalidChain, NotAFrame, ZeroFrameVector, ZeroVector
from .frames import Frame, _gramian, analysis, as_count, as_indices, as_vector

ROW_SUM_TOL = 1e-12
REVERSIBILITY_RTOL = 1e-12
BOUND_TOL = 1e-12
# Paths per chunk of `sample_path_indices`, one task of the thread pool:
# the chunk's uniforms, states and probes (a few hundred KiB at k = 8)
# stay in L2, and two chunks in flight hold what one of 2^14 paths did.
PATH_CHUNK = 1 << 13


def _nonzero_coefficients(frame: Frame, x) -> np.ndarray:
    """<x, phi_n> for a nonzero x."""
    x = as_vector(x, dim=frame.dim)
    if not np.any(x):
        raise ZeroVector("c(0) = 0 would make the transition weights undefined")
    return analysis(frame, x)


@dataclass(frozen=True)
class FrameChain:
    """Index chain of a frame: P[j, k] = p(phi_j, phi_k), c[j] = c(phi_j).

    Construction verifies, and keeps the residual of, row-stochasticity
    (max |sum_k P_jk - 1|), reversibility c_j P_jk = c_k P_kj (largest
    elementwise relative gap) and the normalization bound
    P_jk <= ||phi_k||^2 / alpha (largest excess).
    """

    frame: Frame
    normalizers: np.ndarray
    transition_matrix: np.ndarray
    row_sum_residual: float = field(init=False)
    reversibility_rel_residual: float = field(init=False)
    bound_residual: float = field(init=False)

    def __post_init__(self):
        p = self.transition_matrix
        c = self.normalizers
        keep = object.__setattr__  # frozen: the residuals are set once, here
        keep(self, "row_sum_residual", float(np.abs(p.sum(axis=1) - 1.0).max()))
        if self.row_sum_residual > ROW_SUM_TOL:
            raise InvalidChain("transition rows do not sum to 1")
        if p.min() < 0.0:
            raise InvalidChain("negative transition probability")
        flux = c[:, None] * p
        scale = np.maximum(np.maximum(np.abs(flux), np.abs(flux.T)), 1e-300)
        keep(self, "reversibility_rel_residual", float((np.abs(flux - flux.T) / scale).max()))
        if self.reversibility_rel_residual > REVERSIBILITY_RTOL:
            raise InvalidChain("detailed balance violated")
        if self.frame.lower_bound <= 0.0:
            raise NotAFrame("chain requires a positive lower frame bound")
        norms_sq = (self.frame.vectors**2).sum(axis=1)
        keep(self, "bound_residual", float((p - norms_sq[None, :] / self.frame.lower_bound).max()))
        if self.bound_residual > BOUND_TOL:
            raise InvalidChain("normalization bound violated")

    @property
    def n_states(self) -> int:
        return self.transition_matrix.shape[0]


def build_chain(frame: Frame) -> FrameChain:
    """Chain over frame indices; needs alpha > 0 and no zero frame vector."""
    if not frame.is_frame():
        raise NotAFrame("chain construction needs a positive lower frame bound")
    g = _gramian(frame)
    sq = g * g
    c = sq.sum(axis=1)
    if np.any(c == 0.0):
        raise ZeroFrameVector("a zero frame vector has no outgoing transitions")
    p = sq / c[:, None]
    c.setflags(write=False)
    p.setflags(write=False)
    return FrameChain(frame=frame, normalizers=c, transition_matrix=p)


def start_distribution(chain: FrameChain, x) -> np.ndarray:
    """Row p(x, phi_j) over frame indices; sums to 1 for any nonzero x."""
    coeffs = _nonzero_coefficients(chain.frame, x)
    return coeffs * coeffs / (coeffs @ coeffs)


def path_probability(chain: FrameChain, x, indices):
    """Probability of the index path (n_1, ..., n_k) started at x:

        p(x, phi_{n_1}) * p(phi_{n_1}, phi_{n_2}) * ... (0-based indices)

    x is always treated as an external initial state, even when it equals
    some frame vector. `indices` is one path (a float is returned) or a
    stack of paths (..., k) (an array of shape (...) is returned); the
    factors are multiplied in the order `sample_path_indices` uses.
    """
    idx = as_indices(indices, "path index", chain.n_states)
    if idx.ndim == 0 or not idx.shape[-1]:
        raise IndexOutOfRange("a path needs at least one step")
    start = start_distribution(chain, x)
    p = chain.transition_matrix
    prob = start[idx[..., 0]]
    for step in range(1, idx.shape[-1]):
        prob *= p[idx[..., step - 1], idx[..., step]]
    return float(prob) if idx.ndim == 1 else prob


def sample_path_indices(chain: FrameChain, x, k: int, m: int, seed: int):
    """m length-k index paths from start x, plus their exact probabilities.

    Path i consumes uniforms [i*k, (i+1)*k) of the (seed, STREAM_MARKOV)
    stream, its column of `streams.uniform_columns`, so each path depends
    only on (seed, path index), for any execution order or chunking. Each
    step inverts a CDF by one `streams.inverse_cdf_index` bisection over
    all the paths of a chunk (ties resolve to the lower index), the row of
    each path's current state in one table of the transition CDFs with
    the start CDF stacked under them as row n: every path starts in
    state n, with probability 1. Paths run PATH_CHUNK at a time on the
    `streams.map_blocks` pool, each chunk reading its uniforms into a
    lent buffer and writing its own rows of the output, so the working
    arrays stay cache-sized and no bit depends on the thread count. Time
    is O(m*k*log n) and memory the size of the output: 200k paths of 8
    steps over 64 states peak at 5.2 MiB under tracemalloc on two threads,
    3.1 MiB of it output.

    Returns (indices, probabilities) with shapes (m, k) and (m,). The
    indices are stored in the smallest unsigned type that holds n - 1,
    `np.min_scalar_type(n - 1)` (uint8 up to 256 states, uint16 up to
    65,536), and every computation behind them runs in int64. Widen them
    before arithmetic (`idx.astype(np.int64)`): NumPy keeps the narrow
    type, so `idx[:, 0] * 64` wraps in uint8. Indexing and `tolist()` need
    no widening. The probabilities multiply the same factors in the same
    order as `path_probability`, hence match it exactly (one call
    recomputes them all: `path_probability(chain, x, indices)`).
    """
    k = as_count(k, "horizon k")
    m = as_count(m, "path count m")
    n = chain.n_states
    rows = np.vstack([chain.transition_matrix, start_distribution(chain, x)])
    table = streams.cdf_table(np.cumsum(rows, axis=1))
    flat_p = rows.ravel()

    idx = np.empty((m, k), dtype=np.min_scalar_type(n - 1))
    prob = np.empty(m)

    def fill(a: int, b: int, lent: np.ndarray) -> None:
        u = streams.uniform_columns(seed, a, b, streams.STREAM_MARKOV, lent[:, : b - a])
        state = np.full(b - a, n)
        chunk_prob = prob[a:b]
        chunk_prob[:] = 1.0
        for step in range(k):
            prev = state
            state = streams.inverse_cdf_index(table, prev, u[step])
            idx[a:b, step] = state
            chunk_prob *= flat_p[prev * n + state]

    # each chunk in flight borrows its step-major uniforms, made on the
    # calling thread, where the memory is reused once the workers are done
    for _ in streams.map_blocks(fill, m, PATH_CHUNK,
                                scratch=lambda: np.empty((k, min(m, PATH_CHUNK)))):
        pass
    return idx, prob
