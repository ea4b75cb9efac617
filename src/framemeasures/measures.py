"""Discrete probabilistic frames: measures on R^N with second moments.

A probability measure mu is a probabilistic frame when

    A ||x||^2  <=  integral <x, y>^2 dmu(y)  <=  B ||x||^2

with A > 0. For a weighted atom measure the middle term is x^T S_mu x with
S_mu = sum_i w_i y_i y_i^T, so the optimal A, B are again extreme
eigenvalues. The module also carries the 2-Wasserstein metric between such
measures (the exact transport LP, solved on a priced shortlist of plan
entries; it scales with the atoms) and the coordinate decay diagnostic
showing why no measure supported on an infinite-dimensional space itself
can have a positive lower bound.
"""
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from .errors import (
    DimensionMismatch, InvalidEnsembleSize, InvalidWeights, NonFinite, TransportFailed,
)

WEIGHT_SUM_TOL = 1e-12
MARGINAL_TOL = 1e-10
# W2 pricing, on costs divided by their maximum: an entry joins the
# shortlist when its reduced cost is below -REDUCED_COST_TOL, at most
# PRICE_PARTNERS per row and per column in one round
REDUCED_COST_TOL = 1e-12
PRICE_PARTNERS = 5
# HiGHS on a shortlist LP: its tightest feasibility tolerances (the
# defaults are 1e-7), primal so that clipping an entry it left slightly
# negative keeps the marginals within MARGINAL_TOL, dual so that the
# duals price to REDUCED_COST_TOL; presolve costs a small LP more time
# than it saves (20-30% of a 150x150 solve)
HIGHS_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms in R^N with strictly positive weights summing to 1.

    Duplicate atoms (bitwise-equal coordinate rows) are merged at
    construction, keeping first-occurrence order. Weight sums off from 1
    are rejected; use `DiscreteMeasure.normalized` to renormalize
    explicitly.
    """

    atoms: np.ndarray
    weights: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @classmethod
    def from_points(cls, atoms, weights=None) -> "DiscreteMeasure":
        pts = np.atleast_2d(np.asarray(atoms, dtype=float))
        if pts.size == 0:
            raise DimensionMismatch("a measure needs at least one atom")
        if not np.all(np.isfinite(pts)):
            raise NonFinite("atoms have NaN or infinite coordinates")
        if weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise DimensionMismatch("one weight per atom required")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise InvalidWeights("weights must be finite and strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidWeights(
                f"weights sum to {w.sum()!r}, not 1; use DiscreteMeasure.normalized"
            )
        pts, w = _merge_duplicates(pts, w)
        pts.setflags(write=False)
        w.setflags(write=False)
        return cls(atoms=pts, weights=w)

    @classmethod
    def normalized(cls, atoms, weights) -> "DiscreteMeasure":
        """Construct after dividing the weights by their sum."""
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise InvalidWeights("weights must have a positive finite sum")
        return cls.from_points(atoms, w / total)

    @classmethod
    def uniform(cls, atoms) -> "DiscreteMeasure":
        return cls.from_points(atoms)

    @classmethod
    def point_mass(cls, atom) -> "DiscreteMeasure":
        return cls.from_points([np.asarray(atom, dtype=float)], [1.0])


def _merge_duplicates(pts: np.ndarray, w: np.ndarray):
    seen: dict[bytes, int] = {}
    order: list[int] = []
    merged = []
    for i in range(pts.shape[0]):
        key = pts[i].tobytes()
        if key in seen:
            merged[seen[key]] += w[i]
        else:
            seen[key] = len(order)
            order.append(i)
            merged.append(w[i])
    return np.ascontiguousarray(pts[order]), np.asarray(merged)


def measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {"dim": mu.dim, "atoms": mu.atoms.tolist(), "weights": mu.weights.tolist()}


def measure_from_dict(doc: dict) -> DiscreteMeasure:
    for key in ("dim", "atoms", "weights"):
        if key not in doc:
            raise DimensionMismatch(f'measure document needs "{key}"')
    mu = DiscreteMeasure.from_points(doc["atoms"], doc["weights"])
    if mu.dim != doc["dim"]:
        raise DimensionMismatch(
            f'document says dim {doc["dim"]} but atoms have dimension {mu.dim}'
        )
    return mu


def load_measure(path) -> DiscreteMeasure:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))


def prob_frame_operator(mu: DiscreteMeasure) -> np.ndarray:
    """S_mu = sum_i w_i y_i y_i^T."""
    s = mu.atoms.T @ (mu.weights[:, None] * mu.atoms)
    return (s + s.T) / 2.0


@dataclass(frozen=True)
class MeasureFrameBounds:
    lower: float
    upper: float

    def is_frame(self, rtol: float = 1e-12) -> bool:
        return self.lower > rtol * self.upper

    def is_tight(self, rtol: float = 1e-10) -> bool:
        return self.upper - self.lower <= rtol * max(self.upper, 1e-300)


def measure_frame_bounds(mu: DiscreteMeasure) -> MeasureFrameBounds:
    """Optimal probabilistic frame bounds (extreme eigenvalues of S_mu)."""
    eigs = np.linalg.eigvalsh(prob_frame_operator(mu))
    return MeasureFrameBounds(lower=float(max(eigs[0], 0.0)), upper=float(eigs[-1]))


def second_moment(mu: DiscreteMeasure) -> float:
    """M_2^2(mu) = sum_i w_i ||y_i||^2 (equals trace of S_mu)."""
    return float(mu.weights @ (mu.atoms * mu.atoms).sum(axis=1))


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix gamma with marginals mu (rows) and nu (columns)."""

    matrix: np.ndarray

    def validate_marginals(self, mu_weights, nu_weights, tol: float = MARGINAL_TOL):
        row_err = np.abs(self.matrix.sum(axis=1) - mu_weights).max()
        col_err = np.abs(self.matrix.sum(axis=0) - nu_weights).max()
        if max(row_err, col_err) > tol:
            raise TransportFailed(
                f"transport plan marginals off by {max(row_err, col_err):.3g}"
            )


def wasserstein2(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Exact 2-Wasserstein distance and an optimal transport plan.

    Solves min_gamma sum_ij gamma_ij ||y_i - z_j||^2 over the transportation
    polytope (row sums = mu weights, column sums = nu weights) by pricing:
    HiGHS solves the LP restricted to a shortlist of plan entries, and the
    shortlist grows by the entries whose reduced cost under that solve's
    duals is negative, until none is. The start is the north-west-corner
    coupling of both atom lists sorted by first coordinate, which is
    already optimal in 1-D and is the diagonal for W2(mu, mu). Costs are
    divided by their maximum first, so the solver's absolute tolerances
    are relative to the cost scale, and the result scales with the atoms.
    The plan is a vertex with marginals exact to rounding. Returns
    (distance, TransportPlan).
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    cost = (diff * diff).sum(axis=2)

    if mu.n_atoms == 1:
        plan = nu.weights[None, :].copy()
    elif nu.n_atoms == 1:
        plan = mu.weights[:, None].copy()
    else:
        plan = _priced_plan(cost, mu, nu)

    tp = TransportPlan(matrix=plan)
    tp.validate_marginals(mu.weights, nu.weights)
    distance = float(np.sqrt(max((plan * cost).sum(), 0.0)))
    return distance, tp


def _north_west_corner(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Support of the north-west-corner coupling of the atoms sorted by
    first coordinate: a staircase of n + m - 1 entries (a spanning tree)."""
    rows = np.argsort(mu.atoms[:, 0], kind="stable")
    cols = np.argsort(nu.atoms[:, 0], kind="stable")
    n, m = rows.size, cols.size
    # merge the inner breakpoints of both cumulative weights; each one
    # moves the corner down (a row is used up) or right (a column is)
    ends = np.concatenate([np.cumsum(mu.weights[rows])[:-1], np.cumsum(nu.weights[cols])[:-1]])
    down = np.arange(n + m - 2) < n - 1
    steps = down[np.argsort(ends, kind="stable")]
    i = np.concatenate([[0], np.cumsum(steps)])
    j = np.concatenate([[0], np.cumsum(~steps)])
    support = np.zeros((n, m), dtype=bool)
    support[rows[i], cols[j]] = True
    return support


def _priced_plan(cost: np.ndarray, mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    n, m = cost.shape
    c = cost / cost.max()  # positive: merged atoms make some pair distinct
    b_eq = np.concatenate([mu.weights, nu.weights])
    support = _north_west_corner(mu, nu)
    first = True
    while True:
        i, j = np.nonzero(support)
        k = i.size
        # column t (plan entry gamma_ij) has a 1 in row i (its row sum)
        # and in row n + j (its column sum)
        a_eq = csc_array(
            (np.ones(2 * k), np.column_stack([i, n + j]).ravel(), np.arange(0, 2 * k + 1, 2)),
            shape=(n + m, k),
        )
        res = linprog(c[i, j], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                      options=HIGHS_OPTIONS)
        if not res.success:
            raise TransportFailed(f"transport LP failed: {res.message}")
        y = res.eqlin.marginals
        reduced = c - y[:n, None] - y[None, n:]
        violated = (reduced < -REDUCED_COST_TOL) & ~support
        if not violated.any():
            break
        # the first violation adds each atom's cheapest partners, later
        # ones the most violated entries of each row and column
        score = c if first else np.where(violated, reduced, np.inf)
        support |= _smallest_per_line(score, PRICE_PARTNERS)
        first = False
    plan = np.zeros((n, m))
    plan[i, j] = np.clip(res.x, 0.0, None)
    return plan


def _smallest_per_line(score: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k smallest finite entries of each row and each column."""
    n, m = score.shape
    mask = np.zeros(score.shape, dtype=bool)
    kr, kc = min(k, m), min(k, n)
    rows = np.argpartition(score, kr - 1, axis=1)[:, :kr]
    mask[np.arange(n)[:, None], rows] = True
    cols = np.argpartition(score, kc - 1, axis=0)[:kc]
    mask[cols, np.arange(m)[None, :]] = True
    return mask & np.isfinite(score)


def prob_analysis(mu: DiscreteMeasure, x) -> np.ndarray:
    """Table of <x, y_i> over the atoms: the function T_mu x in L^2(mu)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (mu.dim,):
        raise DimensionMismatch(f"expected vector of dimension {mu.dim}")
    return mu.atoms @ x


def prob_synthesis(mu: DiscreteMeasure, table) -> np.ndarray:
    """Adjoint of prob_analysis: sum_i w_i f_i y_i."""
    f = np.asarray(table, dtype=float)
    if f.shape != (mu.n_atoms,):
        raise DimensionMismatch(f"expected one table value per atom ({mu.n_atoms})")
    return mu.atoms.T @ (mu.weights * f)


def prob_gramian_apply(mu: DiscreteMeasure, table) -> np.ndarray:
    """Gramian G_mu f at each atom: (G_mu f)(y_j) = sum_i w_i <y_j, y_i> f_i."""
    f = np.asarray(table, dtype=float)
    if f.shape != (mu.n_atoms,):
        raise DimensionMismatch(f"expected one table value per atom ({mu.n_atoms})")
    return mu.atoms @ (mu.atoms.T @ (mu.weights * f))


def measure_l2_normsq(mu: DiscreteMeasure, table) -> float:
    """Squared L^2(mu) norm of a function table: sum_i w_i f_i^2."""
    f = np.asarray(table, dtype=float)
    if f.shape != (mu.n_atoms,):
        raise DimensionMismatch(f"expected one table value per atom ({mu.n_atoms})")
    return float(mu.weights @ (f * f))


def lower_bound_decay(mu: DiscreteMeasure, n_max: int) -> np.ndarray:
    """Coordinate energies f(n) = integral <b_n, y>^2 dmu(y), n = 1..n_max.

    b_n is the standard basis of the ambient R^N, padded by zero vectors
    for n > N, so f(n) = sum_i w_i y_{i,n}^2 for n <= N and 0 beyond. The
    sequence sums to the second moment and eventually vanishes: no single
    positive constant can lower-bound it for all n, which is the finite
    shadow of the impossibility of frame measures living on the space
    itself in infinite dimensions.
    """
    if n_max < 1:
        raise InvalidEnsembleSize("n_max must be >= 1")
    out = np.zeros(n_max)
    upto = min(n_max, mu.dim)
    out[:upto] = mu.weights @ (mu.atoms[:, :upto] ** 2)
    return out
