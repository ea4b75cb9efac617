"""Discrete probabilistic frames: measures on R^N with second moments.

A probability measure mu is a probabilistic frame when

    A ||x||^2  <=  integral <x, y>^2 dmu(y)  <=  B ||x||^2

with A > 0. For weighted atoms the middle term is sum_i <x, sqrt(w_i) y_i>^2,
so mu is a probabilistic frame, with optimal bounds A, B, exactly when
`weighted_frame(mu)` is a frame with those bounds. The module also
carries the 2-Wasserstein metric between such measures (the exact
transport LP: an assignment problem when both have n atoms of one
weight, else solved on a shortlist of each atom's cheapest partners that
grows by pricing; it scales with the atoms) and the coordinate decay
diagnostic showing why no measure supported on an infinite-dimensional
space itself can have a positive lower bound.
"""
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidWeights, TransportFailed
from .frames import Frame, _floats, as_count, as_rows, as_vector, build_frame

WEIGHT_SUM_TOL = 1e-12
MARGINAL_TOL = 1e-10
# W2 pricing, on costs divided by their maximum: the first shortlist holds
# each atom's PRICE_PARTNERS cheapest partners, and later rounds add an
# entry when its reduced cost is below -REDUCED_COST_TOL, at most
# PRICE_PARTNERS per row and per column in one round
REDUCED_COST_TOL = 1e-12
PRICE_PARTNERS = 15
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
        pts = np.atleast_2d(as_rows(atoms))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DimensionMismatch(f"atoms must form a nonempty (n, d) array, got {pts.shape}")
        if weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = _floats(weights, "weights", InvalidWeights)
        if w.shape != (pts.shape[0],):
            raise DimensionMismatch("one weight per atom required")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise InvalidWeights("weights must be finite and strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidWeights(
                f"weights sum to {float(w.sum())!r}, not 1; use DiscreteMeasure.normalized"
            )
        pts, w = _merge_duplicates(pts, w)
        pts.setflags(write=False)
        w.setflags(write=False)
        return cls(atoms=pts, weights=w)

    @classmethod
    def normalized(cls, atoms, weights) -> "DiscreteMeasure":
        """Construct after dividing the weights by their sum."""
        w = _floats(weights, "weights", InvalidWeights)
        total = w.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise InvalidWeights("weights must have a positive finite sum")
        return cls.from_points(atoms, w / total)

    @classmethod
    def uniform(cls, atoms) -> "DiscreteMeasure":
        return cls.from_points(atoms)

    @classmethod
    def point_mass(cls, atom) -> "DiscreteMeasure":
        return cls.from_points([atom], [1.0])


def _merge_duplicates(pts: np.ndarray, w: np.ndarray):
    """The distinct rows of `pts`, bit for bit (0.0 and -0.0 differ), in
    order of first occurrence, each weighing its copies' weights summed in order."""
    rows = np.ascontiguousarray(pts)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return pts[first[order]], np.bincount(rank[inverse], weights=w)


def measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {"dim": mu.dim, "atoms": mu.atoms.tolist(), "weights": mu.weights.tolist()}


def measure_from_dict(doc: dict) -> DiscreteMeasure:
    if not isinstance(doc, dict):
        raise DimensionMismatch(
            f"measure document must be a JSON object, not {type(doc).__name__}")
    for key in ("dim", "atoms", "weights"):
        if key not in doc:
            raise DimensionMismatch(f'measure document needs "{key}"')
    dim = as_count(doc["dim"], 'measure document "dim"', error=DimensionMismatch)
    if doc["weights"] is None:
        # from_points would read None as uniform weights
        raise InvalidWeights('measure document "weights" must be an array of numbers, got null')
    mu = DiscreteMeasure.from_points(doc["atoms"], doc["weights"])
    if mu.dim != dim:
        raise DimensionMismatch(f"document says dim {dim} but atoms have dimension {mu.dim}")
    return mu


def load_measure(path) -> DiscreteMeasure:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))


def weighted_frame(mu: DiscreteMeasure) -> Frame:
    """The frame {sqrt(w_i) y_i}: its energies sum_i w_i <x, y_i>^2 are
    mu's, so its frame operator is S_mu and its bounds are mu's optimal
    probabilistic frame bounds (Ehler & Okoudjou 2012)."""
    return build_frame(np.sqrt(mu.weights)[:, None] * mu.atoms)


def second_moment(mu: DiscreteMeasure) -> float:
    """M_2^2(mu) = sum_i w_i ||y_i||^2 (equals trace of S_mu)."""
    return float(mu.weights @ (mu.atoms * mu.atoms).sum(axis=1))


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix gamma with marginals mu (rows) and nu (columns), and
    the largest gaps of its row and column sums from them (<= MARGINAL_TOL)."""

    matrix: np.ndarray
    row_marginal_residual: float
    col_marginal_residual: float


def wasserstein2(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Exact 2-Wasserstein distance and an optimal transport plan.

    Solves min_gamma sum_ij gamma_ij ||y_i - z_j||^2 over the transportation
    polytope (row sums = mu weights, column sums = nu weights). The start
    is the north-west-corner coupling of both atom lists sorted by first
    coordinate, which is already optimal in 1-D and is the diagonal for
    W2(mu, mu); it is returned without a solve when it costs nothing or
    when the potentials along its staircase leave no negative reduced
    cost. Otherwise, when both measures have n atoms and all 2n weights
    are the same double w, the polytope's vertices are the permutation
    matrices times w (Birkhoff), and `linear_sum_assignment` solves the
    pair exactly as an assignment problem; its plan puts w on one entry
    of each row and column. Any other pair is solved by pricing: HiGHS
    solves the LP restricted to a shortlist of plan entries, and the
    shortlist grows by the entries whose reduced cost under that solve's
    duals is negative, until none is. The first shortlist is the
    staircase, which keeps the LP feasible, and each atom's
    PRICE_PARTNERS cheapest partners, which at 150 atoms leaves one round
    of pricing at most. The atoms are divided by 2^e, e the binary
    exponent of their largest |coordinate|, an exact scaling that keeps
    the squared distances from overflowing or underflowing, and the
    distance is multiplied back by it. Costs are divided by their
    maximum, so the solver's absolute tolerances are relative to the cost
    scale, and the result scales with the atoms. The plan is a vertex
    with marginals exact to rounding (exact for an assignment). Returns
    (distance, TransportPlan).
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    e = np.frexp(max(np.abs(mu.atoms).max(), np.abs(nu.atoms).max()))[1]
    diff = np.ldexp(mu.atoms, -e)[:, None, :] - np.ldexp(nu.atoms, -e)[None, :, :]
    cost = (diff * diff).sum(axis=2)

    # with one atom on a side the staircase is the only plan: it prices optimal
    plan = _priced_plan(cost, mu, nu)
    row_err = float(np.abs(plan.sum(axis=1) - mu.weights).max())
    col_err = float(np.abs(plan.sum(axis=0) - nu.weights).max())
    if max(row_err, col_err) > MARGINAL_TOL:
        raise TransportFailed(f"transport plan marginals off by {max(row_err, col_err):.3g}")
    distance = float(np.ldexp(np.sqrt(max((plan * cost).sum(), 0.0)), e))
    return distance, TransportPlan(plan, row_err, col_err)


def _north_west_corner(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The north-west-corner coupling of the atoms sorted by first
    coordinate: its staircase of n + m - 1 entries (a spanning tree) as
    rows, columns and amounts in path order, and whether each step moves
    down (the entry before it used up its row) or right (its column)."""
    rows = np.argsort(mu.atoms[:, 0], kind="stable")
    cols = np.argsort(nu.atoms[:, 0], kind="stable")
    # merge the inner breakpoints of both cumulative weights
    ends = np.concatenate([np.cumsum(mu.weights[rows])[:-1], np.cumsum(nu.weights[cols])[:-1]])
    down = np.argsort(ends, kind="stable") < rows.size - 1
    i = np.concatenate([[0], np.cumsum(down)])
    j = np.concatenate([[0], np.cumsum(~down)])
    # an entry takes what is left of the row or column it uses up, so its
    # rounding is that of the weights, not of the cumulative sums
    a, b = mu.weights[rows].tolist(), nu.weights[cols].tolist()
    amounts = []
    row_left, col_left = a[0], b[0]
    for row_done, r, s in zip(down.tolist(), i[1:].tolist(), j[1:].tolist()):
        if row_done:
            amounts.append(row_left)
            row_left, col_left = a[r], col_left - row_left
        else:
            amounts.append(col_left)
            row_left, col_left = row_left - col_left, b[s]
    amounts.append(row_left)
    # a near tie of the breakpoints can leave a rounding-sized negative entry
    return rows[i], cols[j], np.clip(amounts, 0.0, None), down


def _staircase_is_optimal(c: np.ndarray, i, j, amounts, down) -> bool:
    """Whether the north-west-corner coupling is already optimal: it costs
    nothing (every W2(mu, mu)), or the potentials that price its own
    entries at 0 price no entry below -REDUCED_COST_TOL (in 1-D)."""
    path = c[i, j]
    if path @ amounts == 0.0:
        return True
    # u_i + v_j = c_ij along the path: a step down changes only u, a step
    # right only v, each by the change in cost
    step = np.diff(path)
    u = np.zeros(c.shape[0])
    v = np.zeros(c.shape[1])
    u[i[np.concatenate([[True], down])]] = np.concatenate([[0.0], np.cumsum(step[down])])
    v[j[np.concatenate([[True], ~down])]] = path[0] + np.concatenate([[0.0], np.cumsum(step[~down])])
    return (c - u[:, None] - v[None, :]).min() >= -REDUCED_COST_TOL


def _priced_plan(cost: np.ndarray, mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    n, m = cost.shape
    i, j, amounts, down = _north_west_corner(mu, nu)
    # divided by their maximum when the start costs something: the maximum
    # is 0 when the atoms differ at most in the sign of a zero
    c = cost / cost.max() if cost[i, j] @ amounts else cost
    plan = np.zeros((n, m))
    if _staircase_is_optimal(c, i, j, amounts, down):
        plan[i, j] = amounts
        return plan
    # the solvers are imported where they run, so that a command that
    # solves nothing never loads them
    w = mu.weights[0]
    if n == m and np.all(mu.weights == w) and np.all(nu.weights == w):
        # one weight on both sides: the polytope's vertices are the
        # permutation matrices times w (Birkhoff), so the LP is an assignment
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(c)
        plan[rows, cols] = w
        return plan
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    b_eq = np.concatenate([mu.weights, nu.weights])
    # the staircase keeps the first LP feasible, and each atom's cheapest
    # partners hold most of an optimal plan
    support = _smallest_per_line(c, PRICE_PARTNERS)
    support[i, j] = True
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
        # add the most violated entries of each row and column
        support |= _smallest_per_line(np.where(violated, reduced, np.inf), PRICE_PARTNERS)
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
    return mu.atoms @ as_vector(x, dim=mu.dim)


def prob_synthesis(mu: DiscreteMeasure, table) -> np.ndarray:
    """Adjoint of prob_analysis: sum_i w_i f_i y_i."""
    f = as_vector(table, dim=mu.n_atoms)
    return mu.atoms.T @ (mu.weights * f)


def lower_bound_decay(mu: DiscreteMeasure, n_max: int) -> np.ndarray:
    """Coordinate energies f(n) = integral <b_n, y>^2 dmu(y), n = 1..n_max.

    b_n is the standard basis of the ambient R^N, padded by zero vectors
    for n > N, so f(n) = sum_i w_i y_{i,n}^2 for n <= N and 0 beyond. The
    sequence sums to the second moment and eventually vanishes: no single
    positive constant can lower-bound it for all n, which is the finite
    shadow of the impossibility of frame measures living on the space
    itself in infinite dimensions.
    """
    n_max = as_count(n_max, "n_max")
    out = np.zeros(n_max)
    upto = min(n_max, mu.dim)
    out[:upto] = mu.weights @ (mu.atoms[:, :upto] ** 2)
    return out
