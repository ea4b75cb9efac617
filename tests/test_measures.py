import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csr_array

from framemeasures import (
    DiscreteMeasure,
    lower_bound_decay,
    measure_from_dict,
    measure_to_dict,
    prob_analysis,
    prob_synthesis,
    second_moment,
    wasserstein2,
    weighted_frame,
)
from framemeasures.errors import (
    DimensionMismatch,
    InvalidEnsembleSize,
    InvalidWeights,
    TransportFailed,
)
from framemeasures.measures import MARGINAL_TOL, _merge_duplicates


def brute_force_w2sq(mu, nu):
    """Oracle: optimum over vertex plans of the transportation polytope.

    For uniform measures with equal atom counts the vertices are the
    assignment permutations; in general we refine both supports to a
    common grid of weight slices and permute those.
    """
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    cost = (diff * diff).sum(axis=2)
    n, m = mu.n_atoms, nu.n_atoms
    if n == m and np.allclose(mu.weights, 1.0 / n) and np.allclose(nu.weights, 1.0 / m):
        best = np.inf
        for perm in itertools.permutations(range(n)):
            best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
        return best
    raise NotImplementedError


def quantile_w2sq(mu, nu):
    """Oracle for 1-D measures: W2^2 of the sorted (quantile) coupling, in
    exact rational arithmetic on the atoms and weights as stored."""
    a = sorted(zip(mu.atoms[:, 0].tolist(), mu.weights.tolist()))
    b = sorted(zip(nu.atoms[:, 0].tolist(), nu.weights.tolist()))
    total = Fraction(0)
    i = j = 0
    left_a, left_b = Fraction(a[0][1]), Fraction(b[0][1])
    while i < len(a) and j < len(b):
        mass = min(left_a, left_b)
        total += mass * (Fraction(a[i][0]) - Fraction(b[j][0])) ** 2
        left_a -= mass
        left_b -= mass
        if left_a == 0:
            i += 1
            left_a = Fraction(a[i][1]) if i < len(a) else 0
        if left_b == 0:
            j += 1
            left_b = Fraction(b[j][1]) if j < len(b) else 0
    return float(total)


def full_lp_w2sq(mu, nu):
    """Oracle sharing no algorithm with `wasserstein2`: HiGHS on the
    transport LP over all n*m plan entries and the unscaled costs, with
    no start, shortlist, pricing or assignment (as perfbench's
    `_w2_reference` solves weighted pairs)."""
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    cost = (diff * diff).sum(axis=2)
    n, m = cost.shape
    i, j = np.divmod(np.arange(n * m), m)
    a_eq = csr_array((np.ones(2 * n * m), (np.concatenate([i, n + j]), np.tile(np.arange(n * m), 2))),
                     shape=(n + m, n * m))
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(cost.ravel() @ np.clip(res.x, 0.0, None))


@pytest.fixture
def lp_columns(monkeypatch):
    """The column count of each LP that `wasserstein2` solves, in order."""
    columns = []
    solve = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda c, *a, **k: columns.append(c.size) or solve(c, *a, **k))
    return columns


@pytest.fixture
def assignments(monkeypatch):
    """The shape of each assignment that `wasserstein2` solves, in order."""
    shapes = []
    solve = scipy.optimize.linear_sum_assignment
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment",
                        lambda c, *a, **k: shapes.append(c.shape) or solve(c, *a, **k))
    return shapes


def merge_reference(pts, w):
    """The per-atom loop `_merge_duplicates` replaced: rows equal byte for
    byte merge into their first occurrence, their weights summed in order."""
    seen, order, merged = {}, [], []
    for i in range(pts.shape[0]):
        key = pts[i].tobytes()
        if key in seen:
            merged[seen[key]] += w[i]
        else:
            seen[key] = len(order)
            order.append(i)
            merged.append(w[i])
    return np.ascontiguousarray(pts[order]), np.asarray(merged)


# few coordinates, so that rows repeat; 0.0 and -0.0 stay apart
COORDS = st.sampled_from([0.0, -0.0, 1.0, 0.1, -2.5, 5e-324])


def random_measure(rng, dim=2, max_atoms=5):
    n = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure.normalized(rng.normal(size=(n, dim)), rng.random(n) + 0.1)


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_points([[1.0, 0.0]], [0.5])

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_points([[1.0], [0.0]], [1.5, -0.5])

    @pytest.mark.parametrize("make", [
        lambda: DiscreteMeasure.from_points([[1.0], [0.0]], [0.0, 1.0]),
        lambda: DiscreteMeasure.from_points([[1.0], [0.0]], [np.nan, 1.0]),
        lambda: DiscreteMeasure.from_points([[1.0, 0.0]], [0.5]),
        lambda: DiscreteMeasure.normalized([[1.0], [0.0]], [0.0, 0.0]),
    ])
    def test_bad_weights_are_typed(self, make):
        with pytest.raises(InvalidWeights) as info:
            make()
        assert isinstance(info.value, ValueError)

    def test_weight_sum_prints_as_a_plain_float(self):
        with pytest.raises(InvalidWeights, match=r"weights sum to 1\.1, not 1"):
            DiscreteMeasure.from_points([[1.0], [0.0]], [0.5, 0.6])

    def test_transport_failures_are_typed(self, monkeypatch):
        # a weighted pair whose north-west-corner start is not optimal, so
        # the LP runs
        mu = DiscreteMeasure.from_points([[0.0, 0.0], [1.0, 5.0]], [0.4, 0.6])
        nu = DiscreteMeasure.from_points([[0.0, 5.0], [1.0, 0.0]], [0.4, 0.6])

        def misses_weights(c, A_eq, b_eq, **kwargs):
            # "optimal", with duals that price nothing, but a plan of zeros
            return SimpleNamespace(success=True, x=np.zeros(c.size),
                                   eqlin=SimpleNamespace(marginals=np.zeros(b_eq.size)))

        monkeypatch.setattr(scipy.optimize, "linprog", misses_weights)
        with pytest.raises(TransportFailed, match="marginals off by 0.6") as info:
            wasserstein2(mu, nu)
        assert isinstance(info.value, RuntimeError)

        class Infeasible:
            success = False
            message = "infeasible"

        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: Infeasible())
        with pytest.raises(TransportFailed, match="transport LP failed: infeasible"):
            wasserstein2(mu, nu)

    def test_decay_length_below_one_is_typed(self):
        with pytest.raises(InvalidEnsembleSize):
            lower_bound_decay(DiscreteMeasure.point_mass([1.0]), 0)

    def test_normalized_constructor(self):
        mu = DiscreteMeasure.normalized([[1.0], [2.0]], [2.0, 6.0])
        np.testing.assert_allclose(mu.weights, [0.25, 0.75])

    def test_duplicates_merged_in_order(self):
        mu = DiscreteMeasure.from_points(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [0.25, 0.5, 0.25]
        )
        assert mu.n_atoms == 2
        np.testing.assert_array_equal(mu.atoms, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(st.lists(COORDS, min_size=d, max_size=d), st.floats(0.01, 1.0)),
        min_size=1, max_size=40)))
    def test_merge_matches_the_loop_bit_for_bit(self, atoms):
        pts = np.array([row for row, _ in atoms])
        w = np.array([weight for _, weight in atoms])
        got, want = _merge_duplicates(pts, w), merge_reference(pts, w)
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
        assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()
        assert got[0].flags.c_contiguous

    def test_json_roundtrip(self):
        mu = DiscreteMeasure.normalized([[1.0, 2.0], [0.0, -1.0]], [1.0, 3.0])
        doc = json.loads(json.dumps(measure_to_dict(mu)))
        mu2 = measure_from_dict(doc)
        np.testing.assert_array_equal(mu2.atoms, mu.atoms)
        np.testing.assert_allclose(mu2.weights, mu.weights)


class TestFrameOperator:
    def test_uniform_on_basis(self):
        # oracle: (1/2) e1 e1^T + (1/2) e2 e2^T = I/2
        mu = DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(weighted_frame(mu).frame_operator, np.eye(2) / 2, atol=1e-15)

    def test_point_mass_at_zero(self):
        mu = DiscreteMeasure.point_mass([0.0, 0.0])
        np.testing.assert_array_equal(weighted_frame(mu).frame_operator, np.zeros((2, 2)))

    def test_uniform_on_mercedes_benz(self, mb):
        mu = DiscreteMeasure.uniform(mb.vectors)
        np.testing.assert_allclose(weighted_frame(mu).frame_operator, np.eye(2) / 2, atol=1e-15)

    def test_bounds_tight_cases(self, mb):
        b = weighted_frame(DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]]))
        assert b.lower_bound == pytest.approx(0.5) and b.upper_bound == pytest.approx(0.5)
        assert b.is_tight() and b.is_frame()

        b = weighted_frame(DiscreteMeasure.point_mass([1.0, 0.0]))
        assert b.lower_bound == pytest.approx(0.0, abs=1e-15)
        assert b.upper_bound == pytest.approx(1.0)
        assert not b.is_frame()

        b = weighted_frame(DiscreteMeasure.uniform(mb.vectors))
        assert b.lower_bound == pytest.approx(0.5) and b.is_tight()

    def test_second_moment(self, mb):
        assert second_moment(DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(1.0)
        assert second_moment(DiscreteMeasure.point_mass([0.0, 0.0])) == 0.0
        assert second_moment(DiscreteMeasure.uniform(mb.vectors)) == pytest.approx(1.0)

    def test_trace_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            mu = random_measure(rng, dim=int(rng.integers(1, 5)))
            assert second_moment(mu) == pytest.approx(
                float(np.trace(weighted_frame(mu).frame_operator)), rel=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
    def test_weighted_frame_is_the_measure(self, mb, seed, log_scale):
        # the frame {sqrt(w_i) y_i} of a measure with its atoms shuffled has
        # the measure's energies sum_i w_i <x, y_i>^2 and the extreme
        # eigenvalues of sum_i w_i y_i y_i^T as its bounds, at any scale
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        mu = random_measure(rng, dim=int(rng.integers(1, 5)), max_atoms=8)
        atoms, w = scale * mu.atoms, mu.weights
        order = rng.permutation(mu.n_atoms)
        frame = weighted_frame(DiscreteMeasure.from_points(atoms[order], w[order]))
        for x in rng.normal(size=(3, mu.dim)):
            energy = float(np.sum((frame.vectors @ x) ** 2))
            assert energy == pytest.approx(float(w @ (atoms @ x) ** 2), rel=1e-12)
        eigs = np.linalg.eigvalsh(atoms.T @ (w[:, None] * atoms))
        tol = 1e-12 * frame.upper_bound
        assert abs(frame.upper_bound - eigs[-1]) <= tol
        assert abs(frame.lower_bound - max(eigs[0], 0.0)) <= tol
        # the verdicts of the point mass, the uniform Mercedes-Benz measure
        # and a rank-deficient measure on the line through (1, 2)
        verdicts = [
            (DiscreteMeasure.point_mass([scale, 0.0]), False, False),
            (DiscreteMeasure.uniform(scale * mb.vectors), True, True),
            (DiscreteMeasure.from_points(scale * np.outer([0.3, -1.0, 2.5], [1.0, 2.0]),
                                         [0.2, 0.5, 0.3]), False, False),
        ]
        for nu, spans, tight in verdicts:
            b = weighted_frame(nu)
            assert (b.is_frame(), b.is_tight()) == (spans, tight)


class TestWasserstein:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(2)
        mu = random_measure(rng)
        d, plan = wasserstein2(mu, mu)
        assert d <= 1e-9
        # the optimal self-coupling is supported on the diagonal
        off = plan.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert off.max() <= 1e-12 or d <= 1e-9

    def test_two_point_masses(self):
        a = DiscreteMeasure.point_mass([0.0, 0.0])
        b = DiscreteMeasure.point_mass([3.0, 4.0])
        d, plan = wasserstein2(a, b)
        assert d == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(plan.matrix, [[1.0]])

    def test_two_atom_example(self):
        # oracle: enumerate both vertex couplings of the 2x2 polytope
        mu = DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
        nu = DiscreteMeasure.uniform([[0.0, 0.0], [2.0, 0.0]])
        assert brute_force_w2sq(mu, nu) == pytest.approx(0.5)
        d, _ = wasserstein2(mu, nu)
        assert d * d == pytest.approx(0.5, rel=1e-12)

    def test_matches_bruteforce_uniform(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            mu = DiscreteMeasure.uniform(rng.normal(size=(n, 2)))
            nu = DiscreteMeasure.uniform(rng.normal(size=(n, 2)))
            d, _ = wasserstein2(mu, nu)
            assert d * d == pytest.approx(brute_force_w2sq(mu, nu), rel=1e-9, abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            a, b, c = (random_measure(rng) for _ in range(3))
            dab, _ = wasserstein2(a, b)
            dba, _ = wasserstein2(b, a)
            dac, _ = wasserstein2(a, c)
            dcb, _ = wasserstein2(c, b)
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab <= dac + dcb + 1e-9

    def test_identity_of_indiscernibles(self):
        mu = DiscreteMeasure.from_points([[0.0, 1.0], [2.0, 0.0]], [0.25, 0.75])
        shuffled = DiscreteMeasure.from_points([[2.0, 0.0], [0.0, 1.0]], [0.75, 0.25])
        d, _ = wasserstein2(mu, shuffled)
        assert d < 1e-9
        other = DiscreteMeasure.from_points([[0.0, 1.0], [2.0, 1.0]], [0.25, 0.75])
        d2, _ = wasserstein2(mu, other)
        assert d2 > 1e-9

    @pytest.mark.parametrize("atoms", [[[0.0], [-0.0]], [[0.0, 1.0], [-0.0, 1.0]]],
                             ids=["R1", "R2"])
    @pytest.mark.parametrize("weights", [None, [0.3, 0.7]], ids=["uniform", "weighted"])
    def test_atoms_equal_up_to_the_sign_of_zero(self, atoms, weights, recwarn):
        # the bitwise merge keeps both atoms, so every cost is 0: W2 is 0,
        # not the NaN of costs divided by their maximum
        mu = DiscreteMeasure.from_points(atoms, weights)
        assert mu.n_atoms == 2
        d, plan = wasserstein2(mu, mu)
        assert d == 0.0
        assert plan.row_marginal_residual == plan.col_marginal_residual == 0.0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wasserstein2(DiscreteMeasure.point_mass([0.0]), DiscreteMeasure.point_mass([0.0, 1.0]))

    def test_optimality_certificate_nonuniform(self):
        # independent certificate covering non-uniform weights: a plan is
        # optimal iff potentials u, v with u_i + v_j <= C_ij exist that are
        # tight on its support (complementary slackness); propagate them
        # over the support forest and check global dual feasibility
        rng = np.random.default_rng(53)
        for _ in range(25):
            mu = random_measure(rng, dim=2, max_atoms=5)
            nu = random_measure(rng, dim=2, max_atoms=5)
            d, plan = wasserstein2(mu, nu)
            diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
            cost = (diff * diff).sum(axis=2)
            n, m = cost.shape
            support = plan.matrix > 1e-12
            u = np.full(n, np.nan)
            v = np.full(m, np.nan)
            for root in range(n):
                if not np.isnan(u[root]):
                    continue
                u[root] = 0.0
                queue = [("row", root)]
                while queue:
                    kind, idx = queue.pop()
                    if kind == "row":
                        for j in np.nonzero(support[idx])[0]:
                            if np.isnan(v[j]):
                                v[j] = cost[idx, j] - u[idx]
                                queue.append(("col", j))
                    else:
                        for i in np.nonzero(support[:, idx])[0]:
                            if np.isnan(u[i]):
                                u[i] = cost[i, idx] - v[idx]
                                queue.append(("row", i))
            untouched = np.isnan(v)
            v[untouched] = (cost - u[:, None]).min(axis=0)[untouched]
            slack = cost - u[:, None] - v[None, :]
            assert slack.min() >= -1e-9
            assert float(u @ mu.weights + v @ nu.weights) == pytest.approx(d * d, abs=1e-9)

    def test_plan_equals_dense_constraint_reference(self):
        # the priced solve and HiGHS on the full dense LP reach the same
        # vertex: same support, entries and distance equal to rounding,
        # and potentials solved on the plan's support (independent of the
        # solver's duals) leave no negative reduced cost
        rng = np.random.default_rng(150)
        n, m = 150, 100
        mu = DiscreteMeasure.normalized(rng.normal(size=(n, 3)), rng.uniform(0.5, 1.5, n))
        nu = DiscreteMeasure.normalized(rng.normal(size=(m, 3)), rng.uniform(0.5, 1.5, m))
        d, plan = wasserstein2(mu, nu)

        diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
        cost = (diff * diff).sum(axis=2)
        a_eq = np.zeros((n + m, n * m))
        for i in range(n):
            a_eq[i, i * m : (i + 1) * m] = 1.0
        for j in range(m):
            a_eq[n + j, j::m] = 1.0
        res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]),
                      bounds=(0, None), method="highs")
        want = np.clip(res.x.reshape(n, m), 0.0, None)
        np.testing.assert_array_equal(plan.matrix > 0.0, want > 0.0)
        assert np.abs(plan.matrix - want).max() <= 1e-15
        want_d = float(np.sqrt(max((want * cost).sum(), 0.0)))
        assert abs(d - want_d) <= 4 * np.spacing(want_d)

        # the support is a spanning tree, so u_i + v_j = C_ij on it fixes
        # the potentials up to one constant
        i, j = np.nonzero(plan.matrix)
        assert i.size == n + m - 1
        tree = np.zeros((i.size, n + m))
        tree[np.arange(i.size), i] = 1.0
        tree[np.arange(i.size), n + j] = 1.0
        uv = np.linalg.lstsq(tree, cost[i, j], rcond=None)[0]
        reduced = cost - uv[:n, None] - uv[None, n:]
        assert reduced.min() >= -1e-12 * cost.max()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_distance_scales_with_atoms(self, dim, scale):
        # W2(s mu, s nu) = s W2(mu, nu): the solver's tolerances must be
        # relative to the cost scale, not absolute
        rng = np.random.default_rng(400 + dim)
        mu = DiscreteMeasure.normalized(rng.normal(size=(60, dim)), rng.uniform(0.5, 1.5, 60))
        nu = DiscreteMeasure.uniform(rng.normal(size=(45, dim)))
        d, _ = wasserstein2(mu, nu)
        scaled = [DiscreteMeasure.from_points(scale * x.atoms, x.weights) for x in (mu, nu)]
        d_scaled, _ = wasserstein2(*scaled)
        assert d_scaled / scale == pytest.approx(d, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("uniform", [True, False, "square"])
    def test_self_distance_and_symmetry_at_size(self, dim, uniform):
        # the wasserstein suite's exact self_distance and its 1e-9 symmetry
        # bound, on measures the size of the CLI's; "square" pairs uniform
        # measures of one size, which in R^2 W2 solves as an assignment
        rng = np.random.default_rng(500 + 2 * dim + (uniform is True) + 10 * (uniform == "square"))

        def draw(k=None):
            k = int(rng.integers(40, 151)) if k is None else k
            pts = rng.normal(size=(k, dim))
            if uniform is False:
                return DiscreteMeasure.normalized(pts, rng.uniform(0.5, 1.5, k))
            return DiscreteMeasure.uniform(pts)

        for _ in range(10):
            mu = draw()
            nu = draw(mu.n_atoms if uniform == "square" else None)
            assert wasserstein2(mu, mu)[0] == 0.0
            assert abs(wasserstein2(mu, nu)[0] - wasserstein2(nu, mu)[0]) <= 1e-9

    def test_optimal_start_skips_the_solver(self, lp_columns):
        # the north-west-corner start is optimal in 1-D, where its own
        # potentials certify it, and for W2(mu, mu), where it costs nothing;
        # neither solves an LP, while a 3-D pair still does
        rng = np.random.default_rng(600)

        def measure(k, dim, uniform):
            pts = rng.normal(size=(k, dim))
            if uniform:
                return DiscreteMeasure.uniform(pts)
            return DiscreteMeasure.normalized(pts, rng.uniform(0.5, 1.5, k))

        # uniform 81 and 96 atoms tie at every third of the mass
        mu, nu = measure(81, 1, True), measure(96, 1, True)
        d, _ = wasserstein2(mu, nu)
        assert d * d == pytest.approx(quantile_w2sq(mu, nu), rel=4e-15)
        for k, l, uniform in [(40, 150, True), (150, 150, True), (60, 45, False), (2, 150, False)]:
            wasserstein2(measure(k, 1, uniform), measure(l, 1, uniform))
        for dim in (1, 3):
            mu = measure(150, dim, False)
            assert wasserstein2(mu, mu)[0] == 0.0
        assert lp_columns == []

        mu, nu = measure(150, 3, False), measure(100, 3, False)
        wasserstein2(mu, nu)
        assert len(lp_columns) >= 1

    @pytest.mark.parametrize("n, m, uniform", [(150, 150, True), (150, 150, False), (150, 100, False)])
    def test_at_most_two_solves(self, lp_columns, assignments, n, m, uniform):
        # the first LP covers each atom's cheapest partners as well as the
        # n + m - 1 entries of the north-west-corner staircase, so one
        # round of pricing at most is left, and a uniform square pair is
        # one assignment and no LP; the benchmark's W2 shapes
        rng = np.random.default_rng(700 + m)

        def measure(k):
            pts = rng.normal(size=(k, 3))
            if uniform:
                return DiscreteMeasure.uniform(pts)
            return DiscreteMeasure.normalized(pts, rng.uniform(0.5, 1.5, k))

        for _ in range(4):
            mu, nu = measure(n), measure(m)
            for a, b in ((mu, nu), (nu, mu)):
                lp_columns.clear()
                assignments.clear()
                wasserstein2(a, b)
                if uniform:
                    assert (lp_columns, assignments) == ([], [(n, m)])
                else:
                    assert 1 <= len(lp_columns) <= 2
                    assert lp_columns[0] > n + m - 1
                    assert assignments == []

    def test_assignment_needs_equal_counts_and_one_weight(self, lp_columns, assignments):
        # only n == m with all 2n weights the same double is an assignment;
        # each near miss in R^3 still solves an LP
        rng = np.random.default_rng(800)

        def pts(k):
            return rng.normal(size=(k, 3))

        w = 1.0 / 150
        wasserstein2(DiscreteMeasure.uniform(pts(150)), DiscreteMeasure.uniform(pts(150)))
        assert (lp_columns, assignments) == ([], [(150, 150)])

        one_ulp_off = np.full(150, w)
        one_ulp_off[0] = np.nextafter(w, 1.0)
        doubled = np.vstack([pts(150), np.zeros((1, 3))])
        doubled[-1] = doubled[0]
        near_misses = [
            (DiscreteMeasure.uniform(pts(150)), DiscreteMeasure.uniform(pts(149))),
            # one side uniform, the other all one ulp above it
            (DiscreteMeasure.uniform(pts(150)),
             DiscreteMeasure.from_points(pts(150), np.full(150, np.nextafter(w, 1.0)))),
            # one weight one ulp above the other 299
            (DiscreteMeasure.uniform(pts(150)), DiscreteMeasure.from_points(pts(150), one_ulp_off)),
            # 151 listed atoms, the last a copy of the first: weight 2/151
            (DiscreteMeasure.uniform(doubled), DiscreteMeasure.uniform(pts(150))),
        ]
        assert near_misses[3][0].n_atoms == 150
        for mu, nu in near_misses:
            lp_columns.clear()
            wasserstein2(mu, nu)
            assert assignments == [(150, 150)] and len(lp_columns) >= 1

    def test_hundreds_of_atoms_match_the_assignment(self):
        # uniform 300 x 300 in R^3: a permutation is optimal, which
        # `wasserstein2` finds as an assignment, and HiGHS on the full LP
        # confirms independently
        rng = np.random.default_rng(300)
        mu = DiscreteMeasure.uniform(rng.normal(size=(300, 3)))
        nu = DiscreteMeasure.uniform(rng.normal(size=(300, 3)))
        d, plan = wasserstein2(mu, nu)
        assert d * d == pytest.approx(full_lp_w2sq(mu, nu), rel=1e-12)
        assert np.abs(plan.matrix.sum(axis=1) - mu.weights).max() <= MARGINAL_TOL
        assert np.abs(plan.matrix.sum(axis=0) - nu.weights).max() <= MARGINAL_TOL

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 60))
    def test_uniform_squares_match_the_full_lp(self, seed, dim, n):
        # uniform pairs of n atoms drawn without repeats from a small
        # integer lattice of at least 60 points, so that many costs tie
        rng = np.random.default_rng(seed)
        span = {1: 40, 2: 5, 3: 3, 4: 2}[dim]
        lattice = np.array(list(itertools.product(range(-span, span + 1), repeat=dim)), float)
        mu, nu = (DiscreteMeasure.uniform(lattice[rng.choice(len(lattice), n, replace=False)])
                  for _ in range(2))
        d, plan = wasserstein2(mu, nu)
        want = np.sqrt(full_lp_w2sq(mu, nu))
        assert abs(d - want) <= 1e-12 * want
        assert plan.row_marginal_residual == plan.col_marginal_residual == 0.0
        assert abs(d - wasserstein2(nu, mu)[0]) <= 1e-9


class TestOperators:
    def test_analysis_table(self):
        mu = DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])
        table = prob_analysis(mu, [1.0, 0.0])
        np.testing.assert_allclose(table, [1.0, 0.0])
        # ||T_mu x||^2 in L^2(mu): sum_i w_i f_i^2
        assert mu.weights @ (table * table) == pytest.approx(0.5)

    def test_analysis_zero_and_point_mass(self):
        mu = DiscreteMeasure.point_mass([0.5, 0.5])
        np.testing.assert_allclose(prob_analysis(mu, [0.0, 0.0]), [0.0])
        np.testing.assert_allclose(prob_analysis(mu, [2.0, 0.0]), [1.0])

    def test_synthesis(self):
        mu = DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(prob_synthesis(mu, [0.0, 0.0]), [0.0, 0.0])
        np.testing.assert_allclose(prob_synthesis(mu, [1.0, 0.0]), [0.5, 0.0])

    def test_synthesis_of_analysis_is_operator(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            mu = random_measure(rng, dim=3)
            x = rng.normal(size=3)
            lhs = prob_synthesis(mu, prob_analysis(mu, x))
            np.testing.assert_allclose(lhs, weighted_frame(mu).frame_operator @ x,
                                       rtol=1e-12, atol=1e-14)

    def test_gramian_apply(self):
        # the Gramian G_mu f = T_mu T_mu* f at each atom
        def gramian(mu, f):
            return prob_analysis(mu, prob_synthesis(mu, f))

        mu = DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(gramian(mu, [0.0, 0.0]), [0.0, 0.0])
        np.testing.assert_allclose(gramian(mu, [1.0, 0.0]), [0.5, 0.0])
        one = DiscreteMeasure.point_mass([1.0, 0.0])
        np.testing.assert_allclose(gramian(one, [1.0]), [1.0])

    def test_adjointness(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            mu = random_measure(rng, dim=3)
            f = rng.normal(size=mu.n_atoms)
            x = rng.normal(size=3)
            lhs = float((mu.weights * f) @ prob_analysis(mu, x))
            rhs = float(x @ prob_synthesis(mu, f))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestDecay:
    def test_point_mass_e1(self):
        mu = DiscreteMeasure.point_mass([1.0, 0.0])
        np.testing.assert_allclose(lower_bound_decay(mu, 3), [1.0, 0.0, 0.0])

    def test_uniform_basis(self):
        mu = DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(lower_bound_decay(mu, 4), [0.5, 0.5, 0.0, 0.0])

    def test_sum_is_second_moment(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            mu = random_measure(rng, dim=int(rng.integers(1, 6)))
            seq = lower_bound_decay(mu, 32)
            assert seq.sum() == pytest.approx(second_moment(mu), rel=1e-12, abs=1e-14)
            assert np.all(seq[mu.dim:] == 0.0)

    def test_no_uniform_lower_bound(self):
        rng = np.random.default_rng(43)
        mu = random_measure(rng, dim=4)
        seq = lower_bound_decay(mu, 16)
        assert seq[: mu.dim].min() < weighted_frame(mu).upper_bound + 1e-12
        assert np.all(seq[mu.dim:] == 0.0)
