import itertools
import json

import numpy as np
import pytest
from scipy.optimize import linprog

from framemeasures import (
    DiscreteMeasure,
    lower_bound_decay,
    measure_frame_bounds,
    measure_from_dict,
    measure_to_dict,
    prob_analysis,
    prob_frame_operator,
    prob_gramian_apply,
    prob_synthesis,
    second_moment,
    wasserstein2,
)
from framemeasures import measures as measures_mod
from framemeasures.errors import (
    DimensionMismatch,
    InvalidEnsembleSize,
    InvalidWeights,
    TransportFailed,
)
from framemeasures.measures import TransportPlan, measure_l2_normsq


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

    def test_transport_failures_are_typed(self, monkeypatch):
        plan = TransportPlan(matrix=np.array([[0.5, 0.0], [0.0, 0.4]]))
        with pytest.raises(TransportFailed) as info:
            plan.validate_marginals([0.5, 0.5], [0.5, 0.5])
        assert isinstance(info.value, RuntimeError)

        class Infeasible:
            success = False
            message = "infeasible"

        monkeypatch.setattr(measures_mod, "linprog", lambda *a, **k: Infeasible())
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        with pytest.raises(TransportFailed, match="transport LP failed: infeasible"):
            wasserstein2(mu, mu)

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
        np.testing.assert_allclose(prob_frame_operator(mu), np.eye(2) / 2, atol=1e-15)

    def test_point_mass_at_zero(self):
        mu = DiscreteMeasure.point_mass([0.0, 0.0])
        np.testing.assert_array_equal(prob_frame_operator(mu), np.zeros((2, 2)))

    def test_uniform_on_mercedes_benz(self, mb):
        mu = DiscreteMeasure.uniform(mb.vectors)
        np.testing.assert_allclose(prob_frame_operator(mu), np.eye(2) / 2, atol=1e-15)

    def test_bounds_tight_cases(self, mb):
        b = measure_frame_bounds(DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]]))
        assert b.lower == pytest.approx(0.5) and b.upper == pytest.approx(0.5)
        assert b.is_tight() and b.is_frame()

        b = measure_frame_bounds(DiscreteMeasure.point_mass([1.0, 0.0]))
        assert b.lower == pytest.approx(0.0, abs=1e-15)
        assert b.upper == pytest.approx(1.0)
        assert not b.is_frame()

        b = measure_frame_bounds(DiscreteMeasure.uniform(mb.vectors))
        assert b.lower == pytest.approx(0.5) and b.is_tight()

    def test_second_moment(self, mb):
        assert second_moment(DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(1.0)
        assert second_moment(DiscreteMeasure.point_mass([0.0, 0.0])) == 0.0
        assert second_moment(DiscreteMeasure.uniform(mb.vectors)) == pytest.approx(1.0)

    def test_trace_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            mu = random_measure(rng, dim=int(rng.integers(1, 5)))
            assert second_moment(mu) == pytest.approx(
                float(np.trace(prob_frame_operator(mu))), rel=1e-12
            )


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
    @pytest.mark.parametrize("uniform", [True, False])
    def test_self_distance_and_symmetry_at_size(self, dim, uniform):
        # the wasserstein suite's 1e-9 self_distance and symmetry bounds,
        # on measures the size of the CLI's
        rng = np.random.default_rng(500 + 2 * dim + uniform)

        def draw():
            k = int(rng.integers(40, 151))
            pts = rng.normal(size=(k, dim))
            if uniform:
                return DiscreteMeasure.uniform(pts)
            return DiscreteMeasure.normalized(pts, rng.uniform(0.5, 1.5, k))

        for _ in range(10):
            mu, nu = draw(), draw()
            assert wasserstein2(mu, mu)[0] <= 1e-9
            assert abs(wasserstein2(mu, nu)[0] - wasserstein2(nu, mu)[0]) <= 1e-9


class TestOperators:
    def test_analysis_table(self):
        mu = DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])
        table = prob_analysis(mu, [1.0, 0.0])
        np.testing.assert_allclose(table, [1.0, 0.0])
        assert measure_l2_normsq(mu, table) == pytest.approx(0.5)

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
            np.testing.assert_allclose(lhs, prob_frame_operator(mu) @ x, rtol=1e-12, atol=1e-14)

    def test_gramian_apply(self):
        mu = DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(prob_gramian_apply(mu, [0.0, 0.0]), [0.0, 0.0])
        np.testing.assert_allclose(prob_gramian_apply(mu, [1.0, 0.0]), [0.5, 0.0])
        one = DiscreteMeasure.point_mass([1.0, 0.0])
        np.testing.assert_allclose(prob_gramian_apply(one, [1.0]), [1.0])

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
        b = measure_frame_bounds(mu)
        seq = lower_bound_decay(mu, 16)
        assert seq[: mu.dim].min() < b.upper + 1e-12
        assert np.all(seq[mu.dim:] == 0.0)
