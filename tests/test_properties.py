"""Scale and order invariance of every constructor, and the invariants
each constructor keeps (read by the suites, never recomputed).

Each example draws a seed, a scale s log-uniform in [1e-6, 1e6] (up to
1e9 for the W2 symmetry bound) and a random permutation of the frame
vectors or atoms; W2 is also checked at 1e-200 to 1e200, and the kl
invariants under an orthogonal rotation. Matrices are judged symmetric
relative to their largest entry, so a Gramian formed with rounding is
accepted at any s.
"""
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemeasures import (
    DiscreteMeasure,
    GramMatrix,
    WhiteNoiseEnsemble,
    build_chain,
    build_frame,
    gram,
    joint_density,
    kernel_from_frame,
    kl_variance,
    save_frame,
    wasserstein2,
)
from framemeasures.errors import InvalidGramian
from framemeasures.report import ExperimentConfig
from framemeasures.suites import run

SEEDS = st.integers(0, 2**32 - 1)
LOG_SCALES = st.floats(-6.0, 6.0)


def _vectors(rng, spanning=False):
    d = int(rng.integers(1, 7))
    n = int(rng.integers(d if spanning else 1, 13))
    return rng.normal(size=(n, d))


def _save_uniform_measure(atoms, directory, name):
    path = os.path.join(directory, name + ".json")
    with open(path, "w") as fh:
        json.dump({"dim": atoms.shape[1], "atoms": atoms.tolist(),
                   "weights": [1.0 / len(atoms)] * len(atoms)}, fh)
    return path


def _count_eigensolves(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _solve=solve, **k: calls.append(1) or _solve(*a, **k))
    return calls


@settings(max_examples=100, deadline=None)
@given(SEEDS, LOG_SCALES)
def test_frame_bounds_scale_by_s_squared_and_ignore_order(seed, log_s):
    rng = np.random.default_rng(seed)
    v = _vectors(rng)
    s = 10.0**log_s
    f = build_frame(v)
    for g in (build_frame(s * v), build_frame(s * v[rng.permutation(len(v))])):
        # relative to the top of the spectrum: alpha may be 0
        top = s * s * f.upper_bound
        assert abs(g.upper_bound - top) <= 1e-12 * top
        assert abs(g.lower_bound - s * s * f.lower_bound) <= 1e-12 * top


@settings(max_examples=100, deadline=None)
@given(SEEDS, LOG_SCALES)
def test_gram_accepts_every_scale(seed, log_s):
    rng = np.random.default_rng(seed)
    v = _vectors(rng)
    g = gram(build_frame(10.0**log_s * v[rng.permutation(len(v))]))
    assert -g.min_eigenvalue <= g.psd_bound


@settings(max_examples=100, deadline=None)
@given(SEEDS, LOG_SCALES)
def test_kernel_and_chain_ignore_scale_and_follow_permutation(seed, log_s):
    rng = np.random.default_rng(seed)
    v = _vectors(rng, spanning=True)
    perm = rng.permutation(len(v))
    k, p = kernel_from_frame(build_frame(v)).matrix, build_chain(build_frame(v)).transition_matrix
    for w, order in ((10.0**log_s * v, np.arange(len(v))), (10.0**log_s * v[perm], perm)):
        f = build_frame(w)
        # a permutation P turns K into P K P^T: rows and columns reordered
        np.testing.assert_allclose(kernel_from_frame(f).matrix, k[np.ix_(order, order)],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(build_chain(f).transition_matrix, p[np.ix_(order, order)],
                                   rtol=0.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(SEEDS, LOG_SCALES)
def test_w2_scales_by_s_and_keeps_its_marginal_residuals(seed, log_s):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    x = rng.normal(size=(int(rng.integers(1, 30)), dim))
    y = rng.normal(size=(int(rng.integers(1, 30)), dim))
    wx = rng.uniform(0.5, 1.5, len(x))
    s = 10.0**log_s
    d, _ = wasserstein2(DiscreteMeasure.normalized(x, wx), DiscreteMeasure.uniform(y))
    order = rng.permutation(len(x))
    mu = DiscreteMeasure.normalized(s * x[order], wx[order])
    nu = DiscreteMeasure.uniform(s * y)
    d_s, plan = wasserstein2(mu, nu)
    assert d_s / s == pytest.approx(d, rel=1e-9, abs=1e-12)
    assert plan.row_marginal_residual == np.abs(plan.matrix.sum(axis=1) - mu.weights).max()
    assert plan.col_marginal_residual == np.abs(plan.matrix.sum(axis=0) - nu.weights).max()


@pytest.mark.parametrize("s", [2.0**530, 2.0**-660, 1e160, 1e-160, 1e200, 1e-200],
                         ids=["2^530", "2^-660", "1e160", "1e-160", "1e200", "1e-200"])
def test_w2_at_extreme_scales(s):
    # squared distances of atoms near 1e160 overflow a double, and those of
    # atoms near 1e-200 underflow to 0; at a power of two the scaled pair
    # gives the same plan and distance, bit for bit
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(12, 2)), rng.normal(size=(9, 2))
    d, plan = wasserstein2(DiscreteMeasure.uniform(x), DiscreteMeasure.uniform(y))
    d_s, plan_s = wasserstein2(DiscreteMeasure.uniform(s * x), DiscreteMeasure.uniform(s * y))
    assert d_s / s == pytest.approx(d, rel=1e-12)
    if np.frexp(s)[0] == 0.5:
        assert d_s / s == d
        np.testing.assert_array_equal(plan_s.matrix, plan.matrix)
    mu = DiscreteMeasure.uniform([[s], [-s]])
    assert wasserstein2(mu, DiscreteMeasure.point_mass([0.0]))[0] == pytest.approx(s, rel=1e-15)
    assert wasserstein2(mu, mu)[0] == 0.0


# derandomized: the dpp suite's cardinality record is a 4-sigma z-score,
# so fresh examples on every run would fail at that gate's small rate
@settings(max_examples=25, deadline=None, derandomize=True)
@given(SEEDS, LOG_SCALES)
def test_frame_suites_pass_at_any_scale(seed, log_s):
    rng = np.random.default_rng(seed)
    v = _vectors(rng, spanning=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "frame.json")
        save_frame(build_frame(10.0**log_s * v[rng.permutation(len(v))]), path)
        for command in ("frames", "markov", "dpp"):
            report = run(ExperimentConfig(command, seed=seed % 1000, samples=2000,
                                          inputs=(path,)))
            failed = [r.name for r in report.records if not r.passed]
            assert report.overall_pass, (command, failed)


@settings(max_examples=25, deadline=None)
@given(SEEDS, LOG_SCALES)
def test_measure_suites_pass_at_any_scale(seed, log_s):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in ("mu", "nu"):
            n = int(rng.integers(1, 40))
            paths.append(_save_uniform_measure(10.0**log_s * rng.normal(size=(n, dim)), tmp, name))
        for command, inputs in (("decay", paths[:1]), ("wasserstein", paths)):
            report = run(ExperimentConfig(command, inputs=tuple(inputs)))
            failed = [r.name for r in report.records if not r.passed]
            assert report.overall_pass, (command, failed)


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.floats(0.0, 9.0))
def test_w2_symmetry_bound_follows_the_distance(seed, log_s):
    # |W2(mu, nu) - W2(nu, mu)| grows with the atoms: 40 and 30 atoms in
    # R^3 scaled by 1e7 often missed an absolute bound of 1e-9
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [_save_uniform_measure(10.0**log_s * rng.normal(size=(n, 3)), tmp, name)
                 for name, n in (("mu", 40), ("nu", 30))]
        report = run(ExperimentConfig("wasserstein", inputs=tuple(paths)))
    failed = [r.name for r in report.records if not r.passed]
    assert report.overall_pass, failed


# The kl targets do not depend on the samples, so one 2-sample ensemble
# serves every example, wide enough for 12 frame vectors. Its sanity band
# reads only those 2 samples, and at D = 12 refuses about one seed in five;
# seed 0 passes it. 64 ulp bound the rounding of the Parseval residual
# (absolute: the frame bounds are near 1) and of each target (relative);
# over 5000 seeds they moved by at most 10 and 7 ulp.
KL_ENSEMBLE = WhiteNoiseEnsemble(12, 2, seed=0)
KL_ROUNDING = 64 * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_kl_invariants_ignore_order_and_rotation(seed):
    # the rows of an (n, d) matrix with orthonormal columns are a Parseval
    # frame; permuted, or rotated by an orthogonal d x d matrix, they are
    # one still, and sum_n <x, phi_n>^2 stays ||x||^2
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    n = int(rng.integers(d, 13))
    q, _ = np.linalg.qr(rng.normal(size=(n, d)))
    rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
    xs = rng.normal(size=(3, d))

    def invariants(vectors):
        f = build_frame(vectors)
        estimates = KL_ENSEMBLE.reduce([kl_variance(f, x) for x in xs])
        return f.parseval_residual, np.array([e.target for e in estimates])

    residual, targets = invariants(q)
    for vectors in (q[rng.permutation(n)], q @ rotation):
        moved_residual, moved_targets = invariants(vectors)
        assert abs(moved_residual - residual) <= KL_ROUNDING
        np.testing.assert_allclose(moved_targets, targets, rtol=KL_ROUNDING, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(SEEDS, LOG_SCALES)
def test_symmetry_is_judged_relative_to_scale(seed, log_s):
    # (a * w) @ a.T is the Gramian of the frame a * sqrt(w), formed by one
    # gemm: its asymmetry is rounding at the scale of its entries (about
    # 1.5e-11 at s = 1e2), which an absolute bound of 1e-12 refused
    rng = np.random.default_rng(seed)
    a = 10.0**log_s * _vectors(rng)
    w = rng.uniform(0.5, 1.5, a.shape[1])
    g = GramMatrix((a * w) @ a.T)
    assert -g.min_eigenvalue <= g.psd_bound
    # an asymmetry 1000 times the bound is refused at every scale
    if len(a) > 1:
        skew = g.entries.copy()
        skew[0, 1] += 1e-9 * max(1.0, np.abs(skew).max())
        with pytest.raises(InvalidGramian, match="Gramian is not symmetric"):
            GramMatrix(skew)


def test_kernel_from_frame_solves_one_eigenproblem(mb, monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    kernel_from_frame(mb)
    assert len(calls) == 1


def test_joint_density_reads_the_kept_spectrum(monkeypatch):
    g = GramMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    calls = _count_eigensolves(monkeypatch)
    joint_density(g, [0.3, -0.2])
    joint_density(g, np.zeros((4, 2)))
    assert calls == []
