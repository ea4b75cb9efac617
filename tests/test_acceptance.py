"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Every tolerance and runtime budget is pinned here; seeds are fixed so the
whole suite is deterministic.
"""
import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import chisquare

import framemeasures as fm
from framemeasures import translation
from framemeasures import whitenoise as wn
from framemeasures.dpp import _subset_minors
from framemeasures.report import ExperimentConfig
from framemeasures.suites import run as run_suite

MASTER_SEED = 20250809


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def ens32():
    # shared across criteria 5, 6, 8, 9, 10; each runs its checks in one pass
    return fm.WhiteNoiseEnsemble(32, 1_000_000, seed=MASTER_SEED)


def _z_scores(results):
    """|z| of every McEstimate of a pass's results."""
    for r in results:
        for est in r if isinstance(r, tuple) else (r,):
            yield abs(est.z_score)


def random_frame(rng, max_dim=8, max_n=16, spanning=False):
    dim = int(rng.integers(2, max_dim + 1))
    lo = dim if spanning else 1
    n = int(rng.integers(lo, max_n + 1))
    return fm.build_frame(rng.normal(size=(n, dim)))


def test_criterion_01_frame_bounds_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = -np.inf
    for _ in range(200):
        f = random_frame(rng)
        xs = rng.normal(size=(1000, f.dim))
        energy = ((xs @ f.vectors.T) ** 2).sum(axis=1)
        nsq = (xs * xs).sum(axis=1)
        worst = max(
            worst,
            float((f.lower_bound * nsq - energy).max()),
            float((energy - f.upper_bound * nsq).max()),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, "frame-bounds sandwich", ok,
            f"(worst violation {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_markov_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst_row = worst_rev = worst_bound = 0.0
    for _ in range(100):
        f = random_frame(rng, spanning=True)
        chain = fm.build_chain(f)
        p = chain.transition_matrix
        c = chain.normalizers
        worst_row = max(worst_row, float(np.abs(p.sum(axis=1) - 1.0).max()))
        flux = c[:, None] * p
        scale = np.maximum(np.maximum(np.abs(flux), np.abs(flux.T)), 1e-300)
        worst_rev = max(worst_rev, float((np.abs(flux - flux.T) / scale).max()))
        norms_sq = (f.vectors**2).sum(axis=1)
        worst_bound = max(
            worst_bound, float((p - norms_sq[None, :] / f.lower_bound).max())
        )
    elapsed = time.perf_counter() - t0
    ok = worst_row <= 1e-12 and worst_rev <= 1e-12 and worst_bound <= 1e-12 and elapsed < 5.0
    _report(2, "markov row/reversibility/bound", ok,
            f"(row {worst_row:.1e}, rev {worst_rev:.1e}, bound {worst_bound:.1e}, {elapsed:.2f}s)")


def test_criterion_03_path_space_measure():
    t0 = time.perf_counter()
    mb = fm.mercedes_benz_frame()
    chain = fm.build_chain(mb)
    m = 200_000
    idx, _ = fm.sample_path_indices(chain, mb.vectors[0], 2, m, seed=MASTER_SEED + 3)
    counts = np.bincount(idx[:, 0] * 3 + idx[:, 1], minlength=9)
    expected = np.array(
        [fm.path_probability(chain, mb.vectors[0], [a, b])
         for a in range(3) for b in range(3)]
    )
    pvalue = float(chisquare(counts, expected * m).pvalue)

    onb = fm.orthonormal_basis_frame(2)
    idx, probs = fm.sample_path_indices(fm.build_chain(onb), [1.0, 0.0], 5, 200, seed=0)
    onb_det = bool((idx == 0).all() and (probs == 1.0).all())
    elapsed = time.perf_counter() - t0
    ok = pvalue >= 0.001 and onb_det and elapsed < 10.0
    _report(3, "path-space measure", ok,
            f"(chi2 p = {pvalue:.3f}, ONB deterministic = {onb_det}, {elapsed:.2f}s)")


def test_criterion_04_determinantal_measure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 4)
    m = 200_000
    worst_minor = 0.0
    worst_sum = worst_empty = 0.0
    worst_tv = 0.0
    worst_card_z = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        g = a @ a.T
        scale = 0.6 + 0.4 * rng.random()
        kernel = fm.kernel_from_matrix(g / np.linalg.eigvalsh(g)[-1] * scale)

        minors = _subset_minors(kernel)
        worst_minor = max(worst_minor, float(-minors.min()))
        table = fm.subset_distribution_bruteforce(kernel)
        worst_sum = max(worst_sum, abs(float(table.sum()) - 1.0))
        worst_empty = max(
            worst_empty, abs(float(table[0]) - fm.empty_probability(kernel))
        )
        masks = fm.sample_masks(kernel, m, seed=MASTER_SEED + 5000 + trial)
        emp = fm.empirical_subset_distribution(masks)
        worst_tv = max(worst_tv, fm.total_variation(emp, table))
        card = masks.sum(axis=1).astype(float)
        sigma = card.std(ddof=1) / math.sqrt(m)
        worst_card_z = max(worst_card_z, abs(card.mean() - np.trace(kernel.matrix)) / sigma)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_minor <= 1e-10 and worst_sum <= 1e-9 and worst_empty <= 1e-9
        and worst_tv <= 0.02 and worst_card_z <= 3.0 and elapsed < 60.0
    )
    _report(4, "determinantal measure", ok,
            f"(minor {worst_minor:.1e}, sum {worst_sum:.1e}, empty {worst_empty:.1e}, "
            f"TV {worst_tv:.4f}, card z {worst_card_z:.2f}, {elapsed:.1f}s)")


def test_criterion_05_ito_isometry_and_char_functional(ens32):
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 5)
    reductions = []
    for _ in range(20):
        x = rng.normal(size=32)
        x /= np.linalg.norm(x)
        reductions += [wn.ito_isometry(x), wn.char_functional(x)]

    x1 = rng.normal(size=32)
    x1 /= np.linalg.norm(x1)
    reductions += [wn.char_functional(x1), wn.char_functional(x1 * math.sqrt(2.0))]
    *checks, (re1, _), (re2, _) = ens32.reduce(reductions)
    worst_z = max(_z_scores(checks))
    targets_ok = (
        re1.target == pytest.approx(math.exp(-0.5), rel=1e-12)
        and re2.target == pytest.approx(math.exp(-1.0), rel=1e-12)
        and abs(re1.z_score) <= 4 and abs(re2.z_score) <= 4
    )
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and targets_ok and elapsed < 60.0
    _report(5, "Ito isometry + characteristic functional", ok,
            f"(max |z| = {worst_z:.2f}, targets e^-1/2={re1.value:.4f}, "
            f"e^-1={re2.value:.4f}, {elapsed:.1f}s)")


def test_criterion_06_moments(ens32):
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 6)
    x = rng.normal(size=32)
    x /= np.linalg.norm(x)
    ests = ens32.reduce(wn.moment(x, order) for order in (2, 4, 6, 3, 5, 7))
    worst_z = max(_z_scores(ests))
    targets = [est.target for est in ests]
    elapsed = time.perf_counter() - t0
    even_ok = targets[:3] == [pytest.approx(1.0), pytest.approx(3.0), pytest.approx(15.0)]
    odd_ok = targets[3:] == [0.0, 0.0, 0.0]
    ok = worst_z <= 4.0 and even_ok and odd_ok and elapsed < 30.0
    _report(6, "Gaussian moments", ok, f"(max |z| = {worst_z:.2f}, {elapsed:.1f}s)")


def _reconstruction_errors(x, head):
    """Reduction to the errors of `reconstruction(x)` over ens and over its
    first `head` samples (the ensemble of `head` samples), in one pass over
    ens.

    Tile statistics are (rows, tile sum, head sum, tile pairings and
    samples); the merge adds the part of the tile in which the first
    `head` samples end to the sum of the tiles before it, as the last,
    partial tile of the restricted ensemble would be. `head` must lie past
    the first tile.
    """
    x = np.asarray(x, dtype=float)

    def block(p, z):
        return len(z), np.einsum("i,ij->j", p[0], z), None, (p[0], z)

    def merge(a, b):
        done, total, head_sum, _ = a
        rows, tile, _, (p, z) = b
        if done < head <= done + rows:
            k = head - done
            head_sum = total + np.einsum("i,ij->j", p[:k], z[:k])
        return done + rows, total + tile, head_sum, None

    def finish(stats, m):
        _, total, head_sum, _ = stats
        return float(np.linalg.norm(total / m - x)), float(np.linalg.norm(head_sum / head - x))

    return wn.Reduction(np.atleast_2d(x), block, finish, merge)


def test_criterion_07_frame_decomposition():
    t0 = time.perf_counter()
    d, m = 16, 1_000_000
    band = 4.0 * math.sqrt((d + 1.0) / m)
    errs_full, errs_half = [], []
    for trial in range(20):
        ens = fm.WhiteNoiseEnsemble(d, m, seed=MASTER_SEED + 70 + trial)
        rng = np.random.default_rng(MASTER_SEED + 700 + trial)
        x = rng.normal(size=d)
        x /= np.linalg.norm(x)
        ((err, err_half),) = ens.reduce([_reconstruction_errors(x, m // 2)])
        errs_full.append(err)
        errs_half.append(err_half)
    ratio = float(np.median(errs_half) / np.median(errs_full))
    elapsed = time.perf_counter() - t0
    ok = max(errs_full) <= band and 1.2 <= ratio <= 1.7 and elapsed < 60.0
    _report(7, "frame decomposition (reconstruction)", ok,
            f"(max err {max(errs_full):.4f} <= {band:.4f}, halving ratio {ratio:.3f}, "
            f"{elapsed:.1f}s)")


def test_criterion_08_gramian_covariance(ens32):
    t0 = time.perf_counter()
    mb = fm.mercedes_benz_frame()
    (cov,) = ens32.reduce([wn.gramian_covariance(mb)])
    dist = float(np.linalg.norm(cov - fm.gram(mb).entries))
    bound = 5.0 * mb.n_frame / math.sqrt(ens32.sample_count)
    elapsed = time.perf_counter() - t0
    ok = dist <= bound and elapsed < 20.0
    _report(8, "Gramian covariance", ok,
            f"(Frobenius {dist:.5f} <= {bound:.5f}, {elapsed:.1f}s)")


def test_criterion_09_translation(ens32):
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 9)
    worst_rel = 0.0
    for _ in range(1000):
        x1, x2, w = rng.normal(size=(3, 8))
        lhs, rhs = fm.cocycle_check(x1, x2, w)
        worst_rel = max(worst_rel, abs(lhs - rhs) / abs(rhs))

    x = rng.normal(size=32)
    x /= np.linalg.norm(x)
    y = rng.normal(size=32)
    y -= float(y @ x) * x
    y /= np.linalg.norm(y)
    ests = ens32.reduce([
        translation.rn_mean(x),
        translation.translated_moment(np.zeros(32), y),
        translation.translated_moment(x, y),
        translation.translated_moment(x, x),
    ])
    _, est_zero, est_perp, est_same = ests
    targets_ok = (
        est_zero.target == pytest.approx(1.0)
        and est_perp.target == pytest.approx(1.0)
        and est_same.target == pytest.approx(2.0)
    )
    worst_z = max(_z_scores(ests))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-12 and targets_ok and worst_z <= 4.0 and elapsed < 30.0
    _report(9, "translation identities", ok,
            f"(cocycle rel {worst_rel:.1e}, max |z| = {worst_z:.2f}, {elapsed:.1f}s)")


def test_criterion_10_karhunen_loeve(ens32):
    t0 = time.perf_counter()
    pf = fm.parseval_rescale(fm.mercedes_benz_frame())
    rng = np.random.default_rng(MASTER_SEED + 10)
    reductions = []
    for _ in range(10):
        x = rng.normal(size=2)
        x /= np.linalg.norm(x)
        reductions.append(translation.kl_variance(pf, x))
    ests = ens32.reduce(reductions)
    for est in ests:
        assert est.target == pytest.approx(1.0, abs=1e-10)
    worst_z = max(_z_scores(ests))
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and elapsed < 20.0
    _report(10, "Karhunen-Loeve expansion", ok,
            f"(max |z| = {worst_z:.2f}, {elapsed:.1f}s)")


def test_criterion_11_decay_demonstrator():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 11)
    worst_tail = 0.0
    worst_sum = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        mu = fm.DiscreteMeasure.normalized(rng.normal(size=(n, dim)), rng.random(n) + 0.1)
        seq = fm.lower_bound_decay(mu, 64)
        worst_tail = max(worst_tail, float(np.abs(seq[dim:]).max()))
        worst_sum = max(worst_sum, abs(float(seq.sum()) - fm.second_moment(mu)))
    elapsed = time.perf_counter() - t0
    ok = worst_tail == 0.0 and worst_sum <= 1e-12 and elapsed < 2.0
    _report(11, "no-frame-measure decay demonstrator", ok,
            f"(tail {worst_tail:.1e}, sum residual {worst_sum:.1e}, {elapsed:.2f}s)")


def test_criterion_12_wasserstein_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 12)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4))
        mu = fm.DiscreteMeasure.uniform(rng.normal(size=(n, dim)))
        nu = fm.DiscreteMeasure.uniform(rng.normal(size=(n, dim)))
        d, _ = fm.wasserstein2(mu, nu)
        diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
        cost = (diff * diff).sum(axis=2)
        best = min(
            sum(cost[i, p[i]] for i in range(n)) / n
            for p in itertools.permutations(range(n))
        )
        worst = max(worst, abs(d * d - best))

    # metric axioms on random triples
    axiom_ok = True
    for _ in range(20):
        a, b, c = (
            fm.DiscreteMeasure.uniform(rng.normal(size=(int(rng.integers(1, 6)), 2)))
            for _ in range(3)
        )
        dab, _ = fm.wasserstein2(a, b)
        dba, _ = fm.wasserstein2(b, a)
        dac, _ = fm.wasserstein2(a, c)
        dcb, _ = fm.wasserstein2(c, b)
        axiom_ok = axiom_ok and abs(dab - dba) <= 1e-9 and dab <= dac + dcb + 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and axiom_ok and elapsed < 30.0
    _report(12, "Wasserstein-2 exactness", ok,
            f"(worst |solver - bruteforce| = {worst:.1e}, axioms {axiom_ok}, {elapsed:.1f}s)")


def test_invariant_all_check_ops_z_band(ens32):
    # module invariant rather than a numbered criterion: every McEstimate
    # from the four check operations on unit-norm inputs at M = 1e6 stays
    # inside |z| <= 4
    rng = np.random.default_rng(MASTER_SEED + 99)
    x = rng.normal(size=32)
    x /= np.linalg.norm(x)
    y = rng.normal(size=32)
    y /= np.linalg.norm(y)
    results = ens32.reduce([
        wn.ito_isometry(x),
        wn.char_functional(x),
        *(wn.moment(x, order) for order in range(1, 7)),
        wn.projection(x, y),
        wn.projection(x, x),
    ])
    assert max(_z_scores(results)) <= 4.0


def test_criterion_13_reproducibility(monkeypatch):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(command="verify-all", seed=7, samples=100_000, dim=32)
    first = run_suite(cfg).payload_json()
    second = run_suite(cfg).payload_json()
    same_config = first == second

    monkeypatch.setenv("FRAMES_THREADS", "1")
    one = run_suite(cfg).payload_json()
    monkeypatch.setenv("FRAMES_THREADS", "8")
    eight = run_suite(cfg).payload_json()
    threads_same = one == eight and one == first
    elapsed = time.perf_counter() - t0
    ok = same_config and threads_same
    _report(13, "verify-all reproducibility", ok,
            f"(same-config identical {same_config}, threads 1 vs 8 identical "
            f"{threads_same}, {elapsed:.1f}s)")
