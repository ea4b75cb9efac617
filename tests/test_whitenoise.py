import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from framemeasures import (
    McEstimate,
    WhiteNoiseEnsemble,
    build_frame,
    char_functional,
    gram,
    gramian_covariance,
    ito_isometry,
    joint_density,
    mc_estimate,
    moment,
    projection,
    reconstruction,
    save_frame,
)
from framemeasures import streams, translation, whitenoise
from framemeasures.cli import main
from framemeasures.report import _estimate_known_variance
from framemeasures.errors import (
    DimensionExceedsTruncation,
    FrameMeasuresError,
    InvalidEnsembleSize,
    KTooLarge,
    SanityBandViolated,
    SingularGramian,
)
from framemeasures.frames import GramMatrix
from framemeasures.report import CheckRecord, ExperimentConfig
from framemeasures.suites import _probe_vectors, _verify_all_records, run
from conftest import per_sample, stream_rows, unit


def samples(ens):
    """The (M, D) coordinates a pass over `ens` reads, tile by tile."""
    [z] = ens.reduce([per_sample(np.zeros(1), lambda p, z: z)])
    return z


def shifted_source(monkeypatch):
    """Make every white-noise tile read 0.1 above its stream."""
    original = streams.normal_rows

    def shifted(*args, **kwargs):
        z = original(*args, **kwargs)
        z += 0.1
        return z

    monkeypatch.setattr(streams, "normal_rows", shifted)


class TestEnsemble:
    def test_deterministic(self):
        # an ensemble is its (D, M, seed) triple: equal triples, equal samples
        names = [f.name for f in dataclasses.fields(WhiteNoiseEnsemble)]
        assert names == ["truncation_dim", "sample_count", "seed"]
        a = WhiteNoiseEnsemble(4, 1000, seed=1)
        assert a == WhiteNoiseEnsemble(4, 1000, seed=1)
        np.testing.assert_array_equal(samples(a), stream_rows(a))
        np.testing.assert_array_equal(samples(a), samples(a))

    def test_prefix_property(self):
        big = WhiteNoiseEnsemble(4, 70_000, seed=2)  # spans several tiles
        head = samples(WhiteNoiseEnsemble(4, 35_000, seed=2))
        np.testing.assert_array_equal(head, stream_rows(big)[:35_000])
        np.testing.assert_array_equal(head, samples(big)[:35_000])

    def test_worker_count_invariance(self, monkeypatch):
        # M = 70,000 spans several tiles and ends in a partial one
        ens = WhiteNoiseEnsemble(3, 70_000, seed=3)
        stream = stream_rows(ens)
        for threads in ("1", "3"):
            monkeypatch.setenv("FRAMES_THREADS", threads)
            np.testing.assert_array_equal(samples(ens), stream)

    def test_sanity_band(self, ens_small):
        # the stream meets the band that every pass checks
        m = ens_small.sample_count
        z = stream_rows(ens_small)
        assert np.abs(z.mean(axis=0)).max() <= 5 / math.sqrt(m)
        assert np.abs(z.var(axis=0, ddof=1) - 1).max() <= 5 * math.sqrt(2 / m)

    def test_seed_is_checked_on_construction(self):
        for seed in (1.5, -1, 2**64, True):
            with pytest.raises(InvalidEnsembleSize, match="seed"):
                WhiteNoiseEnsemble(2, 10, seed)
        assert WhiteNoiseEnsemble(2, 10, np.uint64(2**64 - 1)).seed == 2**64 - 1

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            WhiteNoiseEnsemble(0, 10, seed=0)
        with pytest.raises(ValueError):
            WhiteNoiseEnsemble(4, 0, seed=0)


class TestPairing:
    # the pass pairs x, zero-padded, with each sample omega: x @ omega[:x.size]
    ENS = WhiteNoiseEnsemble(6, 1000, seed=0)

    def test_zero(self):
        [p] = self.ENS.reduce([per_sample([0.0, 0.0])])
        assert p.shape == (1000, 1) and not p.any()

    def test_coordinate_extraction(self):
        [p] = self.ENS.reduce([per_sample([1.0])])
        np.testing.assert_array_equal(p[:, 0], stream_rows(self.ENS)[:, 0])

    def test_bilinearity(self):
        x, y = np.random.default_rng(0).normal(size=(2, 6))
        pxy, px, py = self.ENS.reduce([per_sample(x + y), per_sample(x), per_sample(y)])
        np.testing.assert_allclose(pxy, px + py, rtol=0, atol=1e-12)
        np.testing.assert_allclose(px[:, 0], stream_rows(self.ENS) @ x, rtol=0, atol=1e-12)

    def test_truncation_guard(self, ens_small):
        with pytest.raises(DimensionExceedsTruncation):
            ens_small.reduce([ito_isometry(np.ones(17))])


class TestItoIsometry:
    def test_zero_vector(self, ens_small):
        [est] = ens_small.reduce([ito_isometry(np.zeros(4))])
        assert est.value == 0.0 and est.target == 0.0 and est.z_score == 0.0

    def test_unit_vector_band(self, ens_small):
        # chi-square(1) variance 2 gives the CLT band 3*sqrt(2/M)
        x = unit([1.0, 2.0, -1.0, 0.5])
        [est] = ens_small.reduce([ito_isometry(x)])
        assert abs(est.value - 1.0) <= 3 * math.sqrt(2 / ens_small.sample_count)
        assert abs(est.z_score) <= 4

    def test_exact_quadratic_scaling(self, ens_small):
        x = np.array([0.5, -1.0, 0.25, 0.0])
        a, b = ens_small.reduce([ito_isometry(x), ito_isometry(2.0 * x)])
        assert b.value == 4.0 * a.value  # doubling is exact in binary


class TestCharFunctional:
    def test_zero_vector_exact(self, ens_small):
        [(re, im)] = ens_small.reduce([char_functional(np.zeros(3))])
        assert re.value == 1.0 and im.value == 0.0

    def test_unit_norm_target(self, ens_small):
        [(re, im)] = ens_small.reduce([char_functional(unit([1.0, 1.0, 1.0]))])
        assert re.target == pytest.approx(math.exp(-0.5))
        assert abs(re.z_score) <= 4 and abs(im.z_score) <= 4

    def test_norm_sq_two_target(self, ens_small):
        x = math.sqrt(2.0) * unit([2.0, -1.0, 0.0, 1.0])
        [(re, _)] = ens_small.reduce([char_functional(x)])
        assert re.target == pytest.approx(math.exp(-1.0))
        assert abs(re.z_score) <= 4


class TestMoments:
    @pytest.mark.parametrize("order,coef", [(2, 1.0), (4, 3.0), (6, 15.0)])
    def test_even_targets(self, ens_small, order, coef):
        x = unit([1.0, -2.0, 0.5, 3.0])
        [est] = ens_small.reduce([moment(x, order)])
        assert est.target == pytest.approx(coef)
        assert abs(est.z_score) <= 4

    def test_even_targets_are_exact_double_factorials(self, ens_small):
        # (order - 1)!! ||e_1||^order with no rounding: 3!! = 3, not 3.0000000000000004
        ests = ens_small.reduce([moment([1.0], order) for order in (4, 6, 8)])
        assert [est.target for est in ests] == [3.0, 15.0, 105.0]

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_odd_targets_zero(self, ens_small, order):
        [est] = ens_small.reduce([moment(unit([0.3, 0.1, -0.7]), order)])
        assert est.target == 0.0
        assert abs(est.z_score) <= 4

    def test_norm_scaling(self, ens_small):
        [est] = ens_small.reduce([moment(2.0 * unit([1.0, 1.0]), 2)])
        assert est.target == pytest.approx(4.0)

    def test_order_cap(self):
        with pytest.raises(KTooLarge):
            moment([1.0], 10)
        with pytest.raises(KTooLarge):
            moment([1.0], 0)


class TestGaussianProcess:
    def test_streamed_arrays_match_coordinates(self, mb, ens_small):
        # the reference: products with the whole (M, D) matrix of the stream
        x = np.array([0.3, -1.2, 0.0, 2.5])
        proc, t, cov = ens_small.reduce([per_sample(mb.vectors), per_sample(x),
                                         gramian_covariance(mb)])
        z = stream_rows(ens_small)
        assert proc.shape == (ens_small.sample_count, 3) and t.shape == (ens_small.sample_count, 1)
        np.testing.assert_allclose(proc, z[:, :2] @ mb.vectors.T, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(t[:, 0], z[:, :4] @ x, rtol=1e-12, atol=1e-14)
        # the covariance is the process's second-moment matrix, without the process
        np.testing.assert_allclose(cov, proc.T @ proc / ens_small.sample_count, rtol=1e-12)

    def test_onb_columns_uncorrelated(self, onb2, ens_small):
        [cov] = ens_small.reduce([gramian_covariance(onb2)])
        m = ens_small.sample_count
        assert abs(cov[0, 1]) <= 3 / math.sqrt(m)

    def test_mb_covariance_entry(self, mb, ens_small):
        # Isserlis: Var(Z_j Z_k) = 1 + rho^2 for unit-variance pair
        [cov] = ens_small.reduce([gramian_covariance(mb)])
        m = ens_small.sample_count
        band = 3 * math.sqrt(1 + 0.25) / math.sqrt(m)
        assert abs(cov[0, 1] - (-0.5)) <= band

    def test_single_vector_variance(self, ens_small):
        f = build_frame([[2.0, 0.0, 1.0]])
        [cov] = ens_small.reduce([gramian_covariance(f)])
        m = ens_small.sample_count
        assert cov.shape == (1, 1)
        # single-sample variance of <phi, w>^2 is 2 ||phi||^4
        assert abs(cov[0, 0] - 5.0) <= 3 * math.sqrt(2.0) * 5.0 / math.sqrt(m)

    def test_covariance_frobenius(self, mb, ens_small):
        [cov] = ens_small.reduce([gramian_covariance(mb)])
        dist = np.linalg.norm(cov - gram(mb).entries)
        assert dist <= 5 * mb.n_frame / math.sqrt(ens_small.sample_count)


class TestJointDensity:
    def test_standard_normal_at_zero(self):
        g = GramMatrix(entries=np.eye(1))
        assert joint_density(g, [0.0]) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_bivariate_at_zero(self):
        g = GramMatrix(entries=np.eye(2))
        assert joint_density(g, [0.0, 0.0]) == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_singular_mb_gramian(self, mb):
        with pytest.raises(SingularGramian):
            joint_density(gram(mb), [0.0, 0.0, 0.0])

    def test_zero_point_closed_form(self):
        rng = np.random.default_rng(33)
        a = rng.normal(size=(3, 3))
        g = GramMatrix(entries=a @ a.T + np.eye(3))
        det = float(np.linalg.det(g.entries))
        expected = det**-0.5 * (2 * math.pi) ** -1.5
        assert joint_density(g, np.zeros(3)) == pytest.approx(expected, rel=1e-12)

    def test_integrates_to_one_2d(self):
        g = GramMatrix(entries=np.array([[1.0, 0.4], [0.4, 0.8]]))
        xs = np.linspace(-8, 8, 401)
        h = xs[1] - xs[0]
        grid = joint_density(g, np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1))
        mass = grid.sum() * h * h
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_stack_of_points(self):
        rng = np.random.default_rng(34)
        a = rng.normal(size=(3, 3))
        g = GramMatrix(entries=a @ a.T + np.eye(3))
        pts = rng.normal(size=(4, 5, 3))
        dens = joint_density(g, pts)
        assert dens.shape == (4, 5)
        each = [[joint_density(g, p) for p in row] for row in pts]
        np.testing.assert_allclose(dens, each, rtol=1e-14, atol=0)
        assert isinstance(joint_density(g, pts[0, 0]), float)


class TestSynthesisReconstruction:
    def test_reconstruct_zero_exact(self, ens_small):
        [(x_hat, err)] = ens_small.reduce([reconstruction(np.zeros(4))])
        assert err == 0.0
        np.testing.assert_array_equal(x_hat, np.zeros(16))

    def test_reconstruct_error_band(self, ens_small):
        # Isserlis oracle: E||<x,w>w - x||^2 = (D+1)||x||^2
        x = np.zeros(16)
        x[:4] = unit([1.0, 2.0, 3.0, 4.0])
        [(_, err)] = ens_small.reduce([reconstruction(x)])
        assert err <= 3 * math.sqrt(17 / ens_small.sample_count)

    def test_reconstruct_linearity(self, ens_small):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 5))
        (hx, _), (hy, _), (hxy, _) = ens_small.reduce(
            [reconstruction(x), reconstruction(y), reconstruction(x + y)]
        )
        np.testing.assert_allclose(hxy, hx + hy, rtol=1e-12, atol=1e-14)

    def test_adjointness_at_sample_level(self, ens_small):
        # <f, T x> / M = <synthesis(f), x> for f = <x0, .>
        rng = np.random.default_rng(3)
        x0, x = rng.normal(size=(2, 16))
        ft, (x_hat, _) = ens_small.reduce([per_sample([x0, x]), reconstruction(x0)])
        lhs = float(ft[:, 0] @ ft[:, 1]) / ens_small.sample_count
        rhs = float(x_hat @ x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestProjection:
    def test_zero_case(self, ens_small):
        [est] = ens_small.reduce([projection(np.zeros(3), np.zeros(3))])
        assert est.value == 0.0 and est.target == 0.0

    def test_range_idempotence(self, ens_small):
        y = unit([1.0, -1.0, 2.0])
        [est] = ens_small.reduce([projection(y, y)])
        assert est.target == pytest.approx(1.0)
        assert abs(est.z_score) <= 4

    def test_orthogonal_probe(self, ens_small):
        [est] = ens_small.reduce([projection([1.0, 0.0], [0.0, 1.0])])
        assert est.target == 0.0
        assert abs(est.z_score) <= 4


class TestMcEstimate:
    def test_fields(self):
        est = mc_estimate(np.array([1.0, 2.0, 3.0]), target=2.0)
        assert est.value == 2.0
        assert est.sample_count == 3
        assert est.std_error == pytest.approx(1.0 / math.sqrt(3))
        assert est.z_score == 0.0

    def test_degenerate_zero_spread(self):
        est = mc_estimate(np.full(10, 5.0), target=5.0)
        assert est.std_error == 0.0 and est.z_score == 0.0
        est = mc_estimate(np.full(10, 5.0), target=4.0)
        assert est.z_score == math.inf

    def test_constant_sample_one_ulp_off_target(self):
        est = mc_estimate(np.ones(10), 1.0000000000000002)
        assert est.std_error == 0.0 and est.z_score == 0.0
        # ZERO_VARIANCE_ULPS = 4 ulps of the target apart still passes; 5 do not
        assert mc_estimate(np.ones(10), 1.0 + 4 * 2.0**-52).z_score == 0.0
        assert mc_estimate(np.ones(10), 1.0 + 5 * 2.0**-52).z_score == math.inf
        # an infinite mean meets no target, itself included
        with np.errstate(invalid="ignore"):
            assert mc_estimate(np.full(3, math.inf), 1.0).z_score == math.inf
            assert mc_estimate(np.full(3, math.inf), math.inf).z_score == math.inf

    def test_constant_sample_whose_mean_rounds_high(self):
        # the mean of 1000 copies of 0.1 rounds 1 ulp high, and its M2 is
        # rounding too: a standard error of 4.4e-19, under 4 ulps of 0.1
        est = mc_estimate(np.full(1000, 0.1), 0.1)
        assert est.value == np.nextafter(0.1, 1.0)
        assert 0.0 < est.std_error <= 4 * math.ulp(est.value)
        assert est.z_score == 0.0

    def test_known_variance(self):
        # the standard error comes from the variance given, even for a
        # sample that happened to be constant; a variance of 0 falls back
        # on the zero-variance rule
        est = _estimate_known_variance(100, 2.0, 0.04, 1.99)
        assert est.value == 2.0 and est.sample_count == 100 and est.target == 1.99
        assert est.std_error == 0.02
        assert est.z_score == pytest.approx(0.5, rel=1e-12)
        assert _estimate_known_variance(10, 2.0, 0.0, 2.0).z_score == 0.0
        assert _estimate_known_variance(10, 2.0, 0.0, 1.99994).z_score == math.inf


# M = 4 blocks + 17 samples: the last block, and its last tile, are partial
FUSED_M = 4 * streams.BLOCK_ROWS + 17
FUSED_D = 32
FUSED_SEED = 77


def _all_reductions(mb):
    rng = np.random.default_rng(5)
    x, y = (v / np.linalg.norm(v) for v in rng.normal(size=(2, FUSED_D)))
    x_short = unit([0.5, -1.0, 2.0])
    pf = translation.parseval_rescale(mb)
    return [
        whitenoise.ito_isometry(x),
        whitenoise.char_functional(x_short),
        *(whitenoise.moment(x, order) for order in range(1, 7)),
        whitenoise.gramian_covariance(mb),
        whitenoise.reconstruction(x),
        whitenoise.projection(x, y),
        translation.rn_mean(x_short),
        translation.translated_moment(x, y),
        translation.translation_consistency(x, y, power=1),
        translation.translation_consistency(x, y, power=2),
        translation.kl_variance(pf, [0.3, -0.9]),
    ]


def _bits(results) -> bytes:
    """Every float of a pass's results, as bytes, for bitwise comparison."""
    out = []

    def walk(r):
        if isinstance(r, McEstimate):
            out.extend([r.value, r.std_error, r.z_score])
        elif isinstance(r, tuple):
            for item in r:
                walk(item)
        else:
            out.extend(np.ravel(r).tolist())

    for r in results:
        walk(r)
    return np.array(out).tobytes()


class TestFusedPass:
    def test_thread_count_invariance(self, mb, monkeypatch):
        ens = WhiteNoiseEnsemble(FUSED_D, FUSED_M, FUSED_SEED)
        monkeypatch.setenv("FRAMES_THREADS", "1")
        one = _bits(ens.reduce(_all_reductions(mb)))
        monkeypatch.setenv("FRAMES_THREADS", "3")
        three = _bits(ens.reduce(_all_reductions(mb)))
        assert one == three

    def test_suite_peak_memory_is_tile_sized(self, monkeypatch):
        # peak memory is O(workers * TILE_ROWS * D): pin the workers
        monkeypatch.setenv("FRAMES_THREADS", "3")
        cfg = ExperimentConfig(command="gaussian", seed=3, samples=FUSED_M, dim=FUSED_D)
        tracemalloc.start()
        try:
            run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < FUSED_M * FUSED_D * 8 / 2

    def test_pass_allocates_little_beyond_its_lent_buffers(self, monkeypatch):
        # a 4-tile pass of verify-all's 22 reductions on one worker: the
        # (TILE_ROWS, D) coordinates and (k, TILE_ROWS) pairings it lends
        # itself (3.88 MiB), and less than 1 MiB more, so no tile-sized
        # temporary; 5.77 MiB when each tile allocated its own
        monkeypatch.setenv("FRAMES_THREADS", "1")
        m, d = 4 * whitenoise.TILE_ROWS, 32
        cfg = ExperimentConfig(command="verify-all", seed=5, samples=m, dim=d)
        reductions = [r for item in _verify_all_records(cfg) if not isinstance(item, CheckRecord)
                      for r in item[1:]]
        assert len(reductions) == 22
        k = sum(len(r.probes) for r in reductions)
        ens = WhiteNoiseEnsemble(d, m, seed=5)
        tracemalloc.start()
        try:
            ens.reduce(reductions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whitenoise.TILE_ROWS * (d + k) * 8 + 2**20

    def test_pairing_products_stay_within_the_serial_bound(self, monkeypatch):
        # verify-all's 30 probes at 64 coordinates, over a full tile and a
        # part tile: each product (a batched one per sample chunk) keeps to
        # the multiply-adds BLAS runs on the calling thread
        monkeypatch.setenv("FRAMES_THREADS", "1")
        m, d = whitenoise.TILE_ROWS + 300, 64
        cfg = ExperimentConfig(command="verify-all", seed=5, samples=m, dim=d)
        reductions = [r for item in _verify_all_records(cfg) if not isinstance(item, CheckRecord)
                      for r in item[1:]]
        assert sum(len(r.probes) for r in reductions) == 30
        madds = []
        matmul = np.matmul

        def counted(a, b, **kwargs):
            madds.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        WhiteNoiseEnsemble(d, m, seed=5).reduce(reductions)
        assert madds and max(madds) <= streams.BLAS_SERIAL_MADDS


class TestSuiteRecordsMatchPublicFunctions:
    """Each gaussian/translate/kl record, taken from the suite's pass,
    agrees with the public builder it reports run through `reduce`, and
    the adjointness record with the per-sample pairings. BLAS
    may round a product differently when the probes are stacked
    differently, so agreement is to 1e-12, not bitwise."""

    SEED = 11

    def _records(self, command, inputs=()):
        cfg = ExperimentConfig(command=command, seed=self.SEED, samples=FUSED_M,
                               dim=FUSED_D, inputs=tuple(inputs))
        return {r.name: r for r in run(cfg).records}

    @staticmethod
    def _agree(record, est):
        assert record.value == pytest.approx(est.value, rel=1e-12, abs=1e-300)
        assert record.std_error == pytest.approx(est.std_error, rel=1e-12)

    def test_gaussian(self, mb):
        recs = self._records("gaussian")
        ens = WhiteNoiseEnsemble(FUSED_D, FUSED_M, self.SEED)
        p = _probe_vectors(self.SEED, 3, FUSED_D)
        y_perp = p[1] - float(p[1] @ p[2]) * p[2]
        charfn = (("unit", p[0]), ("sqrt2", p[1] * math.sqrt(2.0)))
        orders = (2, 4, 6, 3, 5)
        ests = iter(ens.reduce([
            *(ito_isometry(v) for v in p),
            *(char_functional(x) for _, x in charfn),
            *(moment(p[0], order) for order in orders),
            reconstruction(p[0]),
            projection(p[2], p[2]),
            projection(p[2], y_perp),
            gramian_covariance(mb),
            per_sample(p[:2]),
        ]))
        for i in range(3):
            self._agree(recs[f"isometry_x{i}"], next(ests))
        for label, _ in charfn:
            re, im = next(ests)
            self._agree(recs[f"charfn_{label}_real"], re)
            self._agree(recs[f"charfn_{label}_imag"], im)
        for order in orders:
            self._agree(recs[f"moment_{order}"], next(ests))
        x_hat, err = next(ests)
        assert recs["reconstruct_error"].value == pytest.approx(err, rel=1e-12)
        self._agree(recs["projection_self"], next(ests))
        self._agree(recs["projection_orthogonal"], next(ests))
        dist = float(np.linalg.norm(next(ests) - gram(mb).entries))
        assert recs["covariance_frobenius"].value == pytest.approx(dist, rel=1e-12)
        # a rounding-level residual: compare absolutely
        t = next(ests)
        lhs = float(t[:, 0] @ t[:, 1]) / FUSED_M
        rhs = float(x_hat @ p[1])
        adj = abs(lhs - rhs) / (np.linalg.norm(x_hat) * np.linalg.norm(p[1]))
        assert abs(recs["synthesis_adjoint_rel_residual"].value - adj) <= 1e-12

    def test_adjoint_residual_of_nearly_orthogonal_probes(self):
        # x0 . x1 = -0.0065 here: relative to |<x_hat, x1>| this exact record
        # read 2.65e-12 against exact_rel 1e-12
        cfg = ExperimentConfig(command="gaussian", seed=90, samples=20_000, dim=16,
                               options={"checks": ["reconstruct"]})
        recs = {r.name: r for r in run(cfg).records}
        assert recs["synthesis_adjoint_rel_residual"].passed

    def test_translate(self):
        recs = self._records("translate")
        ens = WhiteNoiseEnsemble(FUSED_D, FUSED_M, self.SEED)
        x, y = _probe_vectors(self.SEED, 2, FUSED_D)
        names = ("rn_density_mean", "translated_second_moment",
                 "shift_consistency_linear", "shift_consistency_quadratic")
        ests = ens.reduce([
            translation.rn_mean(x),
            translation.translated_moment(x, y),
            translation.translation_consistency(x, y, power=1),
            translation.translation_consistency(x, y, power=2),
        ])
        for name, est in zip(names, ests, strict=True):
            self._agree(recs[name], est)

    def test_kl(self, mb, tmp_path):
        pf = translation.parseval_rescale(mb)
        path = tmp_path / "pf.json"
        save_frame(pf, path)
        recs = self._records("kl", [str(path)])
        ens = WhiteNoiseEnsemble(FUSED_D, FUSED_M, self.SEED)
        probes = _probe_vectors(self.SEED, 3, pf.dim)
        ests = ens.reduce(translation.kl_variance(pf, x) for x in probes)
        for i, est in enumerate(ests):
            self._agree(recs[f"kl_variance_x{i}"], est)


class TestLibraryErrors:
    def test_size_errors_are_library_errors(self):
        with pytest.raises(InvalidEnsembleSize):
            WhiteNoiseEnsemble(3, 0, seed=0)
        assert issubclass(InvalidEnsembleSize, FrameMeasuresError)

    def test_variance_band_holds_at_two_samples(self):
        # the band is the chi-square law's: at M = 2 its 5-sigma tails give
        # [1.3e-13, 26.3], and none of these seeds leaves it (the normal
        # approximation's [-4, 6] failed 67 of them)
        for seed in range(300):
            WhiteNoiseEnsemble(12, 2, seed).reduce([ito_isometry([1.0])])

    def test_scaled_source_trips_the_variance_band(self, monkeypatch):
        original = streams.normal_rows

        def scaled(*args, **kwargs):
            z = original(*args, **kwargs)
            z *= 1.1
            return z

        WhiteNoiseEnsemble(4, 20_000, seed=1).reduce([ito_isometry([1.0])])
        monkeypatch.setattr(streams, "normal_rows", scaled)
        with pytest.raises(SanityBandViolated, match="coordinate variance 1.2"):
            WhiteNoiseEnsemble(4, 20_000, seed=1).reduce([ito_isometry([1.0])])

    def test_shifted_source_trips_the_band(self, monkeypatch, capsys):
        shifted_source(monkeypatch)
        with pytest.raises(SanityBandViolated) as info:
            WhiteNoiseEnsemble(4, 20_000, seed=1).reduce([ito_isometry([1.0])])
        assert isinstance(info.value, RuntimeError)
        assert main(["gaussian", "--samples", "20000", "--dim", "4"]) == 3
        assert "SanityBandViolated" in capsys.readouterr().err

    def test_band_is_finished_before_any_result(self, monkeypatch):
        # a later reduction whose finish raises does not hide a bad source
        def refuse(total, m):
            raise DimensionExceedsTruncation("finished before the band")

        late = whitenoise.Reduction(np.ones((1, 2)), block=lambda p, z: p.sum(), finish=refuse)
        ens = WhiteNoiseEnsemble(4, 20_000, seed=1)
        with pytest.raises(DimensionExceedsTruncation, match="before the band"):
            ens.reduce([ito_isometry([1.0]), late])
        shifted_source(monkeypatch)
        with pytest.raises(SanityBandViolated):
            ens.reduce([ito_isometry([1.0]), late])


def _shapes(result) -> list:
    """The shape of every array and number in a reduction's result."""
    if isinstance(result, McEstimate):
        return [np.shape(v) for v in dataclasses.astuple(result)]
    if isinstance(result, tuple):
        return [shape for item in result for shape in _shapes(item)]
    return [np.shape(result)]


class TestResultSizes:
    def test_no_reduction_finishes_to_a_per_sample_array(self, mb):
        # white noise is observed only through its pairings: each public
        # reduction of whitenoise and translation gives results of the same
        # shapes at M = 1,000 and M = 3,000. The table names every one, so
        # a new reduction has to be added here.
        x, y = unit([1.0, -2.0, 0.5]), unit([0.3, 0.4, -1.0])
        pf = translation.parseval_rescale(mb)
        table = {
            "whitenoise.ito_isometry": (x,),
            "whitenoise.char_functional": (x,),
            "whitenoise.moment": (x, 3),
            "whitenoise.gramian_covariance": (mb,),
            "whitenoise.reconstruction": (x,),
            "whitenoise.projection": (x, y),
            "translation.rn_mean": (x,),
            "translation.translated_moment": (x, y),
            "translation.translation_consistency": (x, y, 2),
            "translation.kl_variance": (pf, [0.6, -0.8]),
        }
        builders = {
            f"{module.__name__.rsplit('.', 1)[1]}.{name}": fn
            for module in (whitenoise, translation)
            for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__
            and inspect.signature(fn).return_annotation is whitenoise.Reduction
        }
        assert sorted(builders) == sorted(table)
        for name, args in table.items():
            small, large = (WhiteNoiseEnsemble(8, m, seed=6).reduce([builders[name](*args)])[0]
                            for m in (1_000, 3_000))
            assert _shapes(small) == _shapes(large), name
