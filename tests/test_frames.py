import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemeasures import (
    analysis,
    build_frame,
    dual_frame,
    frame_from_dict,
    frame_to_dict,
    gram,
    synthesis,
    verify_riesz_upper,
)
from framemeasures.errors import DimensionMismatch, NonFinite, NotAFrame
from framemeasures.frames import TOL_PSD
from conftest import random_spanning_frame


def eig_oracle(vectors):
    # independent route: assemble S term by term, then eigvalsh
    vectors = np.asarray(vectors, dtype=float)
    s = np.zeros((vectors.shape[1], vectors.shape[1]))
    for v in vectors:
        s += np.outer(v, v)
    return np.linalg.eigvalsh(s)


class TestBuildFrame:
    def test_onb_bounds(self, onb2):
        assert onb2.lower_bound == pytest.approx(1.0, abs=1e-14)
        assert onb2.upper_bound == pytest.approx(1.0, abs=1e-14)

    def test_mercedes_benz_bounds(self, mb):
        # oracle: eigendecomposition of the term-by-term frame operator
        eigs = eig_oracle(mb.vectors)
        assert eigs[0] == pytest.approx(1.5, abs=1e-12)
        assert eigs[-1] == pytest.approx(1.5, abs=1e-12)
        assert mb.lower_bound == pytest.approx(1.5, abs=1e-12)
        assert mb.upper_bound == pytest.approx(1.5, abs=1e-12)

    def test_rank_deficient(self):
        f = build_frame([[1.0, 0.0]])
        assert f.lower_bound == 0.0
        assert f.upper_bound == pytest.approx(1.0)
        assert not f.is_frame()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_frame([[1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            build_frame([[np.nan, 0.0]])
        with pytest.raises(NonFinite):
            build_frame([[np.inf, 1.0]])

    def test_empty(self):
        with pytest.raises(DimensionMismatch):
            build_frame([])


class TestAnalysisSynthesis:
    def test_analysis_onb(self, onb2):
        np.testing.assert_allclose(analysis(onb2, [1.0, 0.0]), [1.0, 0.0])

    def test_analysis_mb(self, mb):
        # oracle: direct inner-product evaluation
        x = np.array([1.0, 0.0])
        expected = [float(x @ v) for v in mb.vectors]
        assert expected == pytest.approx([1.0, -0.5, -0.5], abs=1e-15)
        np.testing.assert_allclose(analysis(mb, x), expected, rtol=1e-15)

    def test_analysis_zero(self, mb):
        np.testing.assert_array_equal(analysis(mb, [0.0, 0.0]), np.zeros(3))

    def test_synthesis_onb(self, onb2):
        np.testing.assert_allclose(synthesis(onb2, [1.0, 0.0]), [1.0, 0.0])

    def test_synthesis_mb_cancellation(self, mb):
        # hand sum: the three vectors cancel symmetrically
        np.testing.assert_allclose(synthesis(mb, [1.0, 1.0, 1.0]), [0.0, 0.0], atol=1e-15)

    def test_synthesis_zero(self, mb):
        np.testing.assert_array_equal(synthesis(mb, np.zeros(3)), np.zeros(2))

    def test_length_checks(self, mb):
        with pytest.raises(DimensionMismatch):
            analysis(mb, [1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            synthesis(mb, [1.0, 0.0])


class TestGram:
    def test_onb_identity(self, onb2):
        np.testing.assert_allclose(gram(onb2).entries, np.eye(2), atol=1e-15)

    def test_mb_entries(self, mb):
        g = gram(mb).entries
        np.testing.assert_allclose(np.diag(g), np.ones(3), atol=1e-15)
        off = g[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5, atol=1e-15)

    def test_single_unit_vector(self):
        f = build_frame([[1.0, 0.0]])
        np.testing.assert_allclose(gram(f).entries, [[1.0]])

    def test_psd_and_minors(self, mb):
        g = gram(mb)
        assert g.spectrum.min() >= -1e-10
        assert min(np.linalg.det(g.entries[:k, :k]) for k in (1, 2, 3)) >= -1e-10

    def test_min_eigenvalue_kept_from_validation(self, mb):
        g = gram(mb)
        assert g.min_eigenvalue == g.spectrum.min()

    def test_rank_deficient_gramian_accepted(self):
        # 40 vectors in R^10: G has rank 10, so its leading minors of order
        # 11 and up are zero and their determinants pure rounding; here the
        # order-11 minor rounds to about -5e-8, which a minor test refused
        f = build_frame(np.random.default_rng(15).normal(size=(40, 10)))
        g = gram(f)
        assert g.min_eigenvalue >= -TOL_PSD
        assert g.entries.shape == (40, 40)

    def test_gram_spectrum_matches_frame_operator(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = build_frame(random_spanning_frame(rng))
            eg = gram(f).spectrum[::-1]
            es = np.sort(np.linalg.eigvalsh(f.frame_operator))[::-1]
            k = min(len(eg), len(es))
            mask = es[:k] > 1e-8
            np.testing.assert_allclose(eg[:k][mask], es[:k][mask], rtol=1e-9)


class TestRieszUpper:
    def test_onb_equality(self, onb2):
        c = np.array([0.3, -1.2])
        r = verify_riesz_upper(onb2, c)
        assert r.lhs == pytest.approx(float(c @ c), rel=1e-12)
        assert r.ok

    def test_mb_cancellation(self, mb):
        # oracle: c^T G c with the Mercedes-Benz Gramian is 0 for c = ones
        r = verify_riesz_upper(mb, [1.0, 1.0, 1.0])
        assert r.lhs == pytest.approx(0.0, abs=1e-14)
        assert r.bound == pytest.approx(4.5, rel=1e-12)
        assert r.ok

    def test_zero_coeffs(self, mb):
        r = verify_riesz_upper(mb, np.zeros(3))
        assert r.lhs == 0.0 and r.bound == 0.0 and r.ok

    def test_random_never_exceeds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = build_frame(random_spanning_frame(rng))
            r = verify_riesz_upper(f, rng.normal(size=f.n_frame))
            assert r.ok


class TestDualFrame:
    def test_onb_self_dual(self, onb2):
        np.testing.assert_allclose(dual_frame(onb2).vectors, onb2.vectors, atol=1e-14)

    def test_mb_scaled(self, mb):
        # S = 1.5 I so S^{-1} phi = (2/3) phi
        np.testing.assert_allclose(dual_frame(mb).vectors, mb.vectors * 2 / 3, rtol=1e-12)

    def test_rank_deficient_raises(self):
        with pytest.raises(NotAFrame):
            dual_frame(build_frame([[1.0, 0.0], [2.0, 0.0]]))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            f = build_frame(random_spanning_frame(rng))
            d = dual_frame(f)
            x = rng.normal(size=f.dim)
            recon = synthesis(f, analysis(d, x))
            assert np.linalg.norm(recon - x) <= 1e-9 * np.linalg.norm(x)


class TestInvariants:
    def test_sandwich(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = build_frame(random_spanning_frame(rng))
            for _ in range(20):
                x = rng.normal(size=f.dim)
                energy = float(analysis(f, x) @ analysis(f, x))
                nsq = float(x @ x)
                assert f.lower_bound * nsq - 1e-10 <= energy <= f.upper_bound * nsq + 1e-10

    def test_analysis_norm_is_quadratic_form(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f = build_frame(random_spanning_frame(rng))
            x = rng.normal(size=f.dim)
            c = analysis(f, x)
            assert float(c @ c) == pytest.approx(float(x @ f.frame_operator @ x), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_adjointness(self, seed):
        rng = np.random.default_rng(seed)
        f = build_frame(rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 6)))))
        x = rng.normal(size=f.dim)
        c = rng.normal(size=f.n_frame)
        lhs = float(synthesis(f, c) @ x)
        rhs = float(c @ analysis(f, x))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestJson:
    def test_roundtrip(self, mb):
        doc = frame_to_dict(mb)
        f2 = frame_from_dict(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(f2.vectors, mb.vectors)
        assert f2.lower_bound == mb.lower_bound

    def test_revalidates(self):
        with pytest.raises(DimensionMismatch):
            frame_from_dict({"dim": 3, "vectors": [[1.0, 0.0]]})
        with pytest.raises(NonFinite):
            frame_from_dict({"dim": 2, "vectors": [[float("inf"), 1.0]]})
        with pytest.raises(DimensionMismatch):
            frame_from_dict({"vectors": [[1.0, 0.0]]})
