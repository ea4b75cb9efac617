import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemeasures import (
    WhiteNoiseEnsemble,
    analysis,
    build_frame,
    char_functional,
    cocycle_check,
    ito_isometry,
    kl_variance,
    mercedes_benz_frame,
    moment,
    orthonormal_basis_frame,
    parseval_rescale,
    projection,
    rn_density,
    rn_mean,
    translated_moment,
    translation_consistency,
)
from framemeasures.errors import (
    DimensionExceedsTruncation,
    DimensionMismatch,
    KTooLarge,
    NotParseval,
    NotTight,
    Overflow,
)
from conftest import per_sample, stream_rows, unit


class TestRnDensity:
    def test_zero_vector(self):
        rng = np.random.default_rng(0)
        for w in rng.normal(size=(5, 4)):
            assert rn_density(np.zeros(4), w) == 1.0

    def test_unit_exponent_point(self):
        # <x, w> = ||x||^2 / 2 makes the exponent vanish
        x = np.array([2.0, 0.0])
        w = np.array([1.0, 7.0])  # <x,w> = 2 = ||x||^2/2
        assert rn_density(x, w) == pytest.approx(1.0, rel=1e-15)

    def test_mean_is_one(self, ens_small):
        # MGF oracle: E exp(<x, w>) = exp(||x||^2 / 2)
        [est] = ens_small.reduce([rn_mean(unit([1.0, 0.5, -0.5, 2.0]))])
        assert est.target == 1.0
        assert abs(est.z_score) <= 4

    def test_overflow_guard(self):
        with pytest.raises(Overflow):
            rn_density(np.full(4, 30.0), np.zeros(4))

    def test_stacks_that_do_not_broadcast(self):
        with pytest.raises(DimensionMismatch, match=r"\[\(2,\), \(3,\)\] do not broadcast"):
            rn_density(np.zeros((2, 3)), np.zeros((3, 3)))


class TestExpFunctional:
    def test_positive_and_recomputable(self, ens_small):
        # E(x) at every sample of the stream, recomputed from the pairings a
        # pass reads; their mean is the pass's `rn_mean`
        x = np.array([0.4, -1.0, 0.2])
        t, est = ens_small.reduce([per_sample(x), rn_mean(x)])
        values = rn_density(x, stream_rows(ens_small))
        assert values.shape == (ens_small.sample_count,) and np.all(values > 0.0)
        nsq = float(x @ x)
        recomputed = np.exp(t[:, 0] - 0.5 * nsq)
        np.testing.assert_allclose(values, recomputed, rtol=1e-12)
        assert est.value == pytest.approx(values.mean(), rel=1e-12)


class TestCocycle:
    def test_zero_first_argument(self):
        w = np.array([0.3, -0.7, 1.1])
        x2 = np.array([1.0, 2.0, -0.5])
        lhs, rhs = cocycle_check(np.zeros(3), x2, w)
        assert lhs == pytest.approx(rn_density(x2, w), rel=1e-15)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_orthogonal_no_correction(self):
        x1 = np.array([1.0, 0.0])
        x2 = np.array([0.0, 2.0])
        w = np.array([0.5, -0.5])
        lhs, rhs = cocycle_check(x1, x2, w)
        assert rhs == pytest.approx(rn_density(x1 + x2, w), rel=1e-14)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_equal_arguments_closed_form(self):
        # hand expansion: both sides are exp(2<x,w> - ||x||^2)
        x = np.array([0.7, -0.3, 0.5])
        w = np.array([1.0, 0.2, -1.4])
        lhs, rhs = cocycle_check(x, x, w)
        closed = math.exp(2 * float(x @ w) - float(x @ x))
        assert lhs == pytest.approx(closed, rel=1e-12)
        assert rhs == pytest.approx(closed, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pointwise_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2, w = rng.normal(size=(3, 5))
        lhs, rhs = cocycle_check(x1, x2, w)
        assert lhs == pytest.approx(rhs, rel=1e-12)


    def test_stacked_rows_match_single_rows(self):
        # one implementation: a stack gives, row by row, the bits of single calls
        rng = np.random.default_rng(12)
        x1, x2, w = rng.normal(size=(3, 50, 6))
        lhs, rhs = cocycle_check(x1, x2, w)
        rows = np.array([cocycle_check(a, b, c) for a, b, c in zip(x1, x2, w)])
        np.testing.assert_array_equal(lhs, rows[:, 0])
        np.testing.assert_array_equal(rhs, rows[:, 1])
        np.testing.assert_array_equal(rn_density(x1, w), [rn_density(a, c) for a, c in zip(x1, w)])
        # a shorter x pads with zeros and broadcasts against a stack of omegas
        lhs, rhs = cocycle_check(x1[0, :4], x2[0], w)
        np.testing.assert_array_equal(rhs, [cocycle_check(x1[0, :4], x2[0], c)[1] for c in w])

    def test_overflow_in_any_row(self):
        w = np.zeros((3, 4))
        x = np.zeros((3, 4))
        x[2] = 30.0
        with pytest.raises(Overflow):
            rn_density(x, w)
        with pytest.raises(Overflow):
            cocycle_check(x, np.zeros(4), w)

    def test_stacks_that_do_not_broadcast(self):
        # each argument broadcasts against omega, but x1 and x2 do not together
        with pytest.raises(DimensionMismatch, match=r"\[\(2,\), \(3,\), \(\)\] do not"):
            cocycle_check(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros(3))


class TestTranslatedSecondMoment:
    def test_x_zero_reduces_to_isometry(self, ens_small):
        y = unit([1.0, 2.0, 2.0])
        [est] = ens_small.reduce([translated_moment(np.zeros(3), y)])
        assert est.target == pytest.approx(1.0)
        assert abs(est.z_score) <= 4

    def test_orthogonal(self, ens_small):
        [est] = ens_small.reduce([translated_moment([1.0, 0.0], [0.0, 2.0])])
        assert est.target == pytest.approx(4.0)
        assert abs(est.z_score) <= 4

    def test_equal_unit_vectors(self, ens_small):
        x = unit([3.0, 4.0])
        [est] = ens_small.reduce([translated_moment(x, x)])
        assert est.target == pytest.approx(2.0)
        assert abs(est.z_score) <= 4


class TestChangeOfVariables:
    @pytest.mark.parametrize("power", [1, 2])
    def test_shift_consistency(self, ens_small, power):
        x = unit([0.5, -0.5, 1.0, 0.0])
        y = np.array([1.0, 1.0, 0.0, -1.0])
        [est] = ens_small.reduce([translation_consistency(x, y, power=power)])
        assert est.target == 0.0
        assert abs(est.z_score) <= 4

    @pytest.mark.parametrize("power", [0, 10])
    def test_power_range(self, power):
        with pytest.raises(KTooLarge):
            translation_consistency([1.0], [1.0], power=power)


class TestParsevalRescale:
    def test_mb_becomes_parseval(self, mb):
        pf = parseval_rescale(mb)
        assert pf.lower_bound == pytest.approx(1.0, abs=1e-12)
        assert pf.upper_bound == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pf.vectors, mb.vectors * math.sqrt(2 / 3), rtol=1e-12)

    def test_non_tight_rejected(self):
        f = build_frame([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(NotTight):
            parseval_rescale(f)


class TestKarhunenLoeve:
    def test_onb_coordinates(self, ens_small):
        # the KL values, the pairings with the coefficient vector, are the
        # coordinates themselves, and kl_variance is their mean square
        onb = orthonormal_basis_frame(2)
        coeffs = analysis(onb, [1.0, 0.0])
        vals, est = ens_small.reduce([per_sample(coeffs), kl_variance(onb, [1.0, 0.0])])
        np.testing.assert_array_equal(vals[:, 0], stream_rows(ens_small)[:, 0])
        assert est.value == pytest.approx(float(np.mean(vals**2)), rel=1e-12)
        assert est.target == pytest.approx(1.0)
        assert abs(est.z_score) <= 4

    def test_zero_vector(self, ens_small):
        onb = orthonormal_basis_frame(3)
        [est] = ens_small.reduce([kl_variance(onb, np.zeros(3))])
        assert est.value == 0.0 and est.target == 0.0 and est.z_score == 0.0

    def test_parseval_mb_unit_energy(self, mb, ens_small):
        pf = parseval_rescale(mb)
        [est] = ens_small.reduce([kl_variance(pf, unit([0.3, -0.9]))])
        assert est.target == pytest.approx(1.0, abs=1e-10)
        assert abs(est.z_score) <= 4

    def test_target_is_coefficient_energy(self, mb, ens_small):
        from framemeasures import analysis

        pf = parseval_rescale(mb)
        x = np.array([0.4, 1.1])
        [est] = ens_small.reduce([kl_variance(pf, x)])
        coeffs = analysis(pf, x)
        assert est.target == float(coeffs @ coeffs)

    def test_non_parseval_rejected(self, mb):
        with pytest.raises(NotParseval):
            kl_variance(mb, [1.0, 0.0])

    def test_frame_count_exceeds_truncation(self, mb):
        tiny = WhiteNoiseEnsemble(2, 100, seed=0)
        with pytest.raises(DimensionExceedsTruncation):
            tiny.reduce([kl_variance(parseval_rescale(mb), [1.0, 0.0])])

    def test_kl_is_pairing_for_onb_of_full_space(self):
        # for an orthonormal basis the coefficients are x, so the KL energy
        # is the Ito isometry of x
        ens = WhiteNoiseEnsemble(4, 5000, seed=4)
        onb = orthonormal_basis_frame(4)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        kl, iso = ens.reduce([kl_variance(onb, x), ito_isometry(x)])
        assert kl.value == pytest.approx(iso.value, rel=1e-12)
        assert kl.std_error == pytest.approx(iso.std_error, rel=1e-12)
        assert kl.target == pytest.approx(iso.target, rel=1e-12)


# each builds a target from norms or inner products beyond the double range
OVERFLOWING_TARGETS = {
    "char_functional": lambda: char_functional([1e200]),
    "moment": lambda: moment([1e150], 4),
    "translated_moment": lambda: translated_moment([1.0], [1e200]),
    "translated_moment sum": lambda: translated_moment([1.0], [1e154]),
    "rn_mean": lambda: rn_mean([1e200]),
    "projection": lambda: projection([1e200], [1e200]),
    "translation_consistency": lambda: translation_consistency([1e200], [1.0], power=2),
}


@pytest.mark.parametrize("name", OVERFLOWING_TARGETS)
def test_targets_beyond_the_double_range_overflow(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="outside double range"):
            OVERFLOWING_TARGETS[name]()


def test_mercedes_benz_helper_consistency():
    mb = mercedes_benz_frame()
    assert mb.n_frame == 3 and mb.dim == 2
    assert mb.is_tight()
