"""Translated Gaussian measures, exponential densities, Karhunen-Loeve.

Shifting the white-noise measure by a Hilbert-space vector x keeps it
equivalent, with Radon-Nikodym density

    E(x)(omega) = exp(<x, omega> - ||x||^2 / 2),

the exponential functional. Pointwise algebra gives the cocycle

    E(x1) E(x2) = exp(<x1, x2>) E(x1 + x2),

and integrating against the density turns in closed-form moments, e.g.
integral E(x) <y, omega>^2 dmu = <x, y>^2 + ||y||^2. For a Parseval frame
the analysis function expands as (T x)(omega) = sum_n <x, phi_n> Z_n with
i.i.d. N(0,1) coordinates Z_n, the Gaussian Karhunen-Loeve expansion; at
truncation the white-noise coordinates themselves furnish the Z_n.
"""
import numpy as np

from .errors import DimensionMismatch, KTooLarge, NotParseval, NotTight, Overflow
from .frames import PARSEVAL_TOL, Frame, analysis, as_count, as_rows, as_vector, build_frame
from .whitenoise import (
    MAX_MOMENT_ORDER,
    Reduction,
    _check_truncation,
    _inner,
    _mean_reduction,
    _power,
    _stacked,
    ito_isometry,
)

EXP_LIMIT = 700.0  # exp overflows past ~709.8


def _scalar(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _density(x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    _check_truncation(x.shape[-1], omega.shape[-1])
    # <x, omega> with x zero-padded to omega's length, as the white-noise pass pairs them
    return _exp_values(np.vecdot(x, omega[..., : x.shape[-1]]), np.vecdot(x, x))


def _broadcast_rows(*stacks) -> list:
    """The stacks as rows, refused unless their leading shapes broadcast."""
    stacks = [as_rows(s) for s in stacks]
    leading = [s.shape[:-1] for s in stacks]
    try:
        np.broadcast_shapes(*leading)
    except ValueError:
        raise DimensionMismatch(f"stacks of leading shapes {leading} do not broadcast") from None
    return stacks


def rn_density(x, omega):
    """Radon-Nikodym density of the x-translated measure at omega.

    x and omega are vectors, or stacks of vectors (..., d) that broadcast
    against each other row by row; two vectors give a float, stacks an
    array of densities.
    """
    return _scalar(_density(*_broadcast_rows(x, omega)))


def _exp_values(t: np.ndarray, norm_sq) -> np.ndarray:
    """E(x) at samples with pairings t = <x, omega>, ||x||^2 = norm_sq;
    norm_sq is a float, or an array that broadcasts against t."""
    exponents = t - 0.5 * norm_sq
    peak = float(np.abs(exponents).max()) if exponents.size else 0.0
    if peak > EXP_LIMIT:
        raise Overflow(f"density exponent {peak:.3g} outside double range")
    return np.exp(exponents)


def cocycle_check(x1, x2, omega):
    """Both sides of the exponential cocycle at omega:

        lhs = E(x1)(omega) E(x2)(omega)
        rhs = exp(<x1, x2>) E(x1 + x2)(omega)

    The identity is exact pointwise algebra; no sampling enters. (Note
    the sign: expanding the definitions forces exp(+<x1, x2>).) Each
    argument is a vector or a stack of vectors (..., d), taken row by
    row as in `rn_density`; vectors give two floats, stacks two arrays.
    """
    x1, x2, omega = _broadcast_rows(x1, x2, omega)
    lhs = _density(x1, omega) * _density(x2, omega)
    d = max(x1.shape[-1], x2.shape[-1])
    x1, x2 = _widen(x1, d), _widen(x2, d)
    rhs = np.exp(np.vecdot(x1, x2)) * _density(x1 + x2, omega)
    return _scalar(lhs), _scalar(rhs)


def _widen(x: np.ndarray, d: int) -> np.ndarray:
    """x zero-padded to d coordinates."""
    return np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, d - x.shape[-1])])


def rn_mean(x) -> Reduction:
    """Ensemble mean of E(x) against 1 (the density integrates to 1).

    Single-sample variance is exp(||x||^2) - 1: bands degrade quickly,
    keep ||x||^2 modest.
    """
    x = as_vector(x)
    norm_sq = _inner(x, x)
    return _mean_reduction(x, lambda p: _exp_values(p, norm_sq), [1.0])


def translated_moment(x, y) -> Reduction:
    """Mean of E(x) <y, omega>^2 against <x, y>^2 + ||y||^2."""
    x = as_vector(x)
    y = as_vector(y)
    target = _inner(x, y, 2) + _inner(y, y)
    norm_sq = _inner(x, x)
    return _mean_reduction(
        _stacked(x, y), lambda p: _exp_values(p[:1], norm_sq) * p[1:] * p[1:], [target]
    )


def translation_consistency(x, y, power: int = 1) -> Reduction:
    """Change of variables: mean of E(x) g - mean of g(. + x) against 0,
    for g(omega) = <y, omega>^power, 1 <= power <= 9. Per-sample
    differences share omega_m, so the standard error reflects the coupled
    estimator."""
    power = as_count(power, "power", most=MAX_MOMENT_ORDER, error=KTooLarge)
    x = as_vector(x)
    y = as_vector(y)
    shift = _inner(y, x)
    norm_sq = _inner(x, x)

    def values(p):
        e, t = _exp_values(p[:1], norm_sq), p[1:]
        return e * _power(t, power) - _power(t + shift, power)

    return _mean_reduction(_stacked(x, y), values, [0.0])


def parseval_rescale(frame: Frame) -> Frame:
    """Divide a tight frame by sqrt(beta), making it Parseval."""
    if not frame.is_tight():
        raise NotTight(
            f"bounds [{frame.lower_bound:g}, {frame.upper_bound:g}] are not equal; "
            "rescaling by sqrt(beta) would not give a Parseval frame"
        )
    return build_frame(frame.vectors / np.sqrt(frame.upper_bound))


def _require_parseval(frame: Frame) -> None:
    if not frame.is_parseval():
        raise NotParseval(
            f"frame bounds [{frame.lower_bound!r}, {frame.upper_bound!r}] "
            f"are not 1 within {PARSEVAL_TOL:g}"
        )


def kl_variance(frame: Frame, x) -> Reduction:
    """Empirical E[(T x)^2] against sum_n <x, phi_n>^2.

    The Karhunen-Loeve values are the pairings with the coefficient
    vector (<x, phi_n>)_n, so this is its `ito_isometry`. For a Parseval
    frame the target equals ||x||^2; stating it as the coefficient energy
    keeps the check valid for near-Parseval frames.
    """
    _require_parseval(frame)
    return ito_isometry(analysis(frame, x))
