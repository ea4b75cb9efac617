"""Finite frames in R^N: frame operator, Gramian, bounds, duals.

A frame is an ordered finite family {phi_1, ..., phi_n} in R^N with
constants 0 < alpha <= beta < infinity such that

    alpha ||x||^2  <=  sum_n <x, phi_n>^2  <=  beta ||x||^2

for every x. The optimal constants are the extreme eigenvalues of the
frame operator S = sum_n phi_n phi_n^T, which is how this module computes
them. Rank-deficient families are representable (alpha = 0) but flagged:
operations needing the lower bound raise NotAFrame.

All values are immutable after construction and safe to share. Everything
is dense; sizes are desk scale.
"""
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidEnsembleSize,
    InvalidGramian,
    NonFinite,
    NotAFrame,
)

TOL_PSD = 1e-10    # Gramian eigenvalues must clear -TOL_PSD * the largest one
TOL_INEQ = 1e-10   # relative slack for inequality checks
RANK_RTOL = 1e-12  # alpha <= RANK_RTOL * beta counts as spanning failure
TIGHT_RTOL = 1e-10  # beta - alpha <= TIGHT_RTOL * beta counts as tight
PARSEVAL_TOL = 1e-10  # |alpha - 1| and |beta - 1| within it count as Parseval
SYMMETRY_TOL = 1e-12  # asymmetry allowed, times max(1, the largest |entry|)


def _floats(x, noun: str, error: type) -> np.ndarray:
    """x as a float64 array; what numpy cannot convert (a string, a ragged
    nesting, a mapping) raises `error`, naming x by `noun`."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{noun} must be a rectangular array of numbers ({exc})") from None


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float64 vector (`as_rows` of one
    row)."""
    arr = _floats(x, "a vector", DimensionMismatch)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a nonempty 1-D vector, got shape {arr.shape}")
    return as_rows(arr, dim)


def as_rows(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 vector, or a stack of vectors
    (..., d), d >= 1."""
    arr = _floats(x, "vectors", DimensionMismatch)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise DimensionMismatch(f"expected vectors of dimension >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("vector has NaN or infinite coordinates")
    if dim is not None and arr.shape[-1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.shape[-1]}")
    return arr


def as_count(value, name: str, least: int = 1, most: int | None = None,
             error: type = InvalidEnsembleSize) -> int:
    """Validate and return an integer in least..most (a count, an order or
    a seed) as a Python int.

    A Python or numpy integer passes. A bool, a float (2.0 included), an
    array or a value out of range raises `error`, naming the value by
    `name`; a numpy scalar is shown as its Python value.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        number = int(value)
        if least <= number and (most is None or number <= most):
            return number
    span = f">= {least}" if most is None else f"in {least}..{most}"
    shown = value.item() if isinstance(value, np.generic) else value
    raise error(f"{name} must be an integer {span}, got {shown!r}")


def as_indices(values, name: str, size: int) -> np.ndarray:
    """Validate and return indices into 0..size-1 as an int64 array of any
    shape, none at all included.

    An entry that is a bool, a float (2.0 included) or out of range
    raises IndexOutOfRange, naming a fractional or out-of-range entry, if
    any, by `name`.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        bad = arr[(arr < 0) | (arr >= size)]
    elif arr.dtype.kind == "f":
        bad = np.concatenate([arr[arr != np.floor(arr)], arr.ravel()])
    else:
        bad = arr
    if not bad.size:
        return arr.astype(np.int64)
    first = bad.ravel()[:1].tolist()[0]
    raise IndexOutOfRange(f"{name} must be integers in 0..{size - 1}, got {first!r}")


def as_symmetric(m, noun: str, error: type) -> np.ndarray:
    """Validate and return a nonempty, square, finite float64 matrix whose
    asymmetry max |m - m^T| is at most SYMMETRY_TOL * max(1, max |entry|).

    Non-finite entries raise NonFinite; a bad shape or asymmetry raises
    `error`, naming the matrix by `noun`.
    """
    mat = _floats(m, noun, error)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise error(f"{noun} must be a nonempty square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NonFinite(f"{noun} has NaN or infinite entries")
    if np.abs(mat - mat.T).max() > SYMMETRY_TOL * max(1.0, float(np.abs(mat).max())):
        raise error(f"{noun} is not symmetric")
    return mat


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Frame:
    """Ordered vector family with cached frame operator and optimal bounds.

    vectors has shape (n_frame, dim); frame_operator is the dim x dim
    matrix S = vectors^T vectors; lower_bound/upper_bound are its extreme
    eigenvalues (the lower one clamped at 0, since S is PSD by
    construction).
    """

    vectors: np.ndarray
    frame_operator: np.ndarray
    lower_bound: float
    upper_bound: float

    @property
    def n_frame(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def is_frame(self) -> bool:
        """True when the vectors span R^dim (positive lower bound)."""
        return self.lower_bound > RANK_RTOL * self.upper_bound

    def is_tight(self) -> bool:
        return self.upper_bound - self.lower_bound <= TIGHT_RTOL * self.upper_bound

    @property
    def parseval_residual(self) -> float:
        """max(|alpha - 1|, |beta - 1|): 0 for a Parseval frame."""
        return max(abs(self.lower_bound - 1.0), abs(self.upper_bound - 1.0))

    def is_parseval(self) -> bool:
        return self.parseval_residual <= PARSEVAL_TOL


@dataclass(frozen=True)
class GramMatrix:
    """Gramian G_{jk} = <phi_j, phi_k> of a frame.

    Validated by `as_symmetric` and positive semidefinite at construction
    (else InvalidGramian, or NonFinite): the smallest eigenvalue, kept as
    `min_eigenvalue` with the ascending `spectrum`, must clear
    -`psd_bound`, TOL_PSD times the largest one, so the test holds at any
    scale. That implies every principal minor is nonnegative; no minor is
    computed, as their determinants round below zero on rank-deficient
    Gramians (n vectors in R^N, n > N).
    """

    entries: np.ndarray
    spectrum: np.ndarray = field(init=False)
    min_eigenvalue: float = field(init=False)
    psd_bound: float = field(init=False)

    def __post_init__(self):
        g = as_symmetric(self.entries, "Gramian", InvalidGramian)
        object.__setattr__(self, "entries", g)
        keep = object.__setattr__  # frozen: the spectrum is computed once, here
        keep(self, "spectrum", _readonly(np.linalg.eigvalsh(g)))
        keep(self, "min_eigenvalue", float(self.spectrum[0]))
        keep(self, "psd_bound", TOL_PSD * max(float(self.spectrum[-1]), 0.0))
        if self.min_eigenvalue < -self.psd_bound:
            raise InvalidGramian("Gramian is not positive semidefinite")


def build_frame(vectors) -> Frame:
    """Build a Frame from a sequence of equal-dimension vectors.

    Bounds come from a symmetric eigendecomposition of S = sum phi phi^T.
    """
    # a copy: the frame's array is made read-only, and the caller's stays as it was
    mat = as_rows(vectors).copy()
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise DimensionMismatch(f"a frame needs one or more vectors of one dimension, "
                                f"got shape {mat.shape}")
    s = mat.T @ mat  # exactly symmetric, as in `_gramian`
    eigs = np.linalg.eigvalsh(s)
    alpha = float(max(eigs[0], 0.0))
    beta = float(eigs[-1])
    return Frame(
        vectors=_readonly(mat),
        frame_operator=_readonly(s),
        lower_bound=alpha,
        upper_bound=beta,
    )


def analysis(frame: Frame, x) -> np.ndarray:
    """Coefficient sequence c_n = <x, phi_n>."""
    x = as_vector(x, dim=frame.dim)
    return frame.vectors @ x


def synthesis(frame: Frame, coeffs) -> np.ndarray:
    """sum_n c_n phi_n for a coefficient sequence of length n_frame."""
    c = as_vector(coeffs, dim=frame.n_frame)
    return frame.vectors.T @ c


def _gramian(frame: Frame) -> np.ndarray:
    """V V^T, formed here only; exactly symmetric (BLAS mirrors one triangle)."""
    return frame.vectors @ frame.vectors.T


def gram(frame: Frame) -> GramMatrix:
    """Gramian of the frame (validated PSD relative to its largest eigenvalue)."""
    return GramMatrix(entries=_readonly(_gramian(frame)))


@dataclass(frozen=True)
class RieszCheck:
    lhs: float
    bound: float
    ok: bool


def verify_riesz_upper(frame: Frame, coeffs) -> RieszCheck:
    """Check c^T G c <= beta ||c||^2 (upper Riesz estimate).

    The quadratic form c^T G c equals ||sum c_n phi_n||^2, so the estimate
    is the operator bound T*T <= beta I read on the Gramian side.
    """
    c = as_vector(coeffs, dim=frame.n_frame)
    lhs = float(c @ _gramian(frame) @ c)
    bound = float(frame.upper_bound * (c @ c))
    return RieszCheck(lhs=lhs, bound=bound, ok=lhs <= bound * (1.0 + TOL_INEQ))


def dual_frame(frame: Frame) -> Frame:
    """Canonical dual {S^{-1} phi_n}; reconstruction via the dual is exact.

    Raises NotAFrame when the family does not span (alpha numerically 0).
    """
    if not frame.is_frame():
        raise NotAFrame(
            f"lower bound {frame.lower_bound:g} is numerically zero; no dual exists"
        )
    duals = np.linalg.solve(frame.frame_operator, frame.vectors.T).T
    return build_frame(duals)


def frame_to_dict(frame: Frame) -> dict:
    return {"dim": frame.dim, "vectors": frame.vectors.tolist()}


def frame_from_dict(doc: dict) -> Frame:
    """Rebuild a frame from its JSON document, re-validating invariants."""
    if not isinstance(doc, dict) or "dim" not in doc or "vectors" not in doc:
        raise DimensionMismatch('frame document needs "dim" and "vectors" keys')
    dim = as_count(doc["dim"], 'frame document "dim"', error=DimensionMismatch)
    frame = build_frame(doc["vectors"])
    if frame.dim != dim:
        raise DimensionMismatch(f"document says dim {dim} but vectors have dimension {frame.dim}")
    return frame


def save_frame(frame: Frame, path) -> None:
    with open(path, "w") as fh:
        json.dump(frame_to_dict(frame), fh)


def load_frame(path) -> Frame:
    with open(path) as fh:
        return frame_from_dict(json.load(fh))


def mercedes_benz_frame() -> Frame:
    """The three-vector tight frame for R^2 (bounds 3/2), handy in examples."""
    r3 = np.sqrt(3.0)
    return build_frame([(1.0, 0.0), (-0.5, r3 / 2), (-0.5, -r3 / 2)])


def orthonormal_basis_frame(dim: int) -> Frame:
    """The standard basis of R^dim as a Parseval frame."""
    return build_frame(np.eye(as_count(dim, "dim", error=DimensionMismatch)))
