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
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidGramian, NonFinite, NotAFrame

TOL_PSD = 1e-10    # absolute floor on Gramian eigenvalues
TOL_INEQ = 1e-10   # slack for inequality checks
RANK_RTOL = 1e-12  # alpha <= RANK_RTOL * beta counts as spanning failure


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float64 vector."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(f"expected a nonempty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("vector has NaN or infinite coordinates")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.size}")
    return arr


def as_rows(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 vector, or a stack of vectors
    (..., d), d >= 1."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise DimensionMismatch(f"expected vectors of dimension >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("vector has NaN or infinite coordinates")
    if dim is not None and arr.shape[-1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.shape[-1]}")
    return arr


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

    def is_tight(self, rtol: float = 1e-10) -> bool:
        return self.upper_bound - self.lower_bound <= rtol * self.upper_bound

    def is_parseval(self, tol: float = 1e-10) -> bool:
        return abs(self.lower_bound - 1.0) <= tol and abs(self.upper_bound - 1.0) <= tol


@dataclass(frozen=True)
class GramMatrix:
    """Gramian G_{jk} = <phi_j, phi_k> of a frame.

    Validated symmetric and positive semidefinite at construction (else
    InvalidGramian): the smallest eigenvalue, kept as `min_eigenvalue`,
    must clear -TOL_PSD. That implies every leading principal minor is
    nonnegative, so the minors (`leading_minors()`) are not tested: their
    determinants round below zero on rank-deficient Gramians (n vectors
    in R^N, n > N).
    The absolute tolerance assumes desk-scale magnitudes (entries O(1)).
    """

    entries: np.ndarray
    min_eigenvalue: float = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", g)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatch(f"Gramian must be square, got {g.shape}")
        if not np.allclose(g, g.T, rtol=0.0, atol=1e-12):
            raise InvalidGramian("Gramian is not symmetric")
        object.__setattr__(self, "min_eigenvalue", float(np.linalg.eigvalsh(g).min()))
        if self.min_eigenvalue < -TOL_PSD:
            raise InvalidGramian("Gramian is not positive semidefinite")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def leading_minors(self) -> np.ndarray:
        """det(G_k) for k = 1..n."""
        g = self.entries
        return np.array([np.linalg.det(g[:k, :k]) for k in range(1, g.shape[0] + 1)])

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


def build_frame(vectors) -> Frame:
    """Build a Frame from a sequence of equal-dimension vectors.

    Bounds come from a symmetric eigendecomposition of S = sum phi phi^T.
    """
    if len(vectors) == 0:
        raise DimensionMismatch("a frame needs at least one vector")
    rows = [as_vector(v) for v in vectors]
    dim = rows[0].size
    for i, r in enumerate(rows):
        if r.size != dim:
            raise DimensionMismatch(
                f"vector {i} has dimension {r.size}, expected {dim}"
            )
    mat = np.vstack(rows)
    s = mat.T @ mat
    s = (s + s.T) / 2.0
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
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (frame.n_frame,):
        raise DimensionMismatch(
            f"expected {frame.n_frame} coefficients, got shape {c.shape}"
        )
    return frame.vectors.T @ c


def gram(frame: Frame) -> GramMatrix:
    """Gramian of the frame (validated PSD within TOL_PSD)."""
    g = frame.vectors @ frame.vectors.T
    return GramMatrix(entries=_readonly((g + g.T) / 2.0))


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
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (frame.n_frame,):
        raise DimensionMismatch(
            f"expected {frame.n_frame} coefficients, got shape {c.shape}"
        )
    g = frame.vectors @ frame.vectors.T
    lhs = float(c @ g @ c)
    bound = float(frame.upper_bound * (c @ c))
    return RieszCheck(lhs=lhs, bound=bound, ok=lhs <= bound + TOL_INEQ)


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
    frame = build_frame(doc["vectors"])
    if frame.dim != doc["dim"]:
        raise DimensionMismatch(
            f'document says dim {doc["dim"]} but vectors have dimension {frame.dim}'
        )
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
    return build_frame(np.eye(dim))
