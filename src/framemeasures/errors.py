"""Exception hierarchy shared across the library."""


class FrameMeasuresError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(FrameMeasuresError):
    """Inputs disagree on vector dimension or sequence length."""


class NonFinite(FrameMeasuresError):
    """Input contains NaN or infinite entries."""


class NotAFrame(FrameMeasuresError):
    """Lower frame bound is numerically zero; the vectors do not span."""


class ZeroVector(FrameMeasuresError):
    """A nonzero vector is required (normalizer c(0) = 0 is undefined)."""


class ZeroFrameVector(FrameMeasuresError):
    """Chain construction requires every frame vector to be nonzero."""


class IndexOutOfRange(FrameMeasuresError):
    """An index is not an integer within the frame or kernel range, or a
    path or subset is malformed."""


class TooLarge(FrameMeasuresError):
    """Exact enumeration refused beyond the desk-scale cap."""


class DimensionExceedsTruncation(FrameMeasuresError):
    """Vector dimension exceeds the white-noise truncation dimension."""


class KTooLarge(FrameMeasuresError):
    """Moment order or power not an integer within 1 and the Monte-Carlo
    resolution cap."""


class SingularGramian(FrameMeasuresError):
    """Joint density requires a strictly positive definite Gramian."""


class NotParseval(FrameMeasuresError):
    """Operation requires a Parseval frame (both bounds equal to 1)."""


class NotTight(FrameMeasuresError):
    """Operation requires a tight frame (equal bounds)."""


class Overflow(FrameMeasuresError):
    """An exponent, norm or inner product outside the double range."""


class InvalidEnsembleSize(FrameMeasuresError, ValueError):
    """Ensemble dimension, sample/draw/path count, path horizon or seed out
    of range, or not an integer."""


class InvalidChain(FrameMeasuresError, ValueError):
    """Transition matrix breaks row sums, nonnegativity, detailed balance or the bound."""


class InvalidKernel(FrameMeasuresError, ValueError):
    """A determinantal kernel must be a square symmetric matrix with
    spectrum in [0, 1]."""


class NotDeterminantal(FrameMeasuresError, ValueError):
    """Principal minors do not invert to a probability table: a minor or
    a subset mass is significantly negative, or the masses do not sum
    to 1."""


class InvalidWeights(FrameMeasuresError, ValueError):
    """Measure weights must be finite, strictly positive and sum to 1
    (or, to be normalized, have a positive finite sum)."""


class InvalidGramian(FrameMeasuresError, ValueError):
    """A Gramian must be symmetric and positive semidefinite."""


class TransportFailed(FrameMeasuresError, RuntimeError):
    """The transport LP found no optimal plan, or the plan's marginals
    miss the measures' weights."""


class SanityBandViolated(FrameMeasuresError, RuntimeError):
    """Generated coordinates fail the 5-sigma mean/variance band: a
    generator defect, not bad luck."""


class ConfigError(FrameMeasuresError):
    """Malformed CLI/config input."""
