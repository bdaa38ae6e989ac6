"""Exception taxonomy for the nsca package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map categories onto exit codes without string matching.
"""


class NscaError(Exception):
    """Base class for all nsca-specific errors."""


class NotPositiveDefinite(NscaError):
    """A matrix required to be positive definite failed its Cholesky pivot test."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class NoConvergence(NscaError):
    """A solver did not converge: a sweep cap or LAPACK's eigensolver failed."""


class ShapeMismatch(NscaError):
    """Array dimensions are inconsistent with each other."""


class ModelMismatch(NscaError):
    """A state-space model does not fit the record it was applied to."""


class BadChannel(NscaError):
    """Channel index outside the record."""


class BadClass(NscaError):
    """Class index outside the partition, or wrong class count for the operation."""


class BadComponent(NscaError):
    """Component index outside the demixer."""


class BadSpec(NscaError):
    """A generator or CLI parameter combination that cannot be realized."""


class MalformedInput(NscaError):
    """A CSV file that cannot be parsed; carries the offending 1-based line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class InvalidWindow(NscaError):
    """Window length incompatible with the series or the estimator."""


class DegenerateSeries(NscaError):
    """A series without enough variation to fit a reference distribution."""


class DegenerateIndex(NscaError):
    """An index with too few distinct values to partition at the requested K."""


class DegenerateTruth(NscaError):
    """Ground-truth labels with only one class present where two are needed."""


class Diverged(NscaError):
    """An adaptive recursion left its stability region."""

    def __init__(self, message, at=None):
        super().__init__(message)
        self.at = at


class EmptyClass(NscaError):
    """A partition step produced a class with no samples."""


class ClassTooSmall(NscaError):
    """A class with too few samples for a full-rank covariance estimate."""

    def __init__(self, message, class_index=None):
        super().__init__(message)
        self.class_index = class_index
