"""Exception types shared across the package.

All numerical failures derive from TranslabError so the CLI can map them to
exit code 1; UsageError maps to exit code 2.
"""


class TranslabError(Exception):
    """Base class for numerical and contract failures."""


class NonFiniteError(TranslabError):
    """A field or difference quotient produced NaN/inf."""


class MarginTooSmallError(TranslabError):
    """Grid lacks the interior margin a stencil requires."""


class DegenerateEdgeError(TranslabError):
    """Consecutive polyline points coincide."""


class OutOfDomainError(TranslabError):
    """Analytic translator evaluated outside its open strip."""


class StepTooLargeError(TranslabError):
    """ODE local error estimate cannot be met above the step floor."""


class NonMonotoneProfileError(TranslabError):
    """A shot profile lost the monotonicity its family guarantees."""


class WindowTooNarrowError(TranslabError):
    """Asymptotic fit window is not a finite [r_lo, r_hi] with 0 < r_lo,
    2 r_lo <= r_hi and r_hi within the profile, or holds too few samples."""


class UmbilicWindowError(TranslabError):
    """Requested identity-report range contains near-umbilic samples."""


class ShapeMismatchError(TranslabError):
    """Grid/boundary data shapes or values are incompatible."""


class NewtonStalledError(TranslabError):
    """Armijo damping hit its floor without residual decrease."""


class MaxIterationsError(TranslabError):
    """Newton iteration budget exhausted before the tolerance."""


class LinearSolveFailureError(TranslabError):
    """Sparse linear solve failed or returned non-finite values."""


class ContinuationBrokenError(TranslabError):
    """A continuation step failed even after halving the parameter step."""


class ResolutionLostError(TranslabError):
    """Curve edges collapsed below the resolvable scale."""


class InsufficientDataError(TranslabError):
    """Too few samples for a fit or classification."""


class PerturbationTooLargeError(TranslabError):
    """Perturbed surface failed graph sanity checks."""


class RegionOutOfBoundsError(TranslabError):
    """Quadrature region extends beyond the interior of the grid."""


class EmptyMaskError(TranslabError):
    """All evaluation nodes were masked out (umbilic or margin)."""


class IoError(TranslabError):
    """Serialization refused (non-finite data, malformed file)."""


class UsageError(Exception):
    """Bad command line or config input; CLI exit code 2."""
