"""Exception types shared across the package."""

__all__ = [
    "LoveDispError",
    "NonPositiveParameter",
    "NoLoveWaves",
    "BadBracket",
    "InsufficientData",
    "UnresolvedLevels",
    "AmbiguousOrdering",
    "OutOfRange",
    "ResultOutOfRange",
    "DivergedOrInfeasible",
    "DegeneratePoint",
    "NonRealResult",
    "NotOnBranch",
]


class LoveDispError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveParameter(LoveDispError, ValueError):
    """A shear modulus, density, or thickness is not strictly positive."""


class NoLoveWaves(LoveDispError, ValueError):
    """The medium admits no guided Love waves (min velocity >= half-space velocity)."""


class BadBracket(LoveDispError, ValueError):
    """Root refinement was asked to work on an interval without a sign change."""


class InsufficientData(LoveDispError, ValueError):
    """Not enough branch samples, cutoffs, or branches to apply a recovery rule."""


class UnresolvedLevels(LoveDispError, RuntimeError):
    """Accumulation-level detection did not resolve the expected slowness levels."""


class AmbiguousOrdering(LoveDispError, RuntimeError):
    """The layer-ordering test on level crossings was inconclusive."""


class OutOfRange(LoveDispError, ValueError):
    """An evaluation point lies outside the admissible slowness range.

    Results outside double range raise the subclass :class:`ResultOutOfRange`.
    """


class ResultOutOfRange(OutOfRange):
    """A computed result (a mode amplitude or norm) lies outside double range,
    or a root search's result is over its per-call size budget.

    A numerical failure rather than an input error; it stays an
    :class:`OutOfRange`, so callers that catch that also catch this.
    """


class DivergedOrInfeasible(LoveDispError, RuntimeError):
    """Least-squares refinement started from or converged to an infeasible model,
    or a non-negative least-squares solve did not converge."""


class DegeneratePoint(LoveDispError, ValueError):
    """A boundary-matching determinant was requested at a degenerate point."""


class NonRealResult(LoveDispError, RuntimeError):
    """A quantity that must be real came back with a large imaginary residue."""


class NotOnBranch(LoveDispError, ValueError):
    """A mode shape was requested at a point that does not solve the dispersion relation."""
