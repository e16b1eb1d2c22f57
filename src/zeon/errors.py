"""Exception types shared across the package.

Class names double as stable machine-readable error kinds: the CLI
reports ``type(exc).__name__`` verbatim in its structured error output,
so renaming a class here is a breaking change.
"""

from __future__ import annotations

__all__ = [
    "ZeonError",
    "DimensionMismatch",
    "NotInvertible",
    "DivisorNotMonicizable",
    "LeadingCoefficientNotInvertible",
    "NotSpectrallySimple",
    "SeedMismatch",
    "OutsideDomain",
    "RootFindingFailed",
    "SqrtNotFound",
    "FamilyPreconditionError",
    "NonFiniteResult",
]


class ZeonError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ZeonError):
    """Operands live in algebras with different generator counts."""


class NotInvertible(ZeonError):
    """Element has (numerically) zero scalar part, hence no inverse."""


class DivisorNotMonicizable(ZeonError):
    """Polynomial divisor whose leading coefficient is not invertible."""


class LeadingCoefficientNotInvertible(ZeonError):
    """Leading coefficient has zero scalar part, so the polynomial
    cannot be scaled to a monic one."""


class NotSpectrallySimple(ZeonError):
    """The scalar seed is not a simple zero of the scalar projection."""


class SeedMismatch(ZeonError):
    """Scalar seed is not mapped onto the scalar part of the target."""


class OutsideDomain(ZeonError):
    """Scalar argument lies outside the analytic function's domain."""


class RootFindingFailed(ZeonError):
    """Iteration did not converge.

    ``partial`` carries the best approximation available when the
    failure was raised, or ``None``.
    """

    def __init__(self, message: str, partial: object = None):
        super().__init__(message)
        self.partial = partial


class SqrtNotFound(ZeonError):
    """No square root was produced.

    ``certified`` is ``True`` only when non-existence is provable from
    the input's grade structure; ``False`` means the best-effort search
    gave up without a verdict.
    """

    def __init__(self, message: str, certified: bool):
        super().__init__(message)
        self.certified = certified


class FamilyPreconditionError(ZeonError):
    """Inputs do not satisfy the hypotheses of a zero-family result."""


class NonFiniteResult(ZeonError, ValueError):
    """A coefficient came out infinite or NaN, as when finite operands
    overflow; such a result is never stored."""
