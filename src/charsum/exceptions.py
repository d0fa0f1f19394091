"""Typed errors shared across the package."""


class CharsumError(Exception):
    """Base class for domain errors."""


class BadReductionError(CharsumError):
    """The requested curve/polynomial is singular or undefined mod p."""


class NotSplitError(CharsumError):
    """A reduction step needed a polynomial to split over F_p and it did not.

    Callers are expected to fall back to direct summation.
    """


class TraceUndecidedError(CharsumError):
    """The group-order search left more than one trace standing.

    By Mestre's theorem this can happen only for p <= 229.
    """


class ConstraintViolation(CharsumError):
    """A named parameter constraint failed (e.g. beta in {0, 1})."""

    def __init__(self, flag: str, message: str = ""):
        self.flag = flag
        super().__init__(message or f"constraint violated: {flag}")
