"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ParseError -> 2, PreconditionError -> 3,
SearchError -> 4, VerificationError -> 5, BudgetError -> 6.
"""


class NonproperError(Exception):
    """Base class for all package errors."""


class ParseError(NonproperError):
    """Malformed polynomial, expression, or problem-file text.

    ``position`` is the 0-based character offset of the offending token
    when known.
    """

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PreconditionError(NonproperError):
    """An operation was called outside its contract.

    Covers arity mismatches, maps that are not generically finite, base
    points off the variety, unsupported mode/domain combinations, paths
    that do not approach their target, and similar misuse.
    """


class SearchError(NonproperError):
    """A best-effort search (curve finding, certification) found nothing."""


class VerificationError(NonproperError):
    """An exact back-verification failed or could not be completed."""


class BudgetError(NonproperError):
    """A fixed work budget ran out before an exact computation finished.

    Raised instead of running on for hours, for example when the rational
    roots of a constraint would need the divisors of a 400-digit integer.
    """
