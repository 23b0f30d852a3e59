"""Exception taxonomy shared across the package.

Each class carries its CLI exit code and stderr label (``exit_code``,
``label``), and this is the only place that maps errors onto them:
ParseError 2, PreconditionError 3, SearchError 4, VerificationError 5,
BudgetError 6, any other NonproperError 3.
"""


class NonproperError(Exception):
    """Base class for all package errors."""

    exit_code = 3
    label = "error"


class ParseError(NonproperError):
    """Malformed polynomial, expression, or problem-file text.

    ``position`` is the 0-based character offset of the offending token
    when known.
    """

    exit_code = 2
    label = "parse error"

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

    exit_code = 3
    label = "precondition violation"


class SearchError(NonproperError):
    """A best-effort search (curve finding, certification) found nothing."""

    exit_code = 4
    label = "search failure"


class VerificationError(NonproperError):
    """An exact back-verification failed or could not be completed."""

    exit_code = 5
    label = "verification failure"


class BudgetError(NonproperError):
    """A fixed work budget ran out before an exact computation finished.

    Raised instead of running on for hours, for example when the rational
    roots of a constraint would need the divisors of a 400-digit integer.
    """

    exit_code = 6
    label = "budget exhausted"
