"""Exception hierarchy shared by the whole package.

Two families matter to callers: ``InputError`` for malformed input
(bad grammar, dimension mismatches, unknown names) and ``Refusal`` for
operations whose mathematical preconditions fail.  The CLI maps the
former to exit code 2 and the latter to exit code 1.
"""


class BinomialsError(Exception):
    """Base class for all package errors."""


class InputError(BinomialsError):
    """Malformed input: parsing, dimension mismatch, unknown names."""


class ParseError(InputError):
    """Malformed input text; ``parsing.parse_input`` re-raises any
    ``InputError`` found on a session line as one prefixed ``line N: ``."""


class Refusal(BinomialsError):
    """An operation's mathematical precondition does not hold."""


class UnitIdealError(Refusal):
    """Operation undefined on the unit ideal <1>."""


class NonBinomialOperationError(Refusal):
    """Colon by a binomial or a general ideal intersection was requested;
    the result need not be binomial, so the engine refuses."""


class NotPureError(Refusal):
    """The ideal contains a monomial where a pure ideal is required."""


class PurePartError(Refusal):
    """Precondition of the pure-part construction fails."""


class NotMesoprimaryError(Refusal):
    """Ideal is not mesoprimary; carries a witness monomial exponent."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotCancellativeError(Refusal):
    """Congruence intersection requested on a non-cancellative input."""


class NonMaximalCongruenceError(Refusal):
    """Classification requested on a congruence not known to be maximal."""


class NotPrimaryError(Refusal):
    """Partly-cancellable test needs a primary (cellular) congruence."""


class NotPositiveError(Refusal):
    """Fiber enumeration requested for a non-positive degree matrix."""


class ExtensionRankError(Refusal):
    """Character extension requested along an infinite-index inclusion."""


class BudgetExceededError(Refusal):
    """Quotient exploration exceeded the class budget; carries progress."""

    def __init__(self, message, classes=None):
        self.classes = classes or []
        super().__init__(message)


class InconsistentCharacterError(InputError):
    """Generator values do not define a group homomorphism."""
