"""Exception types shared across the package."""


class GermError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GermError):
    """Syntax error in polynomial text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(GermError):
    """A variable name outside the ambient ring."""

    def __init__(self, name: str, position: int | None = None):
        msg = f"unknown variable {name!r}"
        if position is not None:
            msg += f" (at position {position})"
        super().__init__(msg)
        self.name = name
        self.position = position


class MonomialOverflowError(GermError):
    """An exponent exceeded the machine-word bound of the basis engine."""


class ExpansionTooLargeError(GermError):
    """A power, product or sum in polynomial text would pass a parser bound.

    The bounds are on the terms a power or product would make and on
    the bits of its coefficients; see :mod:`germ.poly`.
    """


class ComputationBudgetExceeded(GermError):
    """A standard-basis run went past its deterministic work budget.

    ``pairs_left`` is the number of s-pairs the run still had queued
    when it stopped, or None when the error does not come from a run
    (the precedence portfolio giving up at its ceiling).  The portfolio
    tries the precedences that left the fewest pairs first in its next
    round.
    """

    def __init__(self, message: str, pairs_left: int | None = None):
        super().__init__(message)
        self.pairs_left = pairs_left


class NotAGermError(GermError):
    """Input polynomial is not a germ vanishing at the origin."""


class NotPlaneBranchError(GermError):
    """Numerical semigroup is not the semigroup of a plane branch."""
