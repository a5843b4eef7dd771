"""Shared exception types.

Every failure mode the library can signal has a dedicated class here, so
callers (and the CLI exit-code mapping) can distinguish syntax errors,
domain errors, non-exact division, and exhausted budgets without string
matching.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all errors raised by this library."""


class RingMismatchError(AlgebraError):
    """Operands belong to different rings."""


class CoefficientError(AlgebraError):
    """A value is not a legal element of the coefficient domain in use."""


class ZeroPolynomialError(AlgebraError):
    """An operation that needs a nonzero polynomial received zero."""


class NonExactDivisionError(AlgebraError):
    """Exact division was requested but the divisor does not divide evenly."""


class ParseError(AlgebraError):
    """Syntax error in polynomial or ring notation, with position info."""

    def __init__(self, message: str, text: str | None = None, pos: int | None = None):
        self.bare_message = message
        self.text = text
        self.pos = pos
        super().__init__(self._render())

    def _render(self) -> str:
        if self.text is None or self.pos is None:
            return self.bare_message
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return f"{self.bare_message} (line {line}, column {col})"


class BudgetExceededError(AlgebraError):
    """A computation hit its resource cap before finishing.

    Raised instead of returning a partial or wrong answer; the message says
    which cap (the pair count or the degree) was exhausted.
    """


class CorpusError(AlgebraError):
    """Unknown corpus entry or invalid parameters for one."""
