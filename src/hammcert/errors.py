"""Exception hierarchy and validation records shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class HammcertError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(HammcertError):
    """Array length does not match the grid it is paired with."""


class DomainError(HammcertError):
    """A point falls outside the domain an operation is defined on."""


class ParameterError(HammcertError):
    """A scalar argument violates its contract (sign, ordering, range)."""


class ExprError(HammcertError):
    """Syntax or role violation in an expression string.

    Carries the character offset of the offending token in ``pos``.
    """

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class EvaluationError(HammcertError):
    """An expression or kernel produced a non-finite or undefined value.

    When a stack of functions was evaluated, ``rows`` holds the indices of
    the rows that failed; otherwise it is None.
    """

    def __init__(self, message: str, rows: tuple | None = None):
        super().__init__(message)
        self.rows = rows


class ProblemFileError(HammcertError):
    """A problem file is missing, malformed, or internally inconsistent."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one sampled hypothesis check: 'pass' or 'warn' plus detail."""

    name: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"
