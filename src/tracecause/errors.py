"""Exception types shared across the package."""

from __future__ import annotations


class TraceCauseError(Exception):
    """Base class for every error raised by this package."""


class ParseError(TraceCauseError):
    """Malformed input text (guard grammar, trace file, or JSON syntax)."""

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, context: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.context = context
        super().__init__(str(self))

    def __str__(self) -> str:
        where = []
        if self.context is not None:
            where.append(self.context)
        if self.line is not None:
            where.append(f"line {self.line}")
        if self.column is not None:
            where.append(f"column {self.column}")
        if where:
            return f"{self.message} ({', '.join(where)})"
        return self.message


class MissingVariable(ParseError):
    """A trace step leaves a declared variable unassigned."""


class UnknownVariable(ParseError):
    """A trace step assigns a variable outside the declared set."""


class DuplicateAssignment(ParseError):
    """A trace step assigns the same variable twice."""


class SchemaError(TraceCauseError):
    """A system document is syntactically valid JSON but violates the schema."""


class ValidationError(TraceCauseError):
    """A structurally parsed model violates a semantic invariant.

    Carries the wellformedness diagnostics that triggered it, when any.
    """

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = tuple(diagnostics)
        super().__init__(message)


class BudgetExceeded(TraceCauseError):
    """An input is larger than a documented budget allows; it is refused
    before any work that grows with it.  The message gives both numbers:
    ``{count} {what}, more than the limit of {limit}``."""

    def __init__(self, what: str, count: int, limit: int):
        super().__init__(f"{count} {what}, more than the limit of {limit}")


class DomainMismatch(TraceCauseError):
    """A trace or valuation does not cover the variable scope it is used at."""


class UndeclaredVariable(TraceCauseError):
    """A guard mentions a variable outside the valuation it is evaluated on."""


class HorizonMismatch(TraceCauseError):
    """An observed-behavior fault model was requested at a horizon different
    from the local trace length."""


class UnknownComponent(TraceCauseError):
    """A candidate set or assignment names a component the system lacks."""


class NotAnErrorTrace(TraceCauseError):
    """A causality analysis was asked about a trace the global spec accepts."""
