"""Exception types shared across the package."""

from __future__ import annotations


class MbqcError(Exception):
    """Base class for all package errors."""


class DomainError(MbqcError, ValueError):
    """A vertex or set argument lies outside its required domain."""


class PreconditionError(MbqcError, ValueError):
    """A documented precondition of an operation does not hold."""


class ResourceLimitError(MbqcError):
    """An instance exceeds a configured size bound."""


class InvariantViolationError(MbqcError):
    """A quantity that must hold by theory failed numerically."""


class PatternSyntaxError(MbqcError, ValueError):
    """Malformed pattern text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DocumentError(MbqcError, ValueError):
    """Malformed JSON document."""
