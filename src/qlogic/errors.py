"""Exception types shared across the package."""


class QLogicError(Exception):
    """Base class for all package errors."""


class UnknownContextError(QLogicError, KeyError):
    """A context id was not found in the poset."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class DomainError(QLogicError, ValueError):
    """An argument lies outside the domain of the operation."""


class StructureError(QLogicError, ValueError):
    """A structural invariant of a poset/frame construction is broken."""


class ResourceLimitError(QLogicError, RuntimeError):
    """An exhaustive enumeration would exceed the configured guard."""
