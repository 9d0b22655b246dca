"""Exceptions raised by the concrete transaction runtime."""

from __future__ import annotations


class RuntimeModelError(RuntimeError):
    """Base class for runtime errors."""


class UnknownObjectError(RuntimeModelError):
    """An invocation named an object the system does not manage."""


class InvalidTransactionState(RuntimeModelError):
    """An operation was attempted on a finished or unknown transaction."""
