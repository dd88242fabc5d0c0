"""Exception hierarchy shared across the pipeline.

Schema violations carry the failing path so batch reports and diagnostics
can name the offending field. ``error_class`` is the stable identifier
recorded in failure entries and exit-code mapping.
"""

from __future__ import annotations


class TaskshiftError(Exception):
    """Base class for all package errors."""


class DataError(TaskshiftError):
    """Invalid or inconsistent input data (exit code 2 in the CLI)."""


class UsageError(TaskshiftError):
    """Bad invocation or configuration (exit code 1 in the CLI)."""


class ProviderError(TaskshiftError):
    """The LLM/embedding provider failed after retries (exit code 3)."""

    error_class = "ProviderError"


class ProviderRefused(ProviderError):
    """The provider refused the call (an HTTP error status) or the call did not
    complete, so no reply was seen; failure entries record it as a ``ProviderError``."""


class SchemaInvalid(TaskshiftError):
    """A payload failed schema or structural validation.

    Subclasses name the specific violation; ``error_class`` is what gets
    recorded in batch failure entries.
    """

    error_class = "SchemaInvalid"

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{self.error_class} at {path}: {message}")


class MissingField(SchemaInvalid):
    error_class = "MissingField"


class TypeMismatch(SchemaInvalid):
    error_class = "TypeMismatch"


class RangeViolation(SchemaInvalid):
    error_class = "RangeViolation"


class EnumViolation(SchemaInvalid):
    error_class = "EnumViolation"
