"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: validation/config problems -> 1,
file-format and I/O problems -> 2, numerical failures -> 3.
"""

__all__ = [
    "HogmtError",
    "ValidationError",
    "DimensionMismatchError",
    "ConfigError",
    "FormatError",
    "NumericalError",
    "DegenerateChannelError",
]


class HogmtError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(HogmtError, ValueError):
    """An argument or configuration value violates a documented constraint."""


class DimensionMismatchError(ValidationError):
    """Array shapes are inconsistent with each other or with the operation."""


class ConfigError(ValidationError):
    """A config file could not be parsed or fails schema validation."""


class FormatError(HogmtError):
    """A serialized file is malformed (bad magic, version, truncation...)."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalError(HogmtError):
    """A numerical routine failed (non-convergence, rank deficiency...)."""


class DegenerateChannelError(NumericalError):
    """Every retained mode falls below the singular-value floor."""
