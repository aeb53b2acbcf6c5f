"""Exception taxonomy shared across the package.

ConfigError maps to CLI exit status 2 (usage and configuration problems);
every other NbcError maps to exit status 1 (computational failures). File
format errors carry a distinct ``code`` per failure class so callers can
react without parsing messages.
"""

from __future__ import annotations

__all__ = [
    "NbcError",
    "ConfigError",
    "FitError",
    "EvaluatorError",
    "FormatError",
    "BadMagicError",
    "BadVersionError",
    "TruncatedFileError",
]


class NbcError(Exception):
    """Base class for errors raised by this package."""

    code = "error"


class ConfigError(NbcError):
    """Bad configuration file, unknown key, or invalid CLI usage."""

    code = "config"


class FitError(NbcError):
    """A least-squares fit could not be performed."""

    code = "fit"


class EvaluatorError(NbcError):
    """A search evaluator failed; carries the candidate that triggered it."""

    code = "evaluator"

    def __init__(self, message: str, n_exp: float | None = None):
        super().__init__(message)
        self.n_exp = n_exp


class FormatError(NbcError):
    """Malformed tensor or bundle file."""

    code = "format"


class BadMagicError(FormatError):
    code = "bad-magic"


class BadVersionError(FormatError):
    code = "bad-version"


class TruncatedFileError(FormatError):
    code = "truncated"

    def __init__(self, message: str, expected: int | None = None, actual: int | None = None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual
