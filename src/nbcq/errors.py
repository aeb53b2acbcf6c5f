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
    """A search or an evaluation failed; the message names the candidate, if any."""

    code = "evaluator"


class FormatError(NbcError):
    """Malformed tensor or bundle file."""

    code = "format"


class BadMagicError(FormatError):
    code = "bad-magic"


class BadVersionError(FormatError):
    code = "bad-version"


class TruncatedFileError(FormatError):
    code = "truncated"
