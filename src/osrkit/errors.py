"""Exception taxonomy shared across the toolkit.

Everything user-facing maps onto one of these so the CLI can translate
failures into stable exit codes (validation errors exit 1, numeric
failures exit 2).
"""


class OsrkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(OsrkitError):
    """Invalid configuration: bad shapes, dimensions, or parameter values."""


class DataError(OsrkitError):
    """Malformed dataset content or files (bad labels, ragged rows, ...)."""


class DegenerateInputError(OsrkitError):
    """Input outside the operation's domain, e.g. a zero-norm vector fed
    to an angular distance."""


class UsageError(OsrkitError):
    """API misuse: mismatched call order, shapes or arguments."""


class EvalError(OsrkitError):
    """Evaluation impossible on the given inputs (e.g. no unknown samples)."""


class NumericError(OsrkitError):
    """Non-finite values or failed numerical checks."""
