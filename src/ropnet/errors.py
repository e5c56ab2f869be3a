"""Exception hierarchy shared across the library.

Each type carries the CLI's process exit code as ``exit_code``:
configuration problems exit with 2, data problems with 3, numeric
divergence with 4.
"""

import math
import numbers


class RopnetError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3


class DimensionError(RopnetError):
    """Array shapes are inconsistent with what an operation requires."""


class RangeError(RopnetError):
    """A scalar argument lies outside its valid range."""

    exit_code = 2


class ConfigurationError(RopnetError):
    """A model spec, run config, or synthetic-data spec is invalid."""

    exit_code = 2


class DataError(RopnetError):
    """Base class for problems with input data."""


class ParseError(DataError):
    """A cell in an input file could not be parsed."""


class SchemaError(DataError):
    """Input columns do not match the expected schema."""


class InsufficientDataError(DataError):
    """Too few rows or samples for the requested operation."""


class UnimputableColumnError(DataError):
    """A column is entirely missing, so no mean can be imputed."""


class ConstantColumnError(DataError):
    """A column has zero variance and cannot be standardized."""


class EncodingError(DataError):
    """One-hot encoding was asked to work with an empty vocabulary."""


class WindowError(DataError):
    """Window length exceeds the number of available rows."""


class UndefinedMetricError(RopnetError):
    """A metric's formula has no value on these inputs (e.g. constant
    actuals for R^2, or every row excluded from MAPE)."""


class EmptyBatchError(RopnetError):
    """An operation received a batch of zero samples."""


class DegenerateBatchError(RopnetError):
    """Batch statistics were requested for a single-sample batch."""


class TapeEmptyError(RopnetError):
    """backward() called on a tape with no recorded forward pass."""


class DivergenceError(RopnetError):
    """Training produced a non-finite loss or gradient norm."""

    exit_code = 4


class CheckpointError(RopnetError):
    """Base class for checkpoint read failures."""


class IncompatibleCheckpointError(CheckpointError):
    """Wrong magic bytes or an unsupported format version."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint file is truncated or structurally inconsistent."""


class DegenerateNeighborhoodError(RopnetError):
    """Local surrogate fit is ill-conditioned at the requested radius."""


def shown(value) -> str:
    """``value`` as an error message shows it.  An int beyond float range
    is named by its size, since ``str`` refuses one past 4,300 digits."""
    if isinstance(value, int) and value.bit_length() > 1024:
        article = "a negative" if value < 0 else "an"
        return f"{article} integer of {value.bit_length()} bits"
    return f"{value}"


def check_count(what: str, value, lo=1, hi=None, error=ConfigurationError):
    """Raise ``error`` unless ``value`` is an int (a bool is not) in
    [lo, hi]; the one rule for every count setting."""
    whole = isinstance(value, int) and not isinstance(value, bool)
    if not (whole and lo <= value and (hi is None or value <= hi)):
        span = f"of at least {lo}" if hi is None else f"between {lo} and {hi}"
        got = shown(value) if whole else repr(value)
        raise error(f"{what} must be an integer {span}, got {got}")


def check_real(what: str, value, lo, hi, error=ConfigurationError, *,
               open_lo=False, open_hi=False):
    """Raise ``error`` unless ``value`` is a real number (a bool is not)
    between the finite ends ``lo`` and ``hi``, each closed unless opened;
    the one rule for every real-valued setting.  nan and ±inf lie outside."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # ints compare exactly, floats as Python floats (a float32 would cast hi down and warn)
    x = (value if isinstance(value, numbers.Rational) else float(value)) if real else math.nan
    if not ((lo < x if open_lo else lo <= x) and (x < hi if open_hi else x <= hi)):
        span = f"{'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
        got = shown(value) if real else repr(value)
        raise error(f"{what} must be a finite real number in {span}, got {got}")
