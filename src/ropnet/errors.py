"""Exception hierarchy shared across the library.

The CLI maps these onto process exit codes: configuration problems exit
with 2, data problems with 3, numeric divergence with 4.
"""


class RopnetError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(RopnetError):
    """Array shapes are inconsistent with what an operation requires."""


class RangeError(RopnetError):
    """A scalar argument lies outside its valid range."""


class ConfigurationError(RopnetError):
    """A model spec, run config, or synthetic-data spec is invalid."""


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
    """Training produced a non-finite loss."""


class CheckpointError(RopnetError):
    """Base class for checkpoint read failures."""


class IncompatibleCheckpointError(CheckpointError):
    """Wrong magic bytes or an unsupported format version."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint file is truncated or structurally inconsistent."""


class DegenerateNeighborhoodError(RopnetError):
    """Local surrogate fit is ill-conditioned at the requested radius."""
