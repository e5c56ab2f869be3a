"""Dataset schema, CSV I/O, and a synthetic drilling-log generator.

The default schema carries eight surface sensor channels sampled along
a well, with rate of penetration (ft/hr) as the target:

  WOB (klbf), RPM (rev/min), Torque (kft-lbf), Standpipe Pressure
  (psi), Flow Rate (gal/min), Hook Load (klbf), Bit Depth (ft),
  Hole Depth (ft).

The generator produces rows from regime-switching, cross-correlated
AR(1) latents and a target that mixes an instantaneous linear term,
two lagged terms, a per-regime offset, and Gaussian noise.  Because
the noise is the only irreducible part, the best attainable MSE equals
its variance; the emitted truth descriptor records every coefficient
plus that floor so experiments can measure how close a model gets.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, islice, pairwise
from operator import itemgetter

import numpy as np

from .errors import ParseError, SchemaError, check_count, check_real
from .tensor import SeededRng


@dataclass(frozen=True)
class DatasetSchema:
    """The columns a CSV must hold, by role: continuous features, the
    target, and categorical features."""

    feature_names: list[str]
    target_name: str
    categorical_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        names = [*self.feature_names, *self.categorical_names, self.target_name]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")

    @classmethod
    def default(cls) -> "DatasetSchema":
        sensors = ["WOB", "RPM", "Torque", "Standpipe Pressure", "Flow Rate",
                   "Hook Load", "Bit Depth", "Hole Depth"]
        return cls(sensors, "ROP")


@dataclass
class Dataset:
    """In-memory table: numeric features, optional target, categoricals."""

    feature_names: list[str]
    features: np.ndarray
    target: np.ndarray | None = None
    categoricals: dict[str, list[str]] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def _parse_cell(text: str, row: int, column: str, required: bool = False) -> float:
    token = text.strip()
    if token == "" or token.lower() == "nan":
        if required:
            raise ParseError(
                f"missing value in a required column (row {row}, column {column!r})"
            )
        return np.nan
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(
            f"cannot parse {text!r} as a finite number (row {row}, "
            f"column {column!r})"
        )
    return value


# rows per np.array parse and per write_csv block; a block's strings are
# alive at once, so on a 20,000-row well 1,024-row blocks kept a predict
# command's peak RSS at 42.7-42.8 MB against 42.7-43.8 MB with 4,096-row
# ones, and load_csv was no slower (median 0.170 s against 0.175 s)
CSV_BLOCK_ROWS = 1024


def _parse_rows(rows, first_row: int, width: int, columns, target: str) -> np.ndarray:
    """Parse the (name, position) ``columns`` of ``rows`` to [rows, columns].

    One ``np.array`` call parses a clean block.  A block that raises,
    holds a missing or non-finite value, or has a row of the wrong width
    is parsed again cell by cell, which raises the first row's error.
    """
    if columns and all(len(row) == width for row in rows):
        take = itemgetter(*(p for _, p in columns))
        try:
            values = np.array(list(map(take, rows)), dtype=np.float64)
            if np.isfinite(values).all():
                return values.reshape(len(rows), len(columns))
        except ValueError:
            pass
    parsed = []
    for row_no, row in enumerate(rows, start=first_row):
        if len(row) != width:
            raise ParseError(f"row {row_no} has {len(row)} cells, header has {width}")
        parsed.append([_parse_cell(row[p], row_no, n, n == target) for n, p in columns])
    return np.array(parsed, dtype=np.float64).reshape(len(rows), len(columns))


def _csv_rows(f, path):
    """``csv.reader`` rows of ``f``, with its decode and reader errors
    raised as ParseError."""
    reader = csv.reader(f)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
            f"cannot be decoded"
        ) from None
    except csv.Error as exc:
        raise ParseError(f"{path} line {reader.line_num}: {exc}") from None


def load_csv(path, schema: DatasetSchema | None = None, require_target: bool = True) -> Dataset:
    """Read a CSV against a schema, preserving row order.

    The file must be UTF-8; a leading byte-order mark is skipped.
    Empty cells and the token "nan" (any case) are missing values; any
    other cell must parse as a finite number.
    A target column, when present, must be complete.
    Columns absent from the schema are ignored with a warning; schema
    columns absent from the header are an error, except that the
    target may be omitted when ``require_target`` is false.  Data rows
    are numbered from 1 in error messages.
    """
    schema = schema or DatasetSchema.default()
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        reader = _csv_rows(f, path)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path} is empty; expected a header row") from None
        header = [h.strip() for h in header]
        twice = sorted({h for h in header if header.count(h) > 1})
        if twice:
            raise SchemaError(f"{path} names columns {twice} more than once")
        positions = {name: i for i, name in enumerate(header)}
        wanted = (
            schema.feature_names
            + schema.categorical_names
            + [schema.target_name]
        )
        missing = [n for n in wanted if n not in positions]
        has_target = schema.target_name in positions
        if not require_target and not has_target:
            missing = [n for n in missing if n != schema.target_name]
        if missing:
            raise SchemaError(
                f"{path} is missing required columns {missing}; header was "
                f"{header}"
            )
        extra = [n for n in header if n not in wanted]
        if extra:
            warnings.warn(f"ignoring columns not in the schema: {extra}")

        names = schema.feature_names + ([schema.target_name] if has_target else [])
        columns = [(n, positions[n]) for n in names]
        cats: dict[str, list[str]] = {n: [] for n in schema.categorical_names}
        width = len(header)
        blocks, first_row = [], 1
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(islice(reader, CSV_BLOCK_ROWS))
            finally:  # a bad cell read before a reader error is named first
                blocks.append(
                    _parse_rows(rows, first_row, width, columns, schema.target_name)
                )
            if not rows:
                break
            for n in cats:
                cats[n] += [row[positions[n]].strip() for row in rows]
            first_row += len(rows)

    values = np.concatenate(blocks)
    n_features = len(schema.feature_names)
    features = np.ascontiguousarray(values[:, :n_features])
    target = np.ascontiguousarray(values[:, n_features]) if has_target else None
    return Dataset(
        feature_names=list(schema.feature_names),
        features=features,
        target=target,
        categoricals=cats,
    )


@contextmanager
def replacing(path, mode="w"):
    """Yield a file open on ``<path>.<pid>.tmp`` beside ``path``, moved onto
    ``path`` when the block succeeds and removed when it fails, so ``path``
    holds either its previous bytes or all of the new ones.  Text modes
    write UTF-8 without newline translation."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    text = "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None, newline="" if text else None) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path, dataset: Dataset):
    """Write features (and the default schema's target, when present)
    with repr-exact floats, ``CSV_BLOCK_ROWS`` rows at a time, through
    ``replacing``.  Only the header goes through ``csv.writer``: a name
    may need quotes, but a repr float never does.
    """
    header = list(dataset.feature_names)
    target = dataset.target
    if target is not None:
        header.append(DatasetSchema.default().target_name)
    with replacing(path) as f:
        csv.writer(f).writerow(header)
        for start in range(0, dataset.n_rows, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            rows = dataset.features[block].tolist()
            if target is not None:
                for row, value in zip(rows, target[block].tolist()):
                    row.append(value)
            f.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows))


# Per-channel location and spread of the raw sensor values.
_BASE_MEANS = np.array([25.0, 120.0, 8.0, 2500.0, 600.0, 180.0, 9000.0, 9200.0])
_BASE_STDS = np.array([5.0, 25.0, 2.0, 400.0, 100.0, 30.0, 1500.0, 1500.0])

# Target construction, expressed per standardized latent unit and
# converted to raw-unit coefficients below.  Lag patterns deliberately
# put weight on channels whose instantaneous value carries none, so a
# model that sees only the current row faces a hard ceiling.
_STATIC_W = np.array([1.4, -1.0, 0.8, 0.6, -0.5, 0.4, 0.25, -0.25])
_LAG1_W = np.array([0.0, 1.2, -0.9, 0.7, 0.0, 0.5, 0.0, 0.0])
_LAG2_W = np.array([0.6, 0.0, 0.0, -0.5, 0.4, 0.0, 0.0, 0.0])
_SIGNAL_SCALE = 10.0

STATIC_COEFFS = _SIGNAL_SCALE * _STATIC_W / _BASE_STDS
LAG1_COEFFS = _SIGNAL_SCALE * _LAG1_W / _BASE_STDS
LAG2_COEFFS = _SIGNAL_SCALE * _LAG2_W / _BASE_STDS

# Calibrated so the irreducible floor sits near R^2 = 0.99 for the
# default row count and coefficients.
DEFAULT_NOISE_SIGMA = 2.9
# Generating this many rows peaks at about 180 MB of process memory.
MAX_ROWS = 1_000_000
_TARGET_MEAN_LEVEL = 120.0
_AR_RHO = 0.6
# Weak common factor: channels stay cross-correlated (regime shifts
# add more), but the standardized design keeps good conditioning.
_COMMON_FACTOR = 0.1


@dataclass
class SyntheticSpec:
    """Knobs for the generator; its coefficients are module constants."""

    n_rows: int = 2000
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    regime_count: int = 3
    seed: int = 42

    def __post_init__(self):
        check_count("synthetic n_rows", self.n_rows, 100, MAX_ROWS)
        # its square is the truth's Bayes MSE, finite for a sigma up to sqrt(max)
        check_real("noise sigma (which needs a finite square)", self.noise_sigma,
                   0, math.sqrt(sys.float_info.max))
        self.noise_sigma = float(self.noise_sigma)  # a float32 would square in float32
        check_count("synthetic regime count", self.regime_count, 1, self.n_rows)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, dict]:
    """Draw one synthetic well; returns the dataset and its truth.

    The truth descriptor holds every generating coefficient, the
    regime layout, the realized noiseless-signal variance, and the
    implied irreducible MSE / best attainable R^2.
    """
    rng = SeededRng(spec.seed)
    n = spec.n_rows
    burn = 2
    total = n + burn

    # Latents: AR(1) per channel with a shared common factor so the
    # channels are cross-correlated, stationary unit variance.  One
    # buffer holds the innovations, then the latents, then the sensors.
    x = rng.normal((total, len(_BASE_MEANS)))
    x += _COMMON_FACTOR * rng.normal((total, 1))
    x /= np.sqrt(1.0 + _COMMON_FACTOR**2)
    x[1:] *= np.sqrt(1.0 - _AR_RHO**2)
    # z[t] = rho * z[t-1] + carry * innov[t], one channel at a time
    for channel in x.T:
        latent = accumulate(channel.tolist(), lambda prev, step: _AR_RHO * prev + step)
        channel[:] = list(latent)

    # Regimes partition the emitted rows; each shifts the channel
    # means and the target level.
    cuts = np.sort(rng.uniform((spec.regime_count - 1,), 0.2, 0.8))
    boundaries = np.unique((cuts * n).astype(np.int64))
    n_regimes = len(boundaries) + 1
    channel_shift = rng.uniform((n_regimes, x.shape[1]), -1.0, 1.0)
    level_jitter = rng.uniform((n_regimes,), -1.0, 1.0)
    noise = rng.normal((n,))
    noise *= spec.noise_sigma

    # regime k covers emitted rows spans[k]; the burn-in rows take regime 0's shift
    spans = list(pairwise([0, *boundaries.tolist(), n]))
    x[:burn] += channel_shift[0]
    for (lo, hi), shift in zip(spans, channel_shift):
        x[burn + lo : burn + hi] += shift
    x *= _BASE_STDS
    x += _BASE_MEANS

    c_s, c_1, c_2 = STATIC_COEFFS, LAG1_COEFFS, LAG2_COEFFS
    # Offsets absorb the coefficient-weighted mean so the target sits
    # near a realistic level.
    center = _TARGET_MEAN_LEVEL - (c_s + c_1 + c_2) @ _BASE_MEANS
    regime_offsets = center + level_jitter

    # the current row and the two before it, as row slices of x
    signal = x[2:] @ c_s
    signal += x[1:-1] @ c_1
    signal += x[:-2] @ c_2
    for (lo, hi), offset in zip(spans, regime_offsets):
        signal[lo:hi] += offset
    y = noise
    y += signal

    signal_var = float(signal.var())
    bayes_mse = float(spec.noise_sigma**2)
    truth = {
        "seed": spec.seed,
        "n_rows": n,
        "feature_names": DatasetSchema.default().feature_names,
        "static_coeffs": c_s.tolist(),
        "lag1_coeffs": c_1.tolist(),
        "lag2_coeffs": c_2.tolist(),
        "regime_boundaries": boundaries.tolist(),
        "regime_offsets": regime_offsets.tolist(),
        "channel_shift": channel_shift.tolist(),
        "noise_sigma": spec.noise_sigma,
        "bayes_mse": bayes_mse,
        "signal_variance": signal_var,
        "bayes_r2": signal_var / (signal_var + bayes_mse),
    }
    dataset = Dataset(
        feature_names=list(truth["feature_names"]),
        features=x[burn:],
        target=y,
    )
    return dataset, truth

