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
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParseError, SchemaError
from .tensor import SeededRng

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
TARGET = "target"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    unit: str
    kind: str = CONTINUOUS

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL, TARGET):
            raise SchemaError(f"unknown column kind {self.kind!r}")


@dataclass(frozen=True)
class DatasetSchema:
    columns: tuple[FeatureSpec, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        if sum(c.kind == TARGET for c in self.columns) != 1:
            raise SchemaError("schema must declare exactly one target column")

    @property
    def target_name(self) -> str:
        return next(c.name for c in self.columns if c.kind == TARGET)

    @property
    def feature_names(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == CONTINUOUS]

    @property
    def categorical_names(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == CATEGORICAL]

    @classmethod
    def default(cls) -> "DatasetSchema":
        return cls(
            columns=(
                FeatureSpec("WOB", "klbf"),
                FeatureSpec("RPM", "rev/min"),
                FeatureSpec("Torque", "kft-lbf"),
                FeatureSpec("Standpipe Pressure", "psi"),
                FeatureSpec("Flow Rate", "gal/min"),
                FeatureSpec("Hook Load", "klbf"),
                FeatureSpec("Bit Depth", "ft"),
                FeatureSpec("Hole Depth", "ft"),
                FeatureSpec("ROP", "ft/hr", TARGET),
            )
        )


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


def _parse_cell(text: str, row: int, column: str) -> float:
    token = text.strip()
    if token == "" or token.lower() == "nan":
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


def load_csv(path, schema: DatasetSchema | None = None, require_target: bool = True) -> Dataset:
    """Read a CSV against a schema, preserving row order.

    Empty cells and the token "nan" (any case) are missing values; any
    other cell must parse as a finite number.
    Columns absent from the schema are ignored with a warning; schema
    columns absent from the header are an error, except that the
    target may be omitted when ``require_target`` is false.  Data rows
    are numbered from 1 in error messages.
    """
    schema = schema or DatasetSchema.default()
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path} is empty; expected a header row") from None
        header = [h.strip() for h in header]
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

        feat_rows: list[list[float]] = []
        target_vals: list[float] = []
        cats: dict[str, list[str]] = {n: [] for n in schema.categorical_names}
        width = len(header)
        for row_no, row in enumerate(reader, start=1):
            if len(row) != width:
                raise ParseError(
                    f"row {row_no} has {len(row)} cells, header has {width}"
                )
            feat_rows.append(
                [
                    _parse_cell(row[positions[n]], row_no, n)
                    for n in schema.feature_names
                ]
            )
            if has_target:
                target_vals.append(
                    _parse_cell(
                        row[positions[schema.target_name]],
                        row_no,
                        schema.target_name,
                    )
                )
            for n in schema.categorical_names:
                cats[n].append(row[positions[n]].strip())

    features = np.array(feat_rows, dtype=np.float64).reshape(
        len(feat_rows), len(schema.feature_names)
    )
    target = np.array(target_vals, dtype=np.float64) if has_target else None
    return Dataset(
        feature_names=list(schema.feature_names),
        features=features,
        target=target,
        categoricals=cats,
    )


def write_csv(path, dataset: Dataset, target_name: str = "ROP"):
    """Write features (and target when present) with repr-exact floats."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        header = list(dataset.feature_names)
        if dataset.target is not None:
            header.append(target_name)
        writer.writerow(header)
        for i in range(dataset.n_rows):
            row = [repr(float(v)) for v in dataset.features[i]]
            if dataset.target is not None:
                row.append(repr(float(dataset.target[i])))
            writer.writerow(row)


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

DEFAULT_STATIC_COEFFS = tuple(_SIGNAL_SCALE * _STATIC_W / _BASE_STDS)
DEFAULT_LAG1_COEFFS = tuple(_SIGNAL_SCALE * _LAG1_W / _BASE_STDS)
DEFAULT_LAG2_COEFFS = tuple(_SIGNAL_SCALE * _LAG2_W / _BASE_STDS)

# Calibrated so the irreducible floor sits near R^2 = 0.99 for the
# default row count and coefficients.
DEFAULT_NOISE_SIGMA = 2.9
_TARGET_MEAN_LEVEL = 120.0
_AR_RHO = 0.6
# Weak common factor: channels stay cross-correlated (regime shifts
# add more), but the standardized design keeps good conditioning.
_COMMON_FACTOR = 0.1


@dataclass
class SyntheticSpec:
    """Knobs for the generator; coefficient tuples are in raw units."""

    n_rows: int = 2000
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    regime_count: int = 3
    seed: int = 42
    static_coeffs: tuple = DEFAULT_STATIC_COEFFS
    lag1_coeffs: tuple = DEFAULT_LAG1_COEFFS
    lag2_coeffs: tuple = DEFAULT_LAG2_COEFFS

    def __post_init__(self):
        if self.n_rows < 100:
            raise ConfigurationError(
                f"synthetic spec needs at least 100 rows, got {self.n_rows}"
            )
        if self.noise_sigma < 0:
            raise ConfigurationError(
                f"noise sigma must be non-negative, got {self.noise_sigma}"
            )
        if self.regime_count < 1:
            raise ConfigurationError(
                f"regime count must be at least 1, got {self.regime_count}"
            )
        n_feat = len(_BASE_MEANS)
        for label, coeffs in (
            ("static_coeffs", self.static_coeffs),
            ("lag1_coeffs", self.lag1_coeffs),
            ("lag2_coeffs", self.lag2_coeffs),
        ):
            if len(coeffs) != n_feat:
                raise ConfigurationError(
                    f"{label} must have {n_feat} entries, got {len(coeffs)}"
                )


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, dict]:
    """Draw one synthetic well; returns the dataset and its truth.

    The truth descriptor holds every generating coefficient, the
    regime layout, the realized noiseless-signal variance, and the
    implied irreducible MSE / best attainable R^2.
    """
    rng = SeededRng(spec.seed)
    n = spec.n_rows
    n_feat = len(_BASE_MEANS)
    burn = 2
    total = n + burn

    # Latents: AR(1) per channel with a shared common factor so the
    # channels are cross-correlated, stationary unit variance.
    eps = rng.normal((total, n_feat))
    common = rng.normal((total, 1))
    innov = (eps + _COMMON_FACTOR * common) / np.sqrt(1.0 + _COMMON_FACTOR**2)
    z = np.empty((total, n_feat))
    z[0] = innov[0]
    carry = np.sqrt(1.0 - _AR_RHO**2)
    for t in range(1, total):
        z[t] = _AR_RHO * z[t - 1] + carry * innov[t]

    # Regimes partition the emitted rows; each shifts the channel
    # means and the target level.
    if spec.regime_count > 1:
        cuts = np.sort(rng.uniform((spec.regime_count - 1,), 0.2, 0.8))
        boundaries = np.unique((cuts * n).astype(np.int64))
    else:
        boundaries = np.array([], dtype=np.int64)
    regime_of_row = np.searchsorted(boundaries, np.arange(n), side="right")
    n_regimes = len(boundaries) + 1
    channel_shift = rng.uniform((n_regimes, n_feat), -1.0, 1.0)
    level_jitter = rng.uniform((n_regimes,), -1.0, 1.0)
    noise = rng.normal((n,)) * spec.noise_sigma

    regime_full = np.concatenate(
        [np.zeros(burn, dtype=np.int64), regime_of_row]
    )
    x = _BASE_MEANS + _BASE_STDS * (z + channel_shift[regime_full])

    c_s = np.asarray(spec.static_coeffs)
    c_1 = np.asarray(spec.lag1_coeffs)
    c_2 = np.asarray(spec.lag2_coeffs)
    # Offsets absorb the coefficient-weighted mean so the target sits
    # near a realistic level.
    center = _TARGET_MEAN_LEVEL - (c_s + c_1 + c_2) @ _BASE_MEANS
    regime_offsets = center + level_jitter

    rows = np.arange(burn, total)
    signal = (
        x[rows] @ c_s
        + x[rows - 1] @ c_1
        + x[rows - 2] @ c_2
        + regime_offsets[regime_of_row]
    )
    y = signal + noise

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
        features=x[rows],
        target=y,
    )
    return dataset, truth


def write_truth(path, truth: dict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(truth, f, indent=2, sort_keys=True)
        f.write("\n")
