"""Row-level preparation: imputation, encoding, scaling, windowing.

Fit order matters and is leak-free: the window-index split is decided
first (it needs only the row count), then every statistic (imputation
fills, one-hot vocabularies, scaler moments) is fitted on training
rows only, where the training rows are the final rows of training
windows.  All rows are then windowed by ``transform``, the
same function that scores new data, and the windows are split.

Scaling uses the population standard deviation.  One-hot columns pass
through the scaler with mean 0 and scale 1 so the transform stays a
single affine map per column.  The target has its own scaler; metrics
are computed after inverting it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import DatasetSchema
from .errors import (
    ConstantColumnError,
    CorruptCheckpointError,
    DataError,
    EncodingError,
    IncompatibleCheckpointError,
    InsufficientDataError,
    RangeError,
    SchemaError,
    UnimputableColumnError,
    WindowError,
    check_count,
    shown,
)
from .tensor import SeededRng


@dataclass
class SplitIndices:
    """Sorted window indices for the training and test partitions."""

    train: np.ndarray
    test: np.ndarray


TRAIN_FRACTION = 0.8
SPLIT_SEED = 42


def split_train_test(n_items: int) -> SplitIndices:
    """Random, reproducible TRAIN_FRACTION index split; both sides
    always nonempty."""
    if n_items < 5:
        raise InsufficientDataError(
            f"need at least 5 items to split, got {n_items}"
        )
    n_train = int(round(TRAIN_FRACTION * n_items))
    perm = SeededRng(SPLIT_SEED).permutation(n_items)
    return SplitIndices(
        train=np.sort(perm[:n_train]), test=np.sort(perm[n_train:])
    )


def _observed_mean(values: np.ndarray, label: str) -> float:
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        raise UnimputableColumnError(
            f"{label} has no observed values in the training rows"
        )
    return float(finite.mean())


def fit_standard_scaler(rows: np.ndarray, names=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population std; zero spread, or a mean or
    spread that overflows float64, is an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
    names = names if names is not None else [f"column {j}" for j in range(rows.shape[1])]
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise DataError(
            f"{names[bad[0]]} overflows float64 in its training-row mean or "
            f"spread; scaling is undefined"
        )
    bad = np.flatnonzero(std == 0.0)
    if bad.size:
        raise ConstantColumnError(
            f"{names[bad[0]]} is constant on the training rows; scaling is undefined"
        )
    return mean, std


def apply_scaler(values: np.ndarray, mean, std) -> np.ndarray:
    return (values - mean) / std


def invert_scaler(values: np.ndarray, mean, std) -> np.ndarray:
    return values * std + mean


@dataclass
class OutlierReport:
    """Tukey-fence flags for one column (reported, never dropped)."""

    lower_fence: float
    upper_fence: float
    indices: np.ndarray

    @property
    def count(self) -> int:
        return int(self.indices.size)


# Tukey's fence multiplier
FENCE_K = 1.5


def iqr_outlier_report(values: np.ndarray) -> OutlierReport:
    """Flag values strictly outside [Q1 - k*IQR, Q3 + k*IQR], k = FENCE_K.

    Quartiles use linear interpolation between order statistics.
    """
    if len(values) < 4:
        raise InsufficientDataError(
            f"quartile fences need at least 4 values, got {len(values)}"
        )
    q1, q3 = np.quantile(values, [0.25, 0.75])
    iqr = q3 - q1
    lo = q1 - FENCE_K * iqr
    hi = q3 + FENCE_K * iqr
    flagged = np.flatnonzero((values < lo) | (values > hi))
    return OutlierReport(lower_fence=float(lo), upper_fence=float(hi), indices=flagged)


def one_hot(values, vocab: list[str]) -> np.ndarray:
    """Encode tokens against a fixed vocabulary.

    Tokens outside the vocabulary map to all-zero rows and raise a
    warning naming them, so downstream shapes never change between fit
    and inference.
    """
    if not vocab:
        raise EncodingError("cannot encode against an empty vocabulary")
    index = {tok: i for i, tok in enumerate(vocab)}
    out = np.zeros((len(values), len(vocab)))
    unseen = set()
    for row, tok in enumerate(values):
        col = index.get(tok)
        if col is None:
            unseen.add(tok)
        else:
            out[row, col] = 1.0
    if unseen:
        warnings.warn(
            f"categories not seen during fitting encoded as zeros: "
            f"{sorted(unseen)}",
            stacklevel=2,
        )
    return out


def _one_hot_names(vocab: dict[str, list[str]]) -> list[str]:
    """Column names of the encoded block, ``column=token``, in encoding order."""
    return [f"{c}={tok}" for c in sorted(vocab) for tok in vocab[c]]


def make_windows(features: np.ndarray, target, window_len: int):
    """Overlapping windows of consecutive rows.

    Window m covers rows [m, m + L); its static vector and target come
    from the final row, so N rows give N - L + 1 aligned samples.  All
    three are views into the inputs; the windows are read-only.
    """
    n = features.shape[0]
    check_count("window length", window_len, error=RangeError)
    if n < window_len:
        raise WindowError(
            f"need at least {shown(window_len)} rows to build one window, got {n}"
        )
    # The window axis comes last: [M, F, L] -> [M, L, F].  Windows
    # overlap, so nothing may write into them; indexing them with an
    # index array (fit_pipeline's split) copies.
    windows = sliding_window_view(features, window_len, axis=0).transpose(0, 2, 1)
    statics = features[window_len - 1 :]
    y = None if target is None else target[window_len - 1 :]
    return windows, statics, y


@dataclass
class PreprocessorState:
    """Everything needed to replay the fitted transform at inference.

    ``source_names`` are the raw continuous columns expected from a
    dataset; ``feature_names`` are the post-encoding columns the model
    actually consumes.
    """

    feature_names: list[str]
    source_names: list[str]
    window_len: int
    fill_values: list[float]
    feat_mean: list[float]
    feat_std: list[float]
    target_name: str
    target_mean: float
    target_std: float
    vocab: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d):
        # Older version-1 headers carry a "derived" list of engineered
        # columns.  An empty one changes nothing; a non-empty one names
        # columns this transform cannot compute.
        d = dict(d)
        derived = d.pop("derived", [])
        if derived:
            raise IncompatibleCheckpointError(
                f"checkpoint needs derived features {derived}, which this "
                f"version does not compute"
            )
        state = cls(**d)
        check_count(
            "preprocessor window_len", state.window_len, error=CorruptCheckpointError
        )
        n_src, n_feat = len(state.source_names), len(state.feature_names)
        counts = (len(state.fill_values), len(state.feat_mean), len(state.feat_std))
        if counts != (n_src, n_feat, n_feat):
            raise CorruptCheckpointError(
                f"preprocessor fills, means and scales number {counts}; "
                f"expected {(n_src, n_feat, n_feat)}"
            )
        if state.feature_names != state.source_names + _one_hot_names(state.vocab):
            raise CorruptCheckpointError(
                "preprocessor feature names do not match its sources and vocabularies"
            )
        shifts = np.asarray([*state.fill_values, *state.feat_mean, state.target_mean], float)
        scales = np.asarray([*state.feat_std, state.target_std], float)
        if not (np.isfinite(shifts).all() and ((scales > 0) & (scales < np.inf)).all()):
            raise CorruptCheckpointError(
                "preprocessor needs finite means and fills and finite positive scales"
            )
        return state


@dataclass
class PreparedData:
    """Windowed, scaled tensors for one train/test split."""

    feature_names: list[str]
    split: SplitIndices
    train_windows: np.ndarray
    train_statics: np.ndarray
    train_y: np.ndarray
    test_windows: np.ndarray
    test_statics: np.ndarray
    test_y: np.ndarray
    train_y_raw: np.ndarray
    test_y_raw: np.ndarray


def transform_target(state: PreprocessorState, y: np.ndarray) -> np.ndarray:
    return apply_scaler(y, state.target_mean, state.target_std)


def inverse_target(state: PreprocessorState, y: np.ndarray) -> np.ndarray:
    return invert_scaler(y, state.target_mean, state.target_std)


def input_schema(state: PreprocessorState) -> DatasetSchema:
    """The columns ``transform`` needs: the fitted continuous and
    categorical sources plus the target."""
    return DatasetSchema(state.source_names, state.target_name, sorted(state.vocab))


def fit_pipeline(dataset, window_len: int = 1) -> tuple[PreprocessorState, PreparedData]:
    """Fit the transform on the training rows, then window every row
    with ``transform`` and split the windows.  The target keeps the
    default schema's name."""
    if dataset.target is None:
        raise DataError("fitting requires the target column")
    check_count("window length", window_len, error=RangeError)
    n = dataset.features.shape[0]
    if n < window_len + 1:
        raise WindowError(
            f"need more than {shown(window_len)} rows to fit with window length "
            f"{shown(window_len)}, got {n}"
        )
    y_raw = np.asarray(dataset.target, dtype=np.float64)
    if np.isnan(y_raw).any():
        raise DataError("target column contains missing values")
    split = split_train_test(n - window_len + 1)
    fit_rows = split.train + window_len - 1

    features = np.asarray(dataset.features, dtype=np.float64)
    train_rows = features[fit_rows]
    sources = list(dataset.feature_names)
    fills = [_observed_mean(col, name) for col, name in zip(train_rows.T, sources)]
    mean, std = fit_standard_scaler(
        np.where(np.isnan(train_rows), fills, train_rows), sources
    )
    vocab = {
        c: sorted({tokens[i] for i in fit_rows})
        for c, tokens in sorted(dataset.categoricals.items())
    }
    encoded = _one_hot_names(vocab)
    target_name = DatasetSchema.default().target_name
    t_mean, t_std = fit_standard_scaler(y_raw[fit_rows, None], [target_name])
    state = PreprocessorState(
        feature_names=sources + encoded,
        source_names=sources,
        window_len=window_len,
        fill_values=fills,
        feat_mean=mean.tolist() + [0.0] * len(encoded),
        feat_std=std.tolist() + [1.0] * len(encoded),
        target_name=target_name,
        target_mean=float(t_mean[0]),
        target_std=float(t_std[0]),
        vocab=vocab,
    )

    windows, statics, y_w_raw = transform(dataset, state)
    tr, te = split.train, split.test
    prepared = PreparedData(
        feature_names=list(state.feature_names),
        split=split,
        train_windows=windows[tr],
        train_statics=statics[tr],
        train_y=transform_target(state, y_w_raw[tr]),
        test_windows=windows[te],
        test_statics=statics[te],
        test_y=transform_target(state, y_w_raw[te]),
        train_y_raw=y_w_raw[tr],
        test_y_raw=y_w_raw[te],
    )
    return state, prepared


def transform(dataset, state: PreprocessorState):
    """Apply a fitted transform to new rows; returns windowed tensors.

    The result aligns window i with source row ``i + window_len - 1``.
    The raw (unscaled) target slice is returned when the dataset has
    one, else None.
    """
    schema = input_schema(state)
    expected = schema.feature_names + schema.categorical_names
    columns = list(dataset.feature_names) + sorted(dataset.categoricals)
    if columns != expected:
        raise SchemaError(
            f"columns {columns} do not match the fitted transform's inputs "
            f"{expected}"
        )
    numeric = np.asarray(dataset.features, dtype=np.float64)
    matrix = np.where(np.isnan(numeric), state.fill_values, numeric)
    blocks = [
        one_hot(dataset.categoricals[c], state.vocab[c])
        for c in schema.categorical_names
    ]
    if blocks:
        matrix = np.hstack([matrix, *blocks])
    matrix -= state.feat_mean
    matrix /= state.feat_std
    return make_windows(matrix, dataset.target, state.window_len)
