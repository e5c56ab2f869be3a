"""Regression quality measures on original-unit values.

All four measures take actuals first, predictions second:

  R^2   = 1 - sum((y - p)^2) / sum((y - mean(y))^2)
  MAE   = mean(|y - p|)
  RMSE  = sqrt(mean((y - p)^2))
  MAPE% = 100 * mean(|(y - p) / y|) over rows with |y| >= tolerance

Rows excluded from MAPE are counted and reported, never hidden.
Non-finite actuals or predictions, and measures that overflow float64,
are rejected rather than turned into inf or NaN measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError, InsufficientDataError, UndefinedMetricError

MAPE_ZERO_TOLERANCE = 1e-8


@dataclass
class MetricsReport:
    r2: float
    mae: float
    rmse: float
    mape_pct: float
    n: int
    mape_excluded: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False) + "\n"


# an overflow leaves an inf or NaN measure, which is rejected at the end
@np.errstate(over="ignore")
def compute_metrics(actual, predicted) -> MetricsReport:
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    if actual.shape != predicted.shape:
        raise DimensionError(
            f"actuals {actual.shape} and predictions {predicted.shape} differ"
        )
    for label, values in (("actuals", actual), ("predictions", predicted)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise UndefinedMetricError(
                f"{label} hold {bad.size} non-finite values, the first at "
                f"index {bad[0]}"
            )
    n = actual.size
    if n < 2:
        raise InsufficientDataError(
            f"metrics need at least 2 samples, got {n}"
        )
    err = actual - predicted
    ss_res = float(err @ err)
    centered = actual - actual.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        raise UndefinedMetricError(
            "R^2 is undefined when all actual values are equal"
        )
    keep = np.abs(actual) >= MAPE_ZERO_TOLERANCE
    excluded = int(n - keep.sum())
    if excluded == n:
        raise UndefinedMetricError(
            "MAPE is undefined: every actual value is within the zero tolerance"
        )
    mape = 100.0 * float(np.mean(np.abs(err[keep] / actual[keep])))
    report = MetricsReport(
        r2=1.0 - ss_res / ss_tot,
        mae=float(np.mean(np.abs(err))),
        rmse=float(np.sqrt(np.mean(err * err))),
        mape_pct=mape,
        n=n,
        mape_excluded=excluded,
    )
    overflowed = [name for name, value in asdict(report).items() if not math.isfinite(value)]
    if overflowed:
        raise UndefinedMetricError(
            f"metrics {overflowed} overflow float64 on these values"
        )
    return report
