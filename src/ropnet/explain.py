"""Model-agnostic attribution: permutation importance, local surrogate.

Permutation importance scores a feature by how much the model's MSE
rises when that feature's values are shuffled across samples (in both
the window and the static vector, so the feature is destroyed
everywhere it enters).  The local surrogate fits a weighted linear
model to the predictor's behavior in a Gaussian neighborhood of one
anchor point, giving per-feature slopes that are exact for a linear
predictor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateNeighborhoodError,
    DimensionError,
    InsufficientDataError,
    RangeError,
    UndefinedMetricError,
    check_count,
    check_real,
)
from .tensor import SeededRng, on_both_cores
from .train import evaluate_mse

_CONDITION_LIMIT = 1e10
# Shuffles per feature; an importance is the mean rise over them.
REPEATS = 5


@dataclass
class ImportanceReport:
    feature_names: list[str]
    importances: list[float]
    base_mse: float

    def ranking(self) -> list[int]:
        """Feature indices from most to least important."""
        return sorted(
            range(len(self.importances)),
            key=lambda i: self.importances[i],
            reverse=True,
        )

    def to_csv(self) -> str:
        rank = {feat: pos + 1 for pos, feat in enumerate(self.ranking())}
        rows = (
            f"{name},{self.importances[i]!r},{rank[i]}\n"
            for i, name in enumerate(self.feature_names)
        )
        return "feature,importance,rank\n" + "".join(rows)

    def to_json(self) -> str:
        importances = dict(zip(self.feature_names, self.importances))
        payload = {"base_mse": self.base_mse, "repeats": REPEATS, "importances": importances}
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def permutation_importance(
    model,
    windows,
    statics,
    y,
    feature_names,
    rng: SeededRng,
) -> ImportanceReport:
    """Mean MSE increase per feature over ``REPEATS`` shuffles.

    Every permutation is drawn up front and applied to its own fresh
    copy of the inputs, so ``on_both_cores`` can score the shuffles two
    at a time and still give the bits of a serial loop.  Each shuffle's
    predict then finds the runner taken and runs its slices on its
    worker.  Scores can be slightly negative for irrelevant features
    (shuffle noise); they are reported as computed.  An MSE or
    importance that overflows float64 is an error.
    """
    n = windows.shape[0]
    if n < 2:
        raise InsufficientDataError(
            "permutation importance needs at least 2 samples"
        )
    if len(feature_names) != windows.shape[2]:
        raise DimensionError(
            f"{len(feature_names)} names for {windows.shape[2]} features"
        )
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size != n:
        raise DimensionError(f"{n} windows against {y.size} targets")

    base_mse = evaluate_mse(model, windows, statics, y)
    if not math.isfinite(base_mse):
        raise UndefinedMetricError(f"the base MSE overflows float64 ({base_mse})")
    shuffles = [(f, rng.permutation(n)) for f in range(windows.shape[2]) for _ in range(REPEATS)]

    def shuffled_mse(shuffle) -> float:
        feature, perm = shuffle
        w, s = windows.copy(), statics.copy()
        w[:, :, feature] = windows[perm, :, feature]
        s[:, feature] = statics[perm, feature]
        return evaluate_mse(model, w, s, y)

    mses = on_both_cores(shuffled_mse, shuffles)
    importances = []
    for i in range(0, len(mses), REPEATS):
        rise = 0.0  # plain adds in shuffle order; sum() compensates from Python 3.12
        for shuffled in mses[i : i + REPEATS]:
            rise += shuffled - base_mse
        importances.append(rise / REPEATS)
    bad = [name for name, v in zip(feature_names, importances) if not math.isfinite(v)]
    if bad:
        raise UndefinedMetricError(f"importances of {bad} overflow float64")
    return ImportanceReport(
        feature_names=list(feature_names),
        importances=importances,
        base_mse=base_mse,
    )


@dataclass
class LocalSurrogate:
    """Weighted least-squares linear fit around one anchor input."""

    anchor: np.ndarray
    radius: float
    weights: np.ndarray
    intercept: float
    fit_r2: float
    n_samples: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (x - self.anchor) @ self.weights + self.intercept


def local_surrogate(
    predict_fn,
    anchor: np.ndarray,
    rng: SeededRng,
    radius: float = 0.5,
    n_samples: int = 200,
) -> LocalSurrogate:
    """Explain one prediction by a linear fit in a local neighborhood.

    Samples are drawn from N(anchor, radius^2 I) and weighted by
    exp(-d^2 / radius^2).  The fit solves the weighted normal
    equations; a condition number beyond 1e10 (e.g. a vanishing
    radius) aborts rather than returning garbage slopes, as does an
    anchor or a prediction that is not finite.
    """
    anchor = np.asarray(anchor, dtype=np.float64).reshape(-1)
    if not np.isfinite(anchor).all():
        raise RangeError("the anchor must be finite")
    # radii whose square and whose draws' squares are normal, finite floats;
    # the sample bound keeps each n_samples-row array small
    check_real("radius", radius, 1e-100, 1e100, error=RangeError)
    check_count("surrogate n_samples", n_samples, 50, 100_000, error=RangeError)
    d = anchor.size
    offsets = radius * rng.normal((n_samples, d))
    X = anchor + offsets
    y = np.asarray(predict_fn(X), dtype=np.float64).reshape(-1)
    if y.size != n_samples:
        raise DimensionError(
            f"predict_fn returned {y.size} values for {n_samples} inputs"
        )
    if not np.isfinite(y).all():
        raise UndefinedMetricError("predict_fn returned a value that is not finite")
    w = np.exp(-(offsets * offsets).sum(axis=1) / radius**2)

    design = np.column_stack([offsets, np.ones(n_samples)])
    wd = design * w[:, None]
    gram = design.T @ wd
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise DegenerateNeighborhoodError(
            f"neighborhood is degenerate (condition number {cond:.3g}); "
            f"increase the radius"
        )
    beta = np.linalg.solve(gram, wd.T @ y)
    fitted = design @ beta
    resid = y - fitted
    y_bar = float((w * y).sum() / w.sum())
    ss_res = float((w * resid * resid).sum())
    ss_tot = float((w * (y - y_bar) ** 2).sum())
    fit_r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LocalSurrogate(
        anchor=anchor,
        radius=float(radius),
        weights=beta[:d],
        intercept=float(beta[d]),
        fit_r2=fit_r2,
        n_samples=n_samples,
    )
