"""The four regression measures against hand arithmetic."""

import json

import numpy as np
import pytest

from ropnet.errors import DimensionError, InsufficientDataError, UndefinedMetricError
from ropnet.metrics import MAPE_ZERO_TOLERANCE, compute_metrics

from oracles import metrics_loop

TWO_POINT = (np.array([100.0, 200.0]), np.array([99.0, 202.0]))
TEN_POINT = (
    np.array([52.0, 61.5, 48.0, 75.25, 90.0, 33.5, 120.0, 87.0, 64.0, 41.75]),
    np.array([50.0, 63.0, 45.5, 80.0, 88.25, 30.0, 118.5, 92.0, 60.0, 44.0]),
)


class TestFixedVectors:
    def test_two_point_hand_values(self):
        """MAE=1.5, RMSE=sqrt(5/2), MAPE=1%, computed by hand."""
        report = compute_metrics(*TWO_POINT)
        assert abs(report.mae - 1.5) < 1e-12
        assert abs(report.rmse - np.sqrt(2.5)) < 1e-12
        assert abs(report.rmse - 1.58113883) < 1e-8
        assert abs(report.mape_pct - 1.0) < 1e-12
        assert abs(report.r2 - (1.0 - 5.0 / 5000.0)) < 1e-12
        assert report.n == 2
        assert report.mape_excluded == 0

    @pytest.mark.parametrize("vectors", [TWO_POINT, TEN_POINT])
    def test_matches_loop_oracle(self, vectors):
        actual, predicted = vectors
        report = compute_metrics(actual, predicted)
        want = metrics_loop(actual, predicted)
        assert abs(report.r2 - want["r2"]) < 1e-12
        assert abs(report.mae - want["mae"]) < 1e-12
        assert abs(report.rmse - want["rmse"]) < 1e-12
        assert abs(report.mape_pct - want["mape_pct"]) < 1e-12

    def test_perfect_fit(self):
        actual = TEN_POINT[0]
        report = compute_metrics(actual, actual.copy())
        assert report.r2 == 1.0
        assert report.mae == 0.0
        assert report.rmse == 0.0
        assert report.mape_pct == 0.0

    def test_mean_prediction_scores_zero_r2(self):
        actual = TEN_POINT[0]
        report = compute_metrics(actual, np.full_like(actual, actual.mean()))
        assert abs(report.r2) < 1e-12


class TestProperties:
    def test_rmse_dominates_mae_on_random_vectors(self):
        """Power-mean inequality over 1,000 seeded pairs."""
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            actual = rng.normal(size=n) * 10.0 + 50.0
            predicted = actual + rng.normal(size=n) * 3.0
            report = compute_metrics(actual, predicted)
            assert report.rmse >= report.mae >= 0.0
            assert report.r2 <= 1.0

    def test_scale_equivariance(self):
        """a*y+b scales MAE/RMSE by |a|, keeps R2; MAPE only when b=0."""
        actual, predicted = TEN_POINT
        base = compute_metrics(actual, predicted)
        for a, b in ((2.5, 0.0), (-3.0, 0.0), (1.5, 7.0)):
            scaled = compute_metrics(a * actual + b, a * predicted + b)
            assert abs(scaled.mae - abs(a) * base.mae) < 1e-9
            assert abs(scaled.rmse - abs(a) * base.rmse) < 1e-9
            assert abs(scaled.r2 - base.r2) < 1e-12
            if b == 0.0:
                assert abs(scaled.mape_pct - base.mape_pct) < 1e-9
            else:
                assert abs(scaled.mape_pct - base.mape_pct) > 1e-6


class TestMapeExclusion:
    def test_near_zero_actuals_excluded_and_counted(self):
        actual = np.array([100.0, 0.0, 1e-9, 50.0])
        predicted = np.array([99.0, 1.0, 1.0, 51.0])
        report = compute_metrics(actual, predicted)
        assert report.mape_excluded == 2
        want = 100.0 * (1.0 / 100.0 + 1.0 / 50.0) / 2.0
        assert abs(report.mape_pct - want) < 1e-12

    def test_all_rows_excluded_is_undefined(self):
        actual = np.array([1e-10, -1e-10])
        with pytest.raises(UndefinedMetricError, match="MAPE"):
            compute_metrics(actual, np.array([1.0, 2.0]))

    def test_threshold_is_documented_constant(self):
        assert MAPE_ZERO_TOLERANCE == 1e-8


class TestErrors:
    def test_constant_actuals_undefined_r2(self):
        with pytest.raises(UndefinedMetricError, match="R\\^2"):
            compute_metrics(np.array([5.0, 5.0, 5.0]), np.array([4.0, 5.0, 6.0]))

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            compute_metrics(np.array([1.0]), np.array([1.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            compute_metrics(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        actual, predicted = TEN_POINT[0].copy(), TEN_POINT[1].copy()
        actual[3] = bad
        with pytest.raises(UndefinedMetricError, match="actuals"):
            compute_metrics(actual, TEN_POINT[1])
        predicted[0] = bad
        with pytest.raises(UndefinedMetricError, match="predictions"):
            compute_metrics(TEN_POINT[0], predicted)

    def test_overflowing_measures_rejected(self):
        """Finite inputs whose squared errors overflow float64 name the
        measures they break instead of reporting inf or NaN."""
        actual = TEN_POINT[0]
        predicted = TEN_POINT[1].copy()
        predicted[2], predicted[7] = 1e300, -1e300
        with pytest.raises(UndefinedMetricError, match=r"\['r2', 'rmse'\] overflow"):
            compute_metrics(actual, predicted)
        predicted[2], predicted[7] = 1.7e308, -1.7e308  # the sum of |error| too
        with pytest.raises(UndefinedMetricError, match=r"\['r2', 'mae', 'rmse'\]"):
            compute_metrics(actual, predicted)

    def test_column_vectors_accepted(self):
        report = compute_metrics(TWO_POINT[0][:, None], TWO_POINT[1][:, None])
        assert report.n == 2


class TestSerialization:
    def test_json_keys(self):
        report = compute_metrics(*TEN_POINT)
        payload = json.loads(report.to_json())
        assert set(payload) == {"r2", "mae", "rmse", "mape_pct", "n", "mape_excluded"}
        assert payload["n"] == 10

    def test_json_refuses_nan(self):
        report = compute_metrics(*TEN_POINT)
        report.r2 = float("nan")
        with pytest.raises(ValueError):
            report.to_json()

    def test_json_stable(self):
        report = compute_metrics(*TEN_POINT)
        assert report.to_json() == report.to_json()
        assert report.to_json().endswith("\n")
