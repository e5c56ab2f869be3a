"""Permutation importance and the local linear surrogate."""

import json
import os
import threading
import time

import numpy as np
import pytest

from ropnet.errors import (
    DegenerateNeighborhoodError,
    DimensionError,
    InsufficientDataError,
    RangeError,
    UndefinedMetricError,
)
from ropnet.explain import (
    REPEATS,
    ImportanceReport,
    local_surrogate,
    permutation_importance,
)
from ropnet.models import ADVANCED_HYBRID, ModelSpec, build_model
from ropnet.tensor import SeededRng, openblas_threads

from test_models import needs_workers


class _LinearStatic:
    """Stand-in predictor: a known linear map of the static vector."""

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=np.float64)

    def predict(self, windows, statics):
        return statics @ self.coef


def make_problem(seed, n=64, n_feat=4, coef=(0.0, 3.0, 0.0, 0.0)):
    """y = 3*x1 exactly; the model knows the true map."""
    rng = SeededRng(seed)
    statics = rng.normal((n, n_feat))
    windows = statics[:, None, :].copy()
    model = _LinearStatic(coef)
    y = model.predict(windows, statics)
    return model, windows, statics, y


def x1_wins(seeds, n_feat=4):
    """How many seeds rank feature index 1 as most important."""
    wins = 0
    for seed in seeds:
        model, windows, statics, y = make_problem(seed, n_feat=n_feat)
        names = [f"x{i}" for i in range(n_feat)]
        report = permutation_importance(
            model, windows, statics, y, names, SeededRng(seed + 100)
        )
        if report.ranking()[0] == 1:
            wins += 1
    return wins


def surrogate_recovery_error(seed, n_feat=5):
    """Worst weight error when explaining a known linear predictor."""
    rng = SeededRng(seed)
    w = rng.normal(n_feat)
    b = float(rng.normal(1)[0])
    anchor = rng.normal(n_feat)
    surrogate = local_surrogate(lambda X: X @ w + b, anchor, SeededRng(seed + 50))
    return float(np.max(np.abs(surrogate.weights - w)))


class TestPermutationImportance:
    def test_known_driver_ranks_first_every_seed(self):
        assert x1_wins(seeds=(1, 2, 3, 4, 5)) == 5

    def test_irrelevant_features_score_zero(self):
        """The model ignores x0/x2/x3, so shuffling them changes nothing."""
        model, windows, statics, y = make_problem(seed=0)
        report = permutation_importance(
            model, windows, statics, y, list("abcd"), SeededRng(9)
        )
        assert report.base_mse == 0.0
        assert report.importances[0] == 0.0
        assert report.importances[2] == 0.0
        assert report.importances[3] == 0.0
        assert report.importances[1] > 1.0

    def test_permutation_destroys_feature_in_window_too(self):
        """A model reading the window (not the static row) must still
        see the feature shuffled."""

        class _WindowReader:
            def predict(self, windows, statics):
                return 2.0 * windows[:, 0, 1]

        rng = SeededRng(4)
        statics = rng.normal((32, 3))
        windows = statics[:, None, :].copy()
        model = _WindowReader()
        y = model.predict(windows, statics)
        report = permutation_importance(
            model, windows, statics, y, list("abc"), SeededRng(5)
        )
        assert report.ranking()[0] == 1
        assert report.importances[1] > 0.0

    def test_sample_floor(self):
        model, windows, statics, y = make_problem(seed=0, n=1)
        with pytest.raises(InsufficientDataError):
            permutation_importance(
                model, windows, statics, y, list("abcd"), SeededRng(0)
            )

    def test_name_count_checked(self):
        model, windows, statics, y = make_problem(seed=0)
        with pytest.raises(DimensionError):
            permutation_importance(
                model, windows, statics, y, list("abc"), SeededRng(0)
            )

    def test_targets_hold_one_value_per_window(self):
        """A column of targets scores as the flat vector does; a target
        count other than one per window raises instead of broadcasting."""
        model, windows, statics, y = make_problem(seed=8, n=20)
        want = permutation_importance(
            model, windows, statics, y, list("abcd"), SeededRng(3)
        )
        got = permutation_importance(
            model, windows, statics, y[:, None], list("abcd"), SeededRng(3)
        )
        assert got == want
        for bad in (y[:1], y[:5]):
            with pytest.raises(DimensionError, match="targets"):
                permutation_importance(
                    model, windows, statics, bad, list("abcd"), SeededRng(3)
                )

    def test_overflowing_base_mse_rejected(self):
        model, windows, statics, y = make_problem(seed=2, n=20)
        huge = y.copy()
        huge[4] = 1e300
        with pytest.raises(UndefinedMetricError, match="base MSE"):
            permutation_importance(
                model, windows, statics, huge, list("abcd"), SeededRng(3)
            )

    def test_overflowing_importance_rejected(self):
        """Exact until feature b is shuffled, when the squared errors
        overflow; the error names b instead of reporting inf."""
        _, windows, statics, y = make_problem(seed=2, n=20)

        class Fragile:
            def predict(self, w, s):
                return np.where(s[:, 1] == statics[:, 1], y, 1e300)

        with pytest.raises(UndefinedMetricError, match=r"\['b'\] overflow"):
            permutation_importance(
                Fragile(), windows, statics, y, list("abcd"), SeededRng(3)
            )

    def test_deterministic_given_rng_seed(self):
        model, windows, statics, y = make_problem(seed=6)
        reports = [
            permutation_importance(
                model, windows, statics, y, list("abcd"), SeededRng(42)
            )
            for _ in range(2)
        ]
        assert reports[0].importances == reports[1].importances

    def test_inputs_left_unchanged(self):
        model, windows, statics, y = make_problem(seed=6)
        before = windows.copy(), statics.copy()
        permutation_importance(model, windows, statics, y, list("abcd"), SeededRng(1))
        np.testing.assert_array_equal(windows, before[0])
        np.testing.assert_array_equal(statics, before[1])

    def test_matches_shuffling_fresh_copies(self):
        """The same seeded permutations, each applied to its own fresh
        copy of the inputs, give exactly the same importances."""
        rng = SeededRng(7)
        statics = rng.normal((48, 3))
        windows = rng.normal((48, 2, 3))
        coef = np.array([0.5, -2.0, 1.0])

        class _Mixed:
            def predict(self, windows, statics):
                return statics @ coef + windows[:, 0, :] @ coef**2

        model = _Mixed()
        y = model.predict(windows, statics) + rng.normal(48)
        report = permutation_importance(
            model, windows, statics, y, list("abc"), SeededRng(11)
        )

        def mse(w, s):
            return float(np.mean((model.predict(w, s) - y) ** 2))

        perms = SeededRng(11)
        base = mse(windows, statics)
        expected = []
        for feature in range(3):
            rise = 0.0
            for _ in range(REPEATS):
                perm = perms.permutation(48)
                w, s = windows.copy(), statics.copy()
                w[:, :, feature] = windows[perm][:, :, feature]
                s[:, feature] = statics[perm, feature]
                rise += mse(w, s) - base
            expected.append(rise / REPEATS)
        assert report.base_mse == base
        assert report.importances == expected


def model_problem(window_len, n):
    """A real model, inputs, and noisy targets for it."""
    spec = ModelSpec(ADVANCED_HYBRID, input_features=8, window_len=window_len)
    model = build_model(spec, SeededRng(31))
    rng = SeededRng(32)
    windows = rng.normal((n, window_len, 8))
    statics = rng.normal((n, 8))
    y = model.predict(windows, statics) + rng.normal(n)
    return model, windows, statics, y


def importance(model, windows, statics, y, seed=33):
    names = [f"x{i}" for i in range(windows.shape[2])]
    return permutation_importance(model, windows, statics, y, names, SeededRng(seed))


def one_cpu(monkeypatch):
    """Leave the runner one usable CPU, so it runs every item serially."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def record_predicts(model, monkeypatch, during=None):
    """Wrap ``model.predict``; returns the list of threads that ran it.

    ``during(statics)`` runs inside each call, before the prediction."""
    predict = model.predict
    threads = []

    def traced(w, s):
        threads.append(threading.get_ident())
        if during is not None:
            during(s)
        return predict(w, s)

    monkeypatch.setattr(model, "predict", traced)
    return threads


@needs_workers
class TestImportanceOnBothCores:
    @pytest.mark.parametrize("window_len", [4, 16])
    def test_two_workers_give_the_serial_bits(self, window_len, monkeypatch):
        """200 windows: each shuffle's predict has two slices, which run
        serially inside a worker and on two workers when forced serial."""
        problem = model_problem(window_len, n=200)
        workers = importance(*problem)
        with monkeypatch.context() as patch:
            one_cpu(patch)
            serial = importance(*problem)
        assert workers.base_mse == serial.base_mse
        assert workers.importances == serial.importances

    def test_shuffles_run_on_two_workers_with_one_blas_thread(self, monkeypatch):
        model, windows, statics, y = model_problem(4, n=64)
        get, _, _ = openblas_threads()
        blas_counts = []

        def slowly(s):
            blas_counts.append(get())
            time.sleep(0.005)

        threads = record_predicts(model, monkeypatch, slowly)
        before = get()
        importance(model, windows, statics, y)
        caller = threading.get_ident()
        assert len(threads) == 1 + 8 * REPEATS
        # the base MSE is scored on the calling thread, the shuffles are not
        assert threads[0] == caller and blas_counts[0] == before
        assert caller not in threads[1:] and len(set(threads[1:])) == 2
        assert blas_counts[1:] == [1] * 8 * REPEATS
        assert get() == before

    def test_a_failing_shuffle_waits_for_the_rest_and_restores_blas(self, monkeypatch):
        """The first shuffle fails at once; the error reaches the caller
        only after every other shuffle has finished, with OpenBLAS's
        thread count back where it was."""
        model, windows, statics, y = model_problem(4, n=64)
        first = SeededRng(33).permutation(64)
        get, put, _ = openblas_threads()
        finished = []

        def slow_or_failing(s):
            if np.array_equal(s[:, 0], statics[first, 0]):
                raise RuntimeError("shuffle failed")
            time.sleep(0.01)
            finished.append(s)

        record_predicts(model, monkeypatch, slow_or_failing)
        original = get()
        put(2)
        try:
            with pytest.raises(RuntimeError, match="shuffle failed"):
                importance(model, windows, statics, y)
            assert get() == 2
        finally:
            put(original)
        # the base MSE and the 39 other shuffles
        assert len(finished) == 8 * REPEATS

    def test_predicts_inside_the_workers_cannot_deadlock(self, monkeypatch):
        """300 windows: each shuffle's predict cuts three slices from
        inside a worker, which must not wait on the runner's lock that
        its own caller holds."""
        problem = model_problem(4, n=300)
        with monkeypatch.context() as patch:
            one_cpu(patch)
            serial = importance(*problem)
        results = []
        worker = threading.Thread(target=lambda: results.append(importance(*problem)), daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive(), "permutation importance deadlocked"
        assert results == [serial]


class TestImportanceReport:
    def _report(self):
        return ImportanceReport(
            feature_names=["a", "b", "c"],
            importances=[0.5, 2.0, -0.01],
            base_mse=1.25,
        )

    def test_ranking_descends(self):
        assert self._report().ranking() == [1, 0, 2]

    def test_csv_layout(self):
        lines = self._report().to_csv().splitlines()
        assert lines[0] == "feature,importance,rank"
        assert lines[1] == "a,0.5,2"
        assert lines[2] == "b,2.0,1"
        assert lines[3] == "c,-0.01,3"

    def test_json_payload(self):
        payload = json.loads(self._report().to_json())
        assert payload["base_mse"] == 1.25
        assert payload["repeats"] == REPEATS
        assert payload["importances"] == {"a": 0.5, "b": 2.0, "c": -0.01}

    def test_json_refuses_nan(self):
        report = self._report()
        report.importances[1] = float("nan")
        with pytest.raises(ValueError):
            report.to_json()


class TestLocalSurrogate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_linear_weights(self, seed):
        assert surrogate_recovery_error(seed) < 1e-6

    def test_linear_fit_is_perfect(self):
        rng = SeededRng(3)
        w = rng.normal(4)
        surrogate = local_surrogate(lambda X: X @ w + 2.0, rng.normal(4), SeededRng(8))
        assert surrogate.fit_r2 > 1.0 - 1e-9
        probe = SeededRng(12).normal((10, 4))
        np.testing.assert_allclose(surrogate.predict(probe), probe @ w + 2.0, atol=1e-6)

    def test_intercept_is_anchor_prediction(self):
        rng = SeededRng(5)
        w = rng.normal(3)
        anchor = rng.normal(3)
        surrogate = local_surrogate(lambda X: X @ w - 1.5, anchor, SeededRng(6))
        assert abs(surrogate.intercept - (anchor @ w - 1.5)) < 1e-6

    def test_curved_model_fits_imperfectly(self):
        surrogate = local_surrogate(
            lambda X: (X**2).sum(axis=1), np.ones(3), SeededRng(7), radius=0.8
        )
        assert surrogate.fit_r2 < 1.0 - 1e-6
        # near the anchor the gradient of sum(x^2) is 2*anchor
        np.testing.assert_allclose(surrogate.weights, 2.0 * np.ones(3), atol=0.2)

    def test_radius_must_be_positive(self):
        with pytest.raises(RangeError):
            local_surrogate(lambda X: X.sum(axis=1), np.ones(3), SeededRng(0), radius=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_anchor_must_be_finite(self, bad):
        """A non-finite anchor made every weight nan without an error."""
        with pytest.raises(RangeError, match="anchor must be finite"):
            local_surrogate(lambda X: X.sum(axis=1), np.array([1.0, bad, 1.0]), SeededRng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predictions_must_be_finite(self, bad):
        """A predictor that returns nan or inf has no linear fit, as an
        MSE that overflows has no importance."""
        with pytest.raises(UndefinedMetricError, match="not finite"):
            local_surrogate(lambda X: np.where(X[:, 0] > 0, bad, 1.0), np.ones(3), SeededRng(0))

    def test_sample_floor(self):
        with pytest.raises(RangeError):
            local_surrogate(
                lambda X: X.sum(axis=1), np.ones(3), SeededRng(0), n_samples=49
            )

    @pytest.mark.parametrize("n_samples", [100_001, pytest.param(10**400, id="int_past_float")])
    def test_sample_ceiling(self, n_samples):
        """The draws hold n_samples rows; 10**400 reached numpy's array
        size limit (ValueError)."""
        with pytest.raises(RangeError, match="between 50 and 100000"):
            local_surrogate(lambda X: X.sum(axis=1), np.ones(3), SeededRng(0), n_samples=n_samples)
        fit = local_surrogate(lambda X: X.sum(axis=1), np.ones(3), SeededRng(0), n_samples=100_000)
        assert fit.n_samples == 100_000

    def test_vanishing_radius_degenerates(self):
        with pytest.raises(DegenerateNeighborhoodError):
            local_surrogate(
                lambda X: X.sum(axis=1), np.ones(3), SeededRng(0), radius=1e-12
            )

    def test_bad_predict_fn_shape(self):
        with pytest.raises(DimensionError):
            local_surrogate(lambda X: X.sum(), np.ones(3), SeededRng(0))
