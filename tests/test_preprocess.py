"""Pipeline stages: impute, scale, encode, fence, window, and fit."""

from dataclasses import asdict

import numpy as np
import pytest

from ropnet.data import Dataset, SyntheticSpec, generate_synthetic
from ropnet.errors import (
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
)
from ropnet.preprocess import (
    PreprocessorState,
    apply_scaler,
    fit_pipeline,
    fit_standard_scaler,
    invert_scaler,
    inverse_target,
    iqr_outlier_report,
    make_windows,
    one_hot,
    split_train_test,
    transform,
    transform_target,
)


class TestSplit:
    def test_ten_items_gives_eight_two(self):
        split = split_train_test(10)
        assert len(split.train) == 8
        assert len(split.test) == 2

    def test_partition_is_disjoint_and_complete(self):
        split = split_train_test(103)
        merged = np.concatenate([split.train, split.test])
        np.testing.assert_array_equal(np.sort(merged), np.arange(103))

    def test_same_seed_reproducible(self):
        """The split's seed is fixed, so repeated calls agree."""
        a = split_train_test(50)
        b = split_train_test(50)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_published_row_count_split(self):
        """10,672 rows split into 8,538 / 2,134 at 80%."""
        split = split_train_test(10_672)
        assert len(split.train) == 8_538
        assert len(split.test) == 2_134

    def test_too_few_items(self):
        with pytest.raises(InsufficientDataError):
            split_train_test(4)


class TestImpute:
    """Fills come from ``fit_pipeline``: each is the mean of the column's
    observed values in the training rows.  At window length 1, window
    and row indices agree."""

    def test_mean_fill(self):
        dataset = _synthetic()
        dataset.features[::7, 2] = np.nan
        raw = dataset.features.copy()
        state, prep = fit_pipeline(dataset, window_len=1)
        train = raw[prep.split.train, 2]
        gaps = np.isnan(train)
        assert state.fill_values[2] == np.mean(train[~gaps])
        want = (state.fill_values[2] - state.feat_mean[2]) / state.feat_std[2]
        np.testing.assert_array_equal(prep.train_statics[gaps, 2], want)

    def test_no_missing_is_identity(self):
        dataset = _synthetic()
        dataset.features[::7, 2] = np.nan
        raw = dataset.features.copy()
        state, _ = fit_pipeline(dataset, window_len=1)
        _, statics, _ = transform(dataset, state)
        want = (raw[:, 5] - state.feat_mean[5]) / state.feat_std[5]
        np.testing.assert_array_equal(statics[:, 5], want)

    def test_single_present_value(self):
        """One observed training value fills every gap with itself, which
        leaves the column constant on the training rows."""
        dataset = _synthetic()
        train = split_train_test(dataset.n_rows).train
        dataset.features[:, 3] = np.nan
        dataset.features[train[4], 3] = 5.0
        name = dataset.feature_names[3]
        with pytest.raises(ConstantColumnError, match=name):
            fit_pipeline(dataset, window_len=1)

    def test_all_missing_in_fit_rows(self):
        dataset = _synthetic()
        dataset.features[split_train_test(dataset.n_rows).train, 4] = np.nan
        name = dataset.feature_names[4]
        with pytest.raises(UnimputableColumnError, match=f"{name} has no observed"):
            fit_pipeline(dataset, window_len=1)


class TestScaler:
    def test_three_point_example(self):
        """[1,2,3]: mu=2, sigma=sqrt(2/3), ends at +-1.22474487."""
        rows = np.array([[1.0], [2.0], [3.0]])
        mean, std = fit_standard_scaler(rows)
        assert mean[0] == 2.0
        np.testing.assert_allclose(std[0], np.sqrt(2.0 / 3.0), atol=1e-15)
        scaled = apply_scaler(rows, mean, std)
        np.testing.assert_allclose(
            scaled[:, 0], [-1.22474487, 0.0, 1.22474487], atol=1e-8
        )

    def test_population_not_sample_std(self):
        _, std = fit_standard_scaler(np.array([[1.0], [2.0], [3.0]]))
        assert abs(std[0] - 1.0) > 1e-3  # sample std would be exactly 1

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(50, 4)) * 7.0 + 3.0
        mean, std = fit_standard_scaler(rows)
        back = invert_scaler(apply_scaler(rows, mean, std), mean, std)
        np.testing.assert_allclose(back, rows, atol=1e-9)

    def test_overflowing_column_named_in_error(self):
        """A finite 1e300 cell overflows the variance; the column is named
        instead of a scale of inf reaching a checkpoint."""
        rows = np.column_stack([np.arange(5.0), np.arange(5.0)])
        rows[2, 1] = 1e300
        with pytest.raises(DataError, match="Hook Load overflows float64"):
            fit_standard_scaler(rows, ["Bit Depth", "Hook Load"])
        rows[2, 1] = -1.7e308
        rows[3, 1] = -1.7e308  # the mean overflows as well
        with pytest.raises(DataError, match="column 1 overflows"):
            fit_standard_scaler(rows)

    def test_overflowing_cell_stops_the_fit(self):
        dataset = _synthetic()
        row = split_train_test(dataset.n_rows - 3).train[0] + 3  # a training row
        dataset.features[row, 0] = 1e300
        with pytest.raises(DataError, match="WOB overflows"):
            fit_pipeline(dataset, window_len=4)

    def test_constant_column_named_in_error(self):
        rows = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(ConstantColumnError, match="Hook Load"):
            fit_standard_scaler(rows, ["Bit Depth", "Hook Load"])


class TestIqrFences:
    def test_documented_example(self):
        """[1,2,3,4,100]: fences [-1, 7], only 100 flagged."""
        report = iqr_outlier_report(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert report.lower_fence == -1.0
        assert report.upper_fence == 7.0
        np.testing.assert_array_equal(report.indices, [4])
        assert report.count == 1

    def test_constant_column_zero_flags(self):
        report = iqr_outlier_report(np.full(6, 3.0))
        assert report.count == 0

    def test_symmetric_boundary_values_not_flagged(self):
        """[-1,0,0,1]: fences land exactly on the extremes."""
        report = iqr_outlier_report(np.array([-1.0, 0.0, 0.0, 1.0]))
        assert report.count == 0

    def test_short_column_rejected(self):
        with pytest.raises(InsufficientDataError):
            iqr_outlier_report(np.array([1.0, 2.0, 3.0]))

    def test_input_not_mutated(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        copy = values.copy()
        iqr_outlier_report(values)
        np.testing.assert_array_equal(values, copy)


class TestOneHot:
    def test_basic_encoding(self):
        block = one_hot(["B"], ["A", "B", "C"])
        np.testing.assert_array_equal(block, [[0.0, 1.0, 0.0]])

    def test_single_token_vocab(self):
        np.testing.assert_array_equal(one_hot(["A"], ["A"]), [[1.0]])

    def test_unseen_token_zero_row_with_warning(self):
        with pytest.warns(UserWarning, match="D"):
            block = one_hot(["A", "D"], ["A", "B", "C"])
        np.testing.assert_array_equal(block, [[1, 0, 0], [0, 0, 0]])

    def test_empty_vocab_rejected(self):
        with pytest.raises(EncodingError):
            one_hot(["A"], [])


class TestMakeWindows:
    def test_window_len_one_is_rowwise(self):
        feats = np.arange(12.0).reshape(6, 2)
        y = np.arange(6.0)
        windows, statics, targets = make_windows(feats, y, 1)
        assert windows.shape == (6, 1, 2)
        np.testing.assert_array_equal(windows[:, 0, :], feats)
        np.testing.assert_array_equal(statics, feats)
        np.testing.assert_array_equal(targets, y)

    def test_five_rows_window_three(self):
        feats = np.arange(10.0).reshape(5, 2)
        y = np.arange(5.0)
        windows, statics, targets = make_windows(feats, y, 3)
        assert windows.shape == (3, 3, 2)
        for m in range(3):
            np.testing.assert_array_equal(windows[m], feats[m : m + 3])
        np.testing.assert_array_equal(statics, feats[2:])
        np.testing.assert_array_equal(targets, [2.0, 3.0, 4.0])

    def test_statics_are_final_rows(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(9, 3))
        windows, statics, _ = make_windows(feats, None, 4)
        np.testing.assert_array_equal(statics, windows[:, -1, :])

    def test_window_longer_than_data(self):
        with pytest.raises(WindowError):
            make_windows(np.zeros((3, 2)), None, 4)

    def test_nonpositive_window(self):
        with pytest.raises(RangeError):
            make_windows(np.zeros((3, 2)), None, 0)

    @pytest.mark.parametrize("window_len", [1, 3, 16])
    def test_matches_stacked_slices(self, window_len):
        feats = np.random.default_rng(window_len).normal(size=(40, 5))
        y = np.arange(40.0)
        windows, statics, targets = make_windows(feats, y, window_len)
        m = 40 - window_len + 1
        reference = np.stack([feats[i : i + window_len] for i in range(m)])
        np.testing.assert_array_equal(windows, reference)
        np.testing.assert_array_equal(statics, feats[window_len - 1 :])
        np.testing.assert_array_equal(targets, y[window_len - 1 :])

    def test_statics_and_targets_are_views(self):
        feats = np.arange(24.0).reshape(8, 3)
        y = np.arange(8.0)
        windows, statics, targets = make_windows(feats, y, 4)
        assert np.shares_memory(statics, feats)
        assert np.shares_memory(targets, y)
        assert np.shares_memory(windows, feats)
        assert not windows.flags.writeable


def _synthetic(n_rows=200, seed=3):
    dataset, _ = generate_synthetic(SyntheticSpec(n_rows=n_rows, seed=seed))
    return dataset


def _gappy_formation_well():
    """200 rows with scattered missing feature cells and a Formation
    column whose three tokens all occur in training rows."""
    dataset = _synthetic()
    dataset.features[np.arange(7, 200, 13), np.arange(7, 200, 13) % 8] = np.nan
    dataset.categoricals = {
        "Formation": [("shale", "sand", "lime")[i % 3] for i in range(200)]
    }
    return dataset


class TestFitPipeline:
    def test_train_columns_centered(self):
        """Post-scaling train-row means vanish; test means do not."""
        state, prep = fit_pipeline(_synthetic(), window_len=4)
        train_rows = prep.train_statics
        assert np.max(np.abs(train_rows.mean(axis=0))) < 1e-9
        assert np.max(np.abs(train_rows.std(axis=0) - 1.0)) < 1e-9
        assert np.max(np.abs(prep.test_statics.mean(axis=0))) > 1e-9

    def test_target_scaler_round_trip(self):
        state, prep = fit_pipeline(_synthetic(), window_len=2)
        back = inverse_target(state, prep.train_y)
        np.testing.assert_allclose(back, prep.train_y_raw, atol=1e-9)
        y = np.array([55.0, 110.0, 220.0])
        np.testing.assert_allclose(
            inverse_target(state, transform_target(state, y)), y, atol=1e-9
        )

    def test_split_sizes_and_counts(self):
        n, L = 200, 4
        state, prep = fit_pipeline(_synthetic(n_rows=n), window_len=L)
        m = n - L + 1
        assert len(prep.train_windows) == round(0.8 * m)
        assert len(prep.test_windows) == m - round(0.8 * m)
        assert prep.train_windows.shape[1:] == (L, 8)

    def test_transform_matches_fit_windows(self):
        """Replaying the fitted state reproduces the fit-time tensors."""
        self._check_transform_matches_fit(_synthetic())

    def test_transform_matches_fit_windows_with_gaps_and_categories(self):
        self._check_transform_matches_fit(_gappy_formation_well())

    def _check_transform_matches_fit(self, dataset):
        state, prep = fit_pipeline(dataset, window_len=4)
        windows, statics, y_raw = transform(dataset, state)
        tr, te = prep.split.train, prep.split.test
        for got, want in [
            (windows[tr], prep.train_windows),
            (windows[te], prep.test_windows),
            (statics[tr], prep.train_statics),
            (statics[te], prep.test_statics),
            (y_raw[tr], prep.train_y_raw),
            (y_raw[te], prep.test_y_raw),
            (transform_target(state, y_raw[tr]), prep.train_y),
            (transform_target(state, y_raw[te]), prep.test_y),
        ]:
            np.testing.assert_array_equal(got, want)
        assert np.all(np.isfinite(windows))

    def test_state_ignores_rows_outside_training(self):
        """Fills, vocabularies and moments see only training rows, so
        rewriting every other row leaves the fitted state unchanged."""
        dataset = _gappy_formation_well()
        state, prep = fit_pipeline(dataset, window_len=4)
        others = np.setdiff1d(np.arange(dataset.n_rows), prep.split.train + 3)
        dataset.features[others] = dataset.features[others] * 10.0 + 7.0
        dataset.features[others[::5], 1] = np.nan
        for i in others:
            dataset.categoricals["Formation"][i] = "granite"
        with pytest.warns(UserWarning, match="granite"):
            again, _ = fit_pipeline(dataset, window_len=4)
        assert again == state

    def test_missing_values_filled_from_train_stats(self):
        dataset = _synthetic()
        dataset.features[5, 2] = np.nan
        dataset.features[50, 0] = np.nan
        state, prep = fit_pipeline(dataset, window_len=1)
        assert np.all(np.isfinite(prep.train_windows))
        assert np.all(np.isfinite(prep.test_windows))
        assert len(state.fill_values) == 8

    def test_target_missing_rejected(self):
        dataset = _synthetic()
        dataset.target[3] = np.nan
        with pytest.raises(DataError):
            fit_pipeline(dataset, window_len=1)

    def test_unlabelled_dataset_rejected(self):
        dataset = _synthetic()
        dataset.target = None
        with pytest.raises(DataError):
            fit_pipeline(dataset, window_len=1)

    def test_window_longer_than_table(self):
        with pytest.raises(WindowError):
            fit_pipeline(_synthetic(n_rows=100), window_len=101)

    def test_state_dict_round_trip(self):
        state, _ = fit_pipeline(_synthetic(), window_len=3)
        again = PreprocessorState.from_dict(asdict(state))
        assert again == state

    def test_empty_derived_list_from_older_headers_is_dropped(self):
        state, _ = fit_pipeline(_synthetic(), window_len=3)
        older = dict(asdict(state), derived=[])
        assert PreprocessorState.from_dict(older) == state

    def test_nonempty_derived_list_is_incompatible(self):
        state, _ = fit_pipeline(_synthetic(), window_len=3)
        older = dict(asdict(state), derived=["HHP"])
        with pytest.raises(IncompatibleCheckpointError, match="HHP"):
            PreprocessorState.from_dict(older)

    @pytest.mark.parametrize(
        "key, edit",
        [
            pytest.param("fill_values", lambda v: v[:3], id="short-fills"),
            pytest.param("feat_mean", lambda v: v + [0.0], id="long-means"),
            pytest.param("feat_std", lambda v: v[1:], id="short-scales"),
            pytest.param("fill_values", lambda v: [float("nan")] + v[1:], id="nan-fill"),
            pytest.param("feat_mean", lambda v: [float("inf")] + v[1:], id="inf-mean"),
            pytest.param("feat_std", lambda v: [0.0] + v[1:], id="zero-scale"),
            pytest.param("feat_std", lambda v: [float("inf")] + v[1:], id="inf-scale"),
            pytest.param("target_mean", lambda v: float("nan"), id="nan-target-mean"),
            pytest.param("target_std", lambda v: -v, id="negative-target-scale"),
            pytest.param("target_std", lambda v: float("nan"), id="nan-target-scale"),
            pytest.param("vocab", lambda v: {"Formation": ["a", "b"]}, id="vocab-without-columns"),
        ],
    )
    def test_inconsistent_state_is_corrupt(self, key, edit):
        d = asdict(fit_pipeline(_synthetic(), window_len=3)[0])
        d[key] = edit(d[key])
        with pytest.raises(CorruptCheckpointError, match="preprocessor"):
            PreprocessorState.from_dict(d)


class TestCategoricalPipeline:
    def _dataset(self, n=40):
        dataset = _synthetic(n_rows=max(n, 100))
        tokens = ["shale" if i % 3 else "sand" for i in range(dataset.n_rows)]
        dataset.categoricals = {"Formation": tokens}
        return dataset

    def test_one_hot_columns_appended_unscaled(self):
        dataset = self._dataset()
        state, prep = fit_pipeline(dataset, window_len=1)
        names = state.feature_names
        assert names[-2:] == ["Formation=sand", "Formation=shale"]
        block = prep.train_statics[:, -2:]
        assert set(np.unique(block)) <= {0.0, 1.0}
        np.testing.assert_array_equal(block.sum(axis=1), np.ones(len(block)))

    def test_vocabulary_sorted_unique(self):
        """Repeated tokens, first seen out of order, fit as one sorted list."""
        dataset = self._dataset()
        cycle = ["shale", "sand", "shale", "clay"]
        dataset.categoricals["Formation"] = [cycle[i % 4] for i in range(dataset.n_rows)]
        state, _ = fit_pipeline(dataset, window_len=1)
        assert state.vocab == {"Formation": ["clay", "sand", "shale"]}

    def test_unseen_category_at_inference_warns(self):
        dataset = self._dataset()
        state, _ = fit_pipeline(dataset, window_len=1)
        fresh = self._dataset()
        fresh.categoricals["Formation"][0] = "granite"
        with pytest.warns(UserWarning, match="granite"):
            windows, _, _ = transform(fresh, state)
        np.testing.assert_array_equal(windows[0, 0, -2:], [0.0, 0.0])

    def test_category_only_in_test_rows_is_not_fitted(self):
        dataset = self._dataset()
        _, prep = fit_pipeline(dataset, window_len=4)
        test_row = int(prep.split.test[0]) + 3
        dataset.categoricals["Formation"][test_row] = "granite"
        with pytest.warns(UserWarning, match="granite"):
            state, prep = fit_pipeline(dataset, window_len=4)
        assert state.vocab == {"Formation": ["sand", "shale"]}
        assert "Formation=granite" not in state.feature_names
        window = int(np.flatnonzero(prep.split.test == test_row - 3)[0])
        np.testing.assert_array_equal(prep.test_statics[window, -2:], [0.0, 0.0])

    def test_schema_drift_rejected(self):
        dataset = self._dataset()
        state, _ = fit_pipeline(dataset, window_len=1)
        plain = _synthetic()  # no categorical column this time
        with pytest.raises(SchemaError):
            transform(plain, state)
