"""CSV round-trips, schema checks, and the synthetic well generator."""

import json

import numpy as np
import pytest

from ropnet.data import (
    Dataset,
    DatasetSchema,
    FeatureSpec,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    write_csv,
    write_truth,
)
from ropnet.errors import ConfigurationError, ParseError, SchemaError


def _ols_r2(X, y):
    """Least-squares fit with intercept; returns plain R^2."""
    design = np.column_stack([X, np.ones(len(X))])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    centered = y - y.mean()
    return 1.0 - (resid @ resid) / (centered @ centered)


class TestSchema:
    def test_default_shape(self):
        schema = DatasetSchema.default()
        assert schema.target_name == "ROP"
        assert len(schema.feature_names) == 8
        assert "WOB" in schema.feature_names
        assert schema.categorical_names == []

    def test_duplicate_names_rejected(self):
        cols = [
            FeatureSpec("A", "u"),
            FeatureSpec("A", "u"),
            FeatureSpec("y", "u", kind="target"),
        ]
        with pytest.raises(SchemaError):
            DatasetSchema(cols)

    def test_exactly_one_target_required(self):
        with pytest.raises(SchemaError):
            DatasetSchema([FeatureSpec("A", "u")])
        with pytest.raises(SchemaError):
            DatasetSchema(
                [
                    FeatureSpec("y1", "u", kind="target"),
                    FeatureSpec("y2", "u", kind="target"),
                ]
            )


class TestCsvRoundTrip:
    def test_exact_cell_round_trip(self, tmp_path):
        dataset, _ = generate_synthetic(SyntheticSpec(n_rows=120, seed=9))
        path = tmp_path / "well.csv"
        write_csv(path, dataset)
        again = load_csv(path)
        np.testing.assert_allclose(again.features, dataset.features, atol=1e-12)
        np.testing.assert_allclose(again.target, dataset.target, atol=1e-12)
        assert again.feature_names == dataset.feature_names

    def test_round_trip_is_bitwise(self, tmp_path):
        """repr-formatted floats reparse to the identical bits."""
        dataset, _ = generate_synthetic(SyntheticSpec(n_rows=100, seed=1))
        path = tmp_path / "well.csv"
        write_csv(path, dataset)
        again = load_csv(path)
        np.testing.assert_array_equal(again.features, dataset.features)
        np.testing.assert_array_equal(again.target, dataset.target)

    def test_target_optional_on_request(self, tmp_path):
        dataset, _ = generate_synthetic(SyntheticSpec(n_rows=100, seed=1))
        dataset.target = None
        path = tmp_path / "unlabelled.csv"
        write_csv(path, dataset)
        again = load_csv(path, require_target=False)
        assert again.target is None
        with pytest.raises(SchemaError):
            load_csv(path)  # by default the target column is required

    def test_missing_feature_column_named(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("WOB,ROP\n1.0,2.0\n")
        with pytest.raises(SchemaError, match="RPM"):
            load_csv(path)

    def test_extra_columns_warn_and_are_ignored(self, tmp_path):
        dataset, _ = generate_synthetic(SyntheticSpec(n_rows=100, seed=1))
        path = tmp_path / "extra.csv"
        write_csv(path, dataset)
        text = path.read_text().splitlines()
        text[0] = text[0] + ",Mud Weight"
        body = [line + ",1.05" for line in text[1:]]
        path.write_text("\n".join([text[0]] + body) + "\n")
        with pytest.warns(UserWarning, match="Mud Weight"):
            again = load_csv(path)
        assert again.features.shape == (100, 8)

    def test_missing_tokens_parse_to_nan(self, tmp_path):
        header = ",".join(DatasetSchema.default().feature_names + ["ROP"])
        row = ["1", "", "NaN", "4", "5", "6", "7", "8", "9"]
        path = tmp_path / "gaps.csv"
        path.write_text(header + "\n" + ",".join(row) + "\n")
        dataset = load_csv(path)
        assert np.isnan(dataset.features[0, 1])
        assert np.isnan(dataset.features[0, 2])
        assert dataset.features[0, 0] == 1.0

    def test_bad_cell_names_row_and_column(self, tmp_path):
        header = ",".join(DatasetSchema.default().feature_names + ["ROP"])
        good = ",".join(["1"] * 9)
        bad = ",".join(["1", "twelve"] + ["1"] * 7)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header, good, bad]) + "\n")
        with pytest.raises(ParseError, match=r"row 2.*'RPM'"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, text):
        header = ",".join(DatasetSchema.default().feature_names + ["ROP"])
        bad = ",".join(["1"] * 8 + [text])
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header, bad]) + "\n")
        with pytest.raises(ParseError, match=r"row 1.*'ROP'"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        header = ",".join(DatasetSchema.default().feature_names + ["ROP"])
        path = tmp_path / "ragged.csv"
        path.write_text(header + "\n1,2,3\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="header"):
            load_csv(path)


class TestSyntheticSpecValidation:
    def test_row_floor(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(n_rows=99)

    def test_negative_noise_rejected_zero_allowed(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(noise_sigma=-1.0)
        assert SyntheticSpec(noise_sigma=0.0).noise_sigma == 0.0

    def test_regime_count_floor(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(regime_count=0)

    def test_coefficient_length_checked(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(static_coeffs=(1.0, 2.0))


class TestGenerator:
    def test_deterministic_per_seed(self):
        a, truth_a = generate_synthetic(SyntheticSpec(n_rows=150, seed=5))
        b, truth_b = generate_synthetic(SyntheticSpec(n_rows=150, seed=5))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.target, b.target)
        assert truth_a == truth_b

    def test_seed_changes_data(self):
        a, _ = generate_synthetic(SyntheticSpec(n_rows=150, seed=5))
        b, _ = generate_synthetic(SyntheticSpec(n_rows=150, seed=6))
        assert not np.array_equal(a.features, b.features)

    def test_shapes_and_schema(self):
        dataset, truth = generate_synthetic(SyntheticSpec(n_rows=321, seed=2))
        assert dataset.features.shape == (321, 8)
        assert dataset.target.shape == (321,)
        assert dataset.feature_names == DatasetSchema.default().feature_names
        assert truth["n_rows"] == 321

    def test_truth_descriptor_complete(self):
        _, truth = generate_synthetic(SyntheticSpec(n_rows=150, seed=7))
        wanted = {
            "seed",
            "n_rows",
            "feature_names",
            "static_coeffs",
            "lag1_coeffs",
            "lag2_coeffs",
            "regime_boundaries",
            "regime_offsets",
            "channel_shift",
            "noise_sigma",
            "bayes_mse",
            "signal_variance",
            "bayes_r2",
        }
        assert set(truth) == wanted

    def test_bayes_mse_is_noise_variance(self):
        spec = SyntheticSpec(n_rows=150, seed=7, noise_sigma=3.5)
        _, truth = generate_synthetic(spec)
        assert truth["bayes_mse"] == 3.5**2

    def test_regime_boundaries_in_central_band(self):
        spec = SyntheticSpec(n_rows=1000, seed=11, regime_count=4)
        _, truth = generate_synthetic(spec)
        bounds = truth["regime_boundaries"]
        assert len(bounds) <= 3
        assert all(200 <= b <= 800 for b in bounds)
        assert len(truth["regime_offsets"]) == len(bounds) + 1

    def test_default_benchmark_is_hard_but_learnable(self, default_benchmark):
        """Bayes R^2 sits at the designed ~0.99 level."""
        _, truth = default_benchmark
        assert abs(truth["bayes_r2"] - 0.99) < 0.005

    def test_truth_json_round_trip(self, tmp_path):
        _, truth = generate_synthetic(SyntheticSpec(n_rows=150, seed=7))
        path = tmp_path / "well.truth.json"
        write_truth(path, truth)
        assert json.loads(path.read_text()) == truth


class TestGroundTruthRecovery:
    def test_noiseless_static_process_is_exactly_linear(self):
        """noise 0, no lags, one regime: OLS hits R^2 = 1."""
        zeros = (0.0,) * 8
        spec = SyntheticSpec(
            n_rows=200,
            seed=4,
            noise_sigma=0.0,
            regime_count=1,
            lag1_coeffs=zeros,
            lag2_coeffs=zeros,
        )
        dataset, truth = generate_synthetic(spec)
        assert truth["bayes_r2"] == 1.0
        r2 = _ols_r2(dataset.features, dataset.target)
        assert r2 > 1.0 - 1e-9

    def test_lagged_fit_beats_orderless_fit(self):
        """The target needs past rows: a static-row fit caps well below
        a lag-aware fit on every seed."""
        wins = 0
        for seed in (1, 2, 3, 4, 5):
            dataset, _ = generate_synthetic(SyntheticSpec(n_rows=600, seed=seed))
            x = dataset.features
            y = dataset.target
            static_r2 = _ols_r2(x[2:], y[2:])
            lagged = np.hstack([x[2:], x[1:-1], x[:-2]])
            lagged_r2 = _ols_r2(lagged, y[2:])
            if lagged_r2 > static_r2:
                wins += 1
        assert wins >= 3

    def test_lagged_fit_approaches_bayes_ceiling(self):
        dataset, truth = generate_synthetic(SyntheticSpec(n_rows=2000, seed=42))
        x, y = dataset.features, dataset.target
        lagged = np.hstack([x[2:], x[1:-1], x[:-2]])
        r2 = _ols_r2(lagged, y[2:])
        # regime offsets keep OLS slightly under the true ceiling
        assert r2 > truth["bayes_r2"] - 0.02


class TestTrainedModelReachesNoiseFloor:
    def test_benchmark_mse_within_three_of_bayes(self, benchmark_run):
        """The trained flagship lands within 3x the irreducible MSE."""
        report = benchmark_run["report"]
        truth = benchmark_run["truth"]
        ratio = report.rmse**2 / truth["bayes_mse"]
        assert ratio < 3.0
