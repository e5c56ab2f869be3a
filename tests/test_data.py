"""CSV round-trips, schema checks, and the synthetic well generator."""

import csv
import json
import math
import os
import warnings
from dataclasses import fields
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ropnet import data
from ropnet.cli import main
from ropnet.data import (
    Dataset,
    DatasetSchema,
    SyntheticSpec,
    _parse_cell,
    generate_synthetic,
    load_csv,
    write_csv,
)
from ropnet.errors import (
    ConfigurationError,
    CorruptCheckpointError,
    ParseError,
    RangeError,
    RopnetError,
    SchemaError,
)
from ropnet.explain import local_surrogate
from ropnet.models import ADVANCED_HYBRID, TS_MIXER, ModelSpec, build_model
from ropnet.preprocess import PreprocessorState, fit_pipeline, make_windows
from ropnet.tensor import SeededRng
from ropnet.train import TrainConfig

from oracles import traced_peak, whole_array_well


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
        with pytest.raises(SchemaError, match="duplicate"):
            DatasetSchema(["A", "A"], "y")
        with pytest.raises(SchemaError, match="duplicate"):
            DatasetSchema(["A"], "y", ["C", "C"])

    @pytest.mark.parametrize(
        "features, target, categoricals",
        [
            (["A", "y"], "y", []),
            (["A"], "y", ["y"]),
            (["A", "C"], "y", ["C"]),
        ],
        ids=["target-is-feature", "target-is-categorical", "feature-is-categorical"],
    )
    def test_name_shared_between_roles_rejected(self, features, target, categoricals):
        with pytest.raises(SchemaError, match="duplicate"):
            DatasetSchema(features, target, categoricals)


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

    def test_bytes_are_pinned(self, tmp_path):
        """Each cell is its float's repr, and rows end in csv's \\r\\n."""
        dataset = Dataset(
            feature_names=["A", "B"],
            features=np.array([[-0.0, 1e16], [5e-324, 1.7976931348623157e308]]),
            target=np.array([0.30000000000000004, 2.5]),
        )
        path = tmp_path / "pinned.csv"
        write_csv(path, dataset)
        assert path.read_bytes() == (
            b"A,B,ROP\r\n"
            b"-0.0,1e+16,0.30000000000000004\r\n"
            b"5e-324,1.7976931348623157e+308,2.5\r\n"
        )

    def test_header_that_needs_quotes_gets_them(self, tmp_path):
        """Names holding a comma or a double quote are quoted as
        csv.writer quotes them, and read back as the same names."""
        names = ["WOB, klbf", 'Say "when"']
        dataset = Dataset(feature_names=names, features=np.array([[1.5, -2.0]]),
                          target=np.array([3.25]))
        path = tmp_path / "quoted.csv"
        write_csv(path, dataset)
        assert path.read_bytes() == b'"WOB, klbf","Say ""when""",ROP\r\n1.5,-2.0,3.25\r\n'
        again = load_csv(path, DatasetSchema(names, "ROP"))
        assert again.feature_names == names
        assert again.features.tobytes() == dataset.features.tobytes()
        assert again.target.tobytes() == dataset.target.tobytes()

    def test_writing_a_well_holds_no_whole_table_copy(self, tmp_path):
        """Each block is formatted from its own slices (a stacked copy
        of a 20,000-row well and target alone is 1.4 MiB)."""
        dataset, _ = generate_synthetic(SyntheticSpec(n_rows=20_000))
        _, peak = traced_peak(lambda: write_csv(tmp_path / "well.csv", dataset))
        assert peak <= 1.5 * 2**20, peak / 2**20

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

    def test_column_named_twice_rejected(self, tmp_path):
        header = ",".join(DatasetSchema.default().feature_names + ["ROP", "WOB"])
        path = tmp_path / "twice.csv"
        path.write_text("\n".join([header, ",".join(["1"] * 10)]) + "\n")
        with pytest.raises(SchemaError, match=r"\['WOB'\] more than once"):
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

    @pytest.mark.parametrize("require_target", [True, False])
    @pytest.mark.parametrize("text", ["", "nan", " NaN "])
    def test_missing_target_cell_names_row_and_column(
        self, tmp_path, text, require_target
    ):
        header = ",".join(DatasetSchema.default().feature_names + ["ROP"])
        good = ",".join(["1"] * 9)
        gap = ",".join(["1"] * 8 + [text])
        path = tmp_path / "gap.csv"
        path.write_text("\n".join([header, good, good, gap]) + "\n")
        with pytest.raises(ParseError, match=r"row 3, column 'ROP'"):
            load_csv(path, require_target=require_target)

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


BLOCK_SCHEMA = DatasetSchema(["A", "B"], "Y", ["C"])
FLOAT_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
PADDING = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u2003"])
ODD_CELLS = st.one_of(
    st.sampled_from(
        ["", "nan", " NaN ", "NAN", "inf", "-Infinity", "1e999", "-1e999",
         "1_000", "1__0", "0x10", "1e-400", "\u0663.\u0665", "twelve", "1.5.2"]
    ),
    st.tuples(PADDING, FLOAT_TEXT, PADDING).map("".join),
    st.text(max_size=4),
)
# (row, column, cell): column None gives the row a wrong width instead
EDITS = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.one_of(st.none(), st.integers(0, 3)),
        ODD_CELLS,
    ),
    max_size=3,
)


def _per_cell_load(path, schema):
    """The row-by-row loader: every numeric cell through ``_parse_cell``."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = [h.strip() for h in next(reader)]
        at = {name: i for i, name in enumerate(header)}
        has_target = schema.target_name in at
        feats, target = [], []
        cats = {n: [] for n in schema.categorical_names}
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(
                    f"row {row_no} has {len(row)} cells, header has {len(header)}"
                )
            feats.append(
                [_parse_cell(row[at[n]], row_no, n) for n in schema.feature_names]
            )
            if has_target:
                y = schema.target_name
                target.append(_parse_cell(row[at[y]], row_no, y, required=True))
            for n in cats:
                cats[n].append(row[at[n]].strip())
    features = np.array(feats, dtype=np.float64).reshape(-1, 2)
    return features, np.array(target) if has_target else None, cats


def _outcome(load):
    """Arrays as bytes, or the error's type and message."""
    try:
        features, target, cats = load()
    except Exception as exc:
        return type(exc), str(exc)
    target_bytes = None if target is None else (target.shape, target.tobytes())
    return features.shape, features.tobytes(), target_bytes, cats


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([header] + rows)


def _block_load(path):
    dataset = load_csv(path, BLOCK_SCHEMA, require_target=False)
    return dataset.features, dataset.target, dataset.categoricals


class TestReplacing:
    """Every artifact reaches disk through ``data.replacing``."""

    def test_target_changes_only_when_the_block_ends(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        with data.replacing(path) as f:
            f.write("new\r\n")
            assert path.read_text() == "old\n"
            temporary = f"a.txt.{os.getpid()}.tmp"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", temporary]
        assert path.read_bytes() == b"new\r\n"  # no newline translation
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_binary_mode(self, tmp_path):
        path = tmp_path / "a.bin"
        with data.replacing(path, "wb") as f:
            f.write(b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"

    def test_failed_block_keeps_the_previous_bytes(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        with pytest.raises(ValueError, match="midway"):
            with data.replacing(path) as f:
                f.write("half")
                raise ValueError("midway")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failed_replace_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("read-only target")

        monkeypatch.setattr(data.os, "replace", refuse)
        dataset, _ = generate_synthetic(SyntheticSpec(n_rows=100, seed=1))
        with pytest.raises(OSError, match="read-only"):
            write_csv(tmp_path / "well.csv", dataset)
        assert list(tmp_path.iterdir()) == []


class TestBlockParse:
    """The block fast path returns what per-cell parsing returns."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.lists(FLOAT_TEXT, min_size=4, max_size=4), max_size=12),
        edits=EDITS,
        block=st.integers(1, 4),
        with_target=st.booleans(),
    )
    def test_matches_per_cell_parse(
        self, tmp_path_factory, values, edits, block, with_target
    ):
        rows = [list(r) for r in values]
        # cells first, so a row's width is changed only after them
        for row, column, cell in sorted(edits, key=lambda e: e[1] is None):
            if row >= len(rows):
                continue
            if column is None:
                rows[row] = rows[row][:-1] if len(cell) % 2 else rows[row] + [cell]
            else:
                rows[row][column] = cell
        header = ["B", "C", "Y", "A"]
        if not with_target:
            header.remove("Y")
            rows = [r[:2] + r[3:] if len(r) >= 3 else r for r in rows]
        path = tmp_path_factory.getbasetemp() / "blocks.csv"
        _write_rows(path, header, rows)
        with mock.patch.object(data, "CSV_BLOCK_ROWS", block):
            got = _outcome(lambda: _block_load(path))
        assert got == _outcome(lambda: _per_cell_load(path, BLOCK_SCHEMA))

    @pytest.mark.parametrize("bad_row", [None, 1, -1, 0])
    def test_rows_around_the_real_block_size(self, tmp_path, bad_row):
        """A bad cell is named in the last row of one block, in the first
        row of the next, or at the very end; a clean file parses whole."""
        n = 2 * data.CSV_BLOCK_ROWS + 1
        rows = [[repr(r * 0.25), "x", repr(-r / 3), "1e-3"] for r in range(n)]
        if bad_row is not None:
            rows[data.CSV_BLOCK_ROWS - 1 + bad_row][2] = ""
        path = tmp_path / "long.csv"
        _write_rows(path, ["B", "C", "Y", "A"], rows)
        got = _outcome(lambda: _block_load(path))
        assert got == _outcome(lambda: _per_cell_load(path, BLOCK_SCHEMA))
        if bad_row is not None:
            assert got[0] is ParseError
            assert f"row {data.CSV_BLOCK_ROWS + bad_row}, column 'Y'" in got[1]


class TestSyntheticSpecValidation:
    def test_row_floor(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(n_rows=99)

    @pytest.mark.parametrize("rows", [data.MAX_ROWS + 1, 10**12])
    def test_row_ceiling(self, rows):
        """10**12 rows would ask the generator for 58.2 TiB."""
        with pytest.raises(ConfigurationError, match=f"between 100 and {data.MAX_ROWS}, got"):
            SyntheticSpec(n_rows=rows)
        assert SyntheticSpec(n_rows=data.MAX_ROWS).n_rows == data.MAX_ROWS

    def test_negative_noise_rejected_zero_allowed(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(noise_sigma=-1.0)
        assert SyntheticSpec(noise_sigma=0.0).noise_sigma == 0.0

    @pytest.mark.parametrize(
        "sigma", [1e200, 1.5e154, math.inf, math.nan, pytest.param(10**200, id="int")]
    )
    def test_noise_without_a_finite_square_rejected(self, sigma):
        """The truth's Bayes MSE is sigma squared, which must not
        overflow float64."""
        with pytest.raises(ConfigurationError, match="finite square"):
            SyntheticSpec(noise_sigma=sigma)
        assert SyntheticSpec(noise_sigma=1e154).noise_sigma == 1e154

    def test_regime_count_floor(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(regime_count=0)

    @pytest.mark.parametrize("regimes", [121, 10**12])
    def test_more_regimes_than_rows_rejected(self, regimes):
        """Each regime needs a row; 10**12 would ask the generator for
        7.28 TiB of cut points."""
        with pytest.raises(ConfigurationError, match="regime count"):
            SyntheticSpec(n_rows=120, regime_count=regimes)
        assert SyntheticSpec(n_rows=120, regime_count=120).regime_count == 120


def _fitted_state_with_window(window_len):
    state, _ = fit_pipeline(generate_synthetic(SyntheticSpec(n_rows=100))[0])
    return PreprocessorState.from_dict({**state.__dict__, "window_len": window_len})


def _predict_with_batch(batch_size):
    model = build_model(ModelSpec(kind=TS_MIXER, input_features=8), SeededRng(0))
    return model.predict(np.zeros((5, 1, 8)), np.zeros((5, 8)), batch_size=batch_size)


def _surrogate(**settings):
    return local_surrogate(lambda X: X.sum(axis=1), np.ones(2), SeededRng(0), **settings)


# each count setting: a call that passes it a value, and the error it raises
COUNT_SITES = {
    "n_rows": (lambda v: SyntheticSpec(n_rows=v), ConfigurationError),
    "regime_count": (lambda v: SyntheticSpec(regime_count=v), ConfigurationError),
    "batch_size": (lambda v: TrainConfig(batch_size=v), ConfigurationError),
    "epochs": (lambda v: TrainConfig(epochs=v), ConfigurationError),
    "fit_pipeline_window_len": (
        lambda v: fit_pipeline(generate_synthetic(SyntheticSpec(n_rows=100))[0], v),
        RangeError,
    ),
    "make_windows_window_len": (
        lambda v: make_windows(np.zeros((5, 2)), None, v),
        RangeError,
    ),
    "preprocessor_window_len": (_fitted_state_with_window, CorruptCheckpointError),
    "predict_batch_size": (_predict_with_batch, RangeError),
    "surrogate_n_samples": (lambda v: _surrogate(n_samples=v), RangeError),
}


# each real-valued setting: a call that passes it a value, and the error it raises
REAL_SITES = {
    "learning_rate": (lambda v: TrainConfig(learning_rate=v), ConfigurationError),
    "weight_decay": (lambda v: TrainConfig(weight_decay=v), ConfigurationError),
    "noise_sigma": (lambda v: SyntheticSpec(noise_sigma=v), ConfigurationError),
    "dropout": (
        lambda v: ModelSpec(kind=TS_MIXER, input_features=8, dropout=v),
        ConfigurationError,
    ),
    "radius": (lambda v: _surrogate(radius=v), RangeError),
}


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: SyntheticSpec(noise_sigma=10**5000), id="noise_sigma"),
        pytest.param(lambda: SyntheticSpec(regime_count=10**5000), id="regime_count"),
        pytest.param(lambda: SyntheticSpec(n_rows=-(10**5000)), id="n_rows"),
        pytest.param(lambda: TrainConfig(learning_rate=-(10**5000)), id="learning_rate"),
        pytest.param(lambda: TrainConfig(weight_decay=-(10**5000)), id="weight_decay"),
        pytest.param(
            lambda: ModelSpec(kind="baseline_lstm", input_features=8, lstm_hidden=10**5000 + 1),
            id="lstm_hidden",
        ),
        pytest.param(
            lambda: ModelSpec(kind="baseline_lstm", input_features=8, dropout=10**5000),
            id="dropout",
        ),
        pytest.param(
            lambda: fit_pipeline(generate_synthetic(SyntheticSpec(n_rows=100))[0], 10**5000),
            id="fit_pipeline_window_len",
        ),
        pytest.param(lambda: make_windows(np.zeros((5, 2)), None, -(10**5000)), id="window_len"),
        *(
            pytest.param(lambda site=site: COUNT_SITES[site][0](-(10**5000)), id=site)
            for site in ("batch_size", "epochs", "predict_batch_size",
                         "surrogate_n_samples", "preprocessor_window_len")
        ),
        pytest.param(lambda: REAL_SITES["radius"][0](-(10**5000)), id="radius"),
        pytest.param(lambda: ModelSpec(kind=10**5000, input_features=8), id="kind"),
    ],
)
def test_a_setting_too_long_to_print_is_refused_by_its_size(build):
    """``str`` refuses an int past 4,300 digits, so the message names
    the value's size instead of raising ``ValueError``."""
    with pytest.raises(RopnetError, match="integer of 16610 bits"):
        build()


@pytest.mark.parametrize(
    "site, value",
    [(site, value) for site in COUNT_SITES for value in (2.5, True, "4")]
    # in range but not whole, where 2.5 and True already fall below the floor
    + [("n_rows", 150.5), ("surrogate_n_samples", 60.5)],
)
def test_a_count_setting_must_be_an_int(site, value):
    """Every count is checked by one rule: an int (not a bool) in range,
    refused with the site's own error type before anything is sized."""
    build, error = COUNT_SITES[site]
    with pytest.raises(error, match="must be an integer") as refused:
        build(value)
    assert type(refused.value) is error


@pytest.mark.parametrize(
    "value",
    [
        pytest.param("0.1", id="text"),
        None,
        True,
        math.nan,
        math.inf,
        -math.inf,
        pytest.param(10**400, id="int_past_float"),
    ],
)
@pytest.mark.parametrize("site", REAL_SITES)
def test_a_real_setting_must_be_a_finite_real(site, value):
    """Every real-valued setting is checked by one rule: a real number
    (not a bool) inside its span, where nan and ±inf never are, refused
    with the site's own error type."""
    build, error = REAL_SITES[site]
    with pytest.raises(error, match="must be a finite real number") as refused:
        build(value)
    assert type(refused.value) is error


@pytest.mark.parametrize("site", REAL_SITES)
def test_a_numpy_float_setting_is_taken_without_a_warning(site):
    """The rule compares a float32 as a Python float, so no cast of the
    span's ends to float32 overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        REAL_SITES[site][0](np.float32(0.1))


def test_a_float32_noise_sigma_squares_as_a_double():
    """The spec keeps sigma as a Python float, so a float32 sigma whose
    square overflows float32 still gives a finite Bayes MSE and a truth
    that plain JSON can hold."""
    sigma = np.float32(1e20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, truth = generate_synthetic(SyntheticSpec(n_rows=100, noise_sigma=sigma))
    assert truth["bayes_mse"] == float(sigma) ** 2
    assert json.loads(json.dumps(truth))["noise_sigma"] == float(sigma)


# values a caller might pass for any setting, in range or not
JUNK = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]),
    st.floats(width=32).map(np.float32),
    st.floats(),
    st.integers(),
)
# each call, and a junk strategy for every setting it takes
JUNK_SETTINGS = {
    "ModelSpec": (
        partial(ModelSpec, kind=ADVANCED_HYBRID, input_features=8),
        {f.name: JUNK for f in fields(ModelSpec)},
    ),
    "TrainConfig": (TrainConfig, {f.name: JUNK for f in fields(TrainConfig)}),
    "SyntheticSpec": (SyntheticSpec, {f.name: JUNK for f in fields(SyntheticSpec)}),
    "local_surrogate": (_surrogate, {"radius": JUNK, "n_samples": JUNK}),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_junk_setting_constructs_or_raises_a_ropnet_error(drawn):
    """Any mix of junk and default settings either builds or raises a
    ``RopnetError``: never another exception, and never a warning."""
    build, strategies = JUNK_SETTINGS[drawn.draw(st.sampled_from(list(JUNK_SETTINGS)))]
    settings_ = drawn.draw(st.fixed_dictionaries({}, optional=strategies))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            build(**settings_)
        except RopnetError:
            pass


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
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.synthetic.n_rows = 150\n")
        assert main(["gen-data", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "synthetic.truth.json").read_text()) == truth


class TestInPlaceGenerator:
    """The one-buffer generator keeps the bits of the whole-array form
    in ``oracles.whole_array_well``."""

    @pytest.mark.parametrize("n_rows", [100, 101, 2000, 20_000])
    @pytest.mark.parametrize("regimes", [1, 3, "n_rows"])
    @pytest.mark.parametrize("sigma", [0.0, np.float32(3.0)])
    def test_bits(self, n_rows, regimes, sigma):
        regime_count = n_rows if regimes == "n_rows" else regimes
        spec = SyntheticSpec(n_rows=n_rows, noise_sigma=sigma, regime_count=regime_count, seed=n_rows)
        dataset, truth = generate_synthetic(spec)
        features, target, want = whole_array_well(spec)
        assert dataset.features.shape == features.shape
        assert dataset.features.tobytes() == features.tobytes()
        assert dataset.target.tobytes() == target.tobytes()
        assert json.dumps(truth) == json.dumps(want)

    def test_peak_memory(self):
        """Innovations, latents and sensors share one buffer, so the
        peak stays near two copies of it (8.2 MiB in whole arrays)."""
        _, peak = traced_peak(lambda: generate_synthetic(SyntheticSpec(n_rows=20_000)))
        assert peak <= 5 * 2**20, peak / 2**20


class TestGroundTruthRecovery:
    def test_noiseless_static_process_is_exactly_linear(self):
        """noise 0, one regime: OLS on the row and its two lags hits R^2 = 1."""
        spec = SyntheticSpec(n_rows=200, seed=4, noise_sigma=0.0, regime_count=1)
        dataset, truth = generate_synthetic(spec)
        assert truth["bayes_r2"] == 1.0
        assert truth["lag1_coeffs"] == data.LAG1_COEFFS.tolist()
        x, y = dataset.features, dataset.target
        r2 = _ols_r2(np.hstack([x[2:], x[1:-1], x[:-2]]), y[2:])
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
