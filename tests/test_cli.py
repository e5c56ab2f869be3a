"""End-to-end runs of the command-line pipeline.

Everything here goes through ``main(argv)`` in-process with tiny row
counts and epoch budgets, so the whole module stays fast while still
exercising the real artifact formats and exit codes.
"""

import argparse
import json
import os
import re
import struct
from contextlib import contextmanager
from dataclasses import fields

import pytest

from ropnet import cli
from ropnet.cli import RunConfig, main, parse_config
from ropnet.data import CSV_BLOCK_ROWS, Dataset, SyntheticSpec, generate_synthetic, write_csv
from ropnet.errors import ConfigurationError, DivergenceError, UndefinedMetricError
from ropnet.models import MODEL_KINDS, TS_MIXER, ModelSpec, build_model
from ropnet.preprocess import fit_pipeline
from ropnet.tensor import SeededRng
from ropnet.train import load_checkpoint, save_checkpoint


def write_config(path, **overrides):
    lines = ["# smoke-test configuration\n"]
    for key, value in overrides.items():
        lines.append(f"{key} = {value}\n")
    path.write_text("".join(lines))
    return str(path)


def rewrite_header(src, dst, section="preprocessor", **changes):
    """Copy a checkpoint with keys of one header section replaced."""
    blob = src.read_bytes()
    (json_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + json_len])
    header[section].update(changes)
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(
        blob[:8] + struct.pack("<I", len(payload)) + payload + blob[12 + json_len :]
    )
    return dst


def set_cell(src, dst, row, column, text):
    """Copy a CSV with cell ``column`` of data row ``row`` (from 1) replaced."""
    lines = src.read_text().splitlines()
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[row] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def poison_array(src, dst, name, value):
    """Copy a checkpoint with the last float of array ``name`` replaced."""
    model, state = load_checkpoint(src)
    dict(model.state_arrays())[name].flat[-1] = value
    save_checkpoint(dst, model, state)
    return dst


NON_FINITE_CELLS = [("WOB", "inf"), ("ROP", "-inf"), ("Torque", "1e999")]
# a weight and a batch-norm running statistic of the ts_mixer checkpoint
NON_FINITE_ARRAYS = [
    ("mixer.h0.W", float("nan")),
    ("mixer.h0.W", float("inf")),
    ("mixer.h4_bn.running_mean", float("nan")),
    ("mixer.h4_bn.running_var", float("-inf")),
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One gen-data + train run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "artifacts"
    csv_path = out / "synthetic.csv"
    cfg = write_config(
        root / "run.cfg",
        **{
            "model.kind": "ts_mixer",
            "model.window_len": 2,
            "train.lr": 0.005,
            "train.epochs": 3,
            "train.batch_size": 32,
            "train.seed": 7,
            "data.path": csv_path,
            "data.synthetic.n_rows": 160,
            "data.synthetic.seed": 7,
        },
    )
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return {
        "root": root,
        "out": out,
        "cfg": cfg,
        "csv": csv_path,
        "ckpt": out / "checkpoint_ts_mixer.roph",
    }


class TestConfigParsing:
    def test_no_file_gives_defaults(self):
        cfg = parse_config(None)
        assert cfg == RunConfig()
        assert cfg.model_kind == "advanced_hybrid"
        assert cfg.epochs == 100
        assert cfg.lr == 0.001

    def test_values_comments_and_spacing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# header comment\n"
            "\n"
            "train.epochs=9\n"
            "  train.lr =  0.25  # inline note\n"
            "model.kind = baseline_lstm\n"
        )
        cfg = parse_config(str(path))
        assert cfg.epochs == 9
        assert cfg.lr == 0.25
        assert cfg.model_kind == "baseline_lstm"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.momentum = 0.9\n")
        with pytest.raises(ConfigurationError, match="train.momentum"):
            parse_config(str(path))

    def test_wrong_value_type_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochs = soon\n")
        with pytest.raises(ConfigurationError, match="int"):
            parse_config(str(path))

    def test_line_without_assignment_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            parse_config(str(tmp_path / "absent.cfg"))


class TestGenData:
    def test_writes_csv_and_truth(self, pipeline):
        csv_text = pipeline["csv"].read_text()
        header = csv_text.splitlines()[0]
        assert header.endswith(",ROP")
        assert len(csv_text.splitlines()) == 161
        truth = json.loads((pipeline["out"] / "synthetic.truth.json").read_text())
        assert truth["n_rows"] == 160
        assert truth["bayes_mse"] > 0.0

    def test_same_seed_same_bytes(self, pipeline, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(
                ["gen-data", "--config", pipeline["cfg"], "--out", str(out), "--seed", "3"]
            )
            assert rc == 0
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()
        assert (a / "synthetic.truth.json").read_bytes() == (
            b / "synthetic.truth.json"
        ).read_bytes()
        assert (a / "synthetic.csv").read_bytes() != pipeline["csv"].read_bytes()

    def test_out_dir_from_config(self, tmp_path):
        target = tmp_path / "configured"
        cfg = write_config(
            tmp_path / "run.cfg",
            **{
                "data.synthetic.n_rows": 120,
                "output.dir": target,
            },
        )
        assert main(["gen-data", "--config", cfg]) == 0
        assert (target / "synthetic.csv").exists()


class TestTrain:
    def test_artifact_set(self, pipeline):
        out = pipeline["out"]
        curve = (out / "losscurve_ts_mixer.csv").read_text().splitlines()
        assert curve[0] == "epoch,train_mse,test_mse"
        assert len(curve) == 4
        assert curve[1].startswith("1,")
        report = json.loads((out / "metrics_ts_mixer.json").read_text())
        assert set(report) == {"r2", "mae", "rmse", "mape_pct", "n", "mape_excluded"}
        assert pipeline["ckpt"].read_bytes()[:4] == b"ROPH"

    def test_model_flag_overrides_config(self, pipeline, tmp_path):
        rc = main(
            [
                "train",
                "--config",
                pipeline["cfg"],
                "--out",
                str(tmp_path),
                "--model",
                "baseline_lstm",
            ]
        )
        assert rc == 0
        assert (tmp_path / "checkpoint_baseline_lstm.roph").exists()

    def test_unknown_model_kind_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.cfg",
            **{"model.kind": "quantum", "data.synthetic.n_rows": 120},
        )
        rc = main(["train", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, raw",
        [
            ("train", "model.kind", "bogus"),
            ("train", "train.lr", "-1"),
            ("train", "train.epochs", "0"),
            ("compare", "train.lr", "-1"),
            ("compare", "train.epochs", "0"),
            ("gen-data", "data.synthetic.n_rows", "5"),
            ("gen-data", "data.synthetic.noise_sigma", "1e200"),
            ("train", "data.synthetic.noise_sigma", "1e200"),
            ("compare", "data.synthetic.noise_sigma", "1e200"),
            ("gen-data", "data.synthetic.regime_count", "1000000000000"),
            ("train", "data.synthetic.regime_count", "1000000000000"),
            ("gen-data", "data.synthetic.n_rows", "1000000000000"),
            ("train", "data.synthetic.n_rows", "1000000000000"),
        ],
    )
    def test_bad_run_config_exits_2_without_out_dir(
        self, tmp_path, capsys, command, key, raw
    ):
        cfg = write_config(
            tmp_path / "run.cfg", **{"data.synthetic.n_rows": 120, key: raw}
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_batch_size_one_with_batch_norm_exits_2_before_loading(
        self, tmp_path, capsys, command
    ):
        cfg = write_config(
            tmp_path / "run.cfg",
            **{
                "model.kind": "ts_mixer",
                "train.batch_size": 1,
                "data.path": tmp_path / "absent.csv",
            },
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "train.batch_size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_bad_window_exits_2_before_loading(self, tmp_path, capsys, command, window):
        cfg = write_config(
            tmp_path / "run.cfg",
            **{"model.window_len": window, "data.path": tmp_path / "absent.csv"},
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "model.window_len" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_size_one_without_batch_norm_trains(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg",
            **{
                "model.kind": "baseline_lstm",
                "train.batch_size": 1,
                "train.epochs": 1,
                "data.synthetic.n_rows": 120,
            },
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "checkpoint_baseline_lstm.roph").exists()

    # the huge step overflows activations; that warning is the point
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.cfg",
            **{
                "model.kind": "baseline_lstm",
                "train.lr": 1e200,
                "train.epochs": 2,
                "data.synthetic.n_rows": 120,
            },
        )
        out = tmp_path / "out"
        rc = main(["train", "--config", cfg, "--out", str(out)])
        assert rc == 4
        assert "epoch" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("column, text", NON_FINITE_CELLS)
    def test_non_finite_cell_exits_3_without_artifact(
        self, pipeline, tmp_path, capsys, column, text
    ):
        data = set_cell(pipeline["csv"], tmp_path / "bad.csv", 40, column, text)
        cfg = write_config(
            tmp_path / "run.cfg",
            **{"model.kind": "ts_mixer", "train.epochs": 1, "data.path": data},
        )
        out = tmp_path / "out"
        rc = main(["train", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert f"row 40, column {column!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("train.lr", "nan"),
            ("train.weight_decay", "inf"),
            ("data.synthetic.noise_sigma", "nan"),
            ("train.lr", "-inf"),
        ],
    )
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, key, raw):
        cfg = write_config(
            tmp_path / "run.cfg",
            **{"model.kind": "ts_mixer", "train.epochs": 1, key: raw},
        )
        out = tmp_path / "out"
        rc = main(["train", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_target_cell_exits_3_naming_the_row(self, pipeline, tmp_path, capsys):
        data = set_cell(pipeline["csv"], tmp_path / "gap.csv", 23, "ROP", "")
        cfg = write_config(
            tmp_path / "run.cfg",
            **{"model.kind": "ts_mixer", "train.epochs": 1, "data.path": data},
        )
        out = tmp_path / "out"
        rc = main(["train", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "row 23, column 'ROP'" in capsys.readouterr().err
        assert not out.exists()

    def test_unimputable_column_is_named(self, pipeline, tmp_path, capsys):
        rows = [line.split(",") for line in pipeline["csv"].read_text().splitlines()]
        col = rows[0].index("RPM")
        for cells in rows[1:]:
            cells[col] = ""
        data = tmp_path / "no_rpm.csv"
        data.write_text("".join(",".join(cells) + "\n" for cells in rows))
        cfg = write_config(
            tmp_path / "run.cfg",
            **{"model.kind": "ts_mixer", "train.epochs": 1, "data.path": data},
        )
        out = tmp_path / "out"
        rc = main(["train", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "RPM has no observed values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_undecodable_byte_exits_3_without_out_dir(
        self, pipeline, tmp_path, capsys, command
    ):
        data = tmp_path / "bad_bytes.csv"
        lines = pipeline["csv"].read_bytes().splitlines(keepends=True)
        lines[30] = lines[30].replace(b",", b",\xff", 1)
        data.write_bytes(b"".join(lines))
        cfg = write_config(
            tmp_path / "run.cfg",
            **{"model.kind": "ts_mixer", "train.epochs": 1, "data.path": data},
        )
        out = tmp_path / "out"
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "bad_bytes.csv is not UTF-8" in err and "0xff" in err
        assert not out.exists()


class TestEval:
    def test_scores_full_csv(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(pipeline["csv"]),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "metrics_ts_mixer.json").read_text())
        # 160 rows windowed at length 2 leave 159 scored samples
        assert report["n"] == 159
        assert "r2" in capsys.readouterr().out

    def test_missing_csv_exits_3(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(tmp_path / "absent.csv"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_3(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.roph"
        bad.write_bytes(b"ROPX not a checkpoint")
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(bad),
                "--data",
                str(pipeline["csv"]),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 3
        assert "magic" in capsys.readouterr().err

    def test_oversized_array_extent_exits_3(self, pipeline, tmp_path, capsys):
        raw = bytearray(pipeline["ckpt"].read_bytes())
        (json_len,) = struct.unpack("<I", raw[8:12])
        (name_len,) = struct.unpack("<I", raw[12 + json_len : 16 + json_len])
        name = raw[16 + json_len : 16 + json_len + name_len].decode()
        extent_at = 16 + json_len + name_len + 4
        (rank,) = struct.unpack("<I", raw[extent_at - 4 : extent_at])
        shape = struct.unpack(f"<{rank}Q", raw[extent_at : extent_at + 8 * rank])
        raw[extent_at : extent_at + 8] = struct.pack("<Q", 2**40)
        bad = tmp_path / "huge.roph"
        bad.write_bytes(raw)
        out = tmp_path / "out"
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(bad),
                "--data",
                str(pipeline["csv"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert f"array {name!r} of shape {shape}" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_without_preprocessor_exits_3(self, pipeline, tmp_path, capsys):
        spec = ModelSpec(kind="ts_mixer", input_features=8, window_len=2)
        bare = tmp_path / "bare.roph"
        save_checkpoint(bare, build_model(spec, SeededRng(0)), None)
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(bare),
                "--data",
                str(pipeline["csv"]),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 3
        assert "preprocessor" in capsys.readouterr().err

    def test_extra_preprocessor_key_is_corrupt(self, pipeline, tmp_path, capsys):
        ckpt = rewrite_header(
            pipeline["ckpt"], tmp_path / "extra.roph", surprise=1
        )
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(ckpt),
                "--data",
                str(pipeline["csv"]),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 3
        assert "unreadable checkpoint header" in capsys.readouterr().err

    def test_older_header_with_empty_derived_list_still_scores(self, pipeline, tmp_path):
        older = rewrite_header(pipeline["ckpt"], tmp_path / "v1.roph", derived=[])
        for ckpt, out in ((older, "older"), (pipeline["ckpt"], "current")):
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
            assert main(argv + ["--out", str(tmp_path / out)]) == 0
        name = "metrics_ts_mixer.json"
        assert (tmp_path / "older" / name).read_bytes() == (
            tmp_path / "current" / name
        ).read_bytes()

    def test_header_with_derived_features_is_incompatible(self, pipeline, tmp_path, capsys):
        ckpt = rewrite_header(
            pipeline["ckpt"], tmp_path / "ser.roph", derived=["SER"]
        )
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(ckpt),
                "--data",
                str(pipeline["csv"]),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 3
        assert "SER" in capsys.readouterr().err

    def test_missing_target_cell_exits_3_without_artifact(self, pipeline, tmp_path, capsys):
        data = set_cell(pipeline["csv"], tmp_path / "gap.csv", 57, "ROP", "")
        out = tmp_path / "out"
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(data),
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert "row 57" in capsys.readouterr().err
        assert not (out / "metrics_ts_mixer.json").exists()

    def test_inconsistent_preprocessor_header_exits_3(self, pipeline, tmp_path, capsys):
        _, state = load_checkpoint(pipeline["ckpt"])
        ckpt = rewrite_header(
            pipeline["ckpt"], tmp_path / "short.roph", fill_values=state.fill_values[:3]
        )
        out = tmp_path / "out"
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert "fills, means and scales" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_without_its_feature_columns_exits_3(self, pipeline, tmp_path, capsys):
        ckpt = rewrite_header(
            pipeline["ckpt"], tmp_path / "vocab.roph", vocab={"Formation": ["a", "b"]}
        )
        out = tmp_path / "out"
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert "feature names do not match" in capsys.readouterr().err
        assert not out.exists()

    # the fixture's model and preprocessor both window 2 rows, so 2.0
    # passes the comparison and must fail on its type
    @pytest.mark.parametrize("window_len", [0, -1, 1.0, 2.0, True, 1, 3, 8])
    def test_bad_preprocessor_window_len_exits_3(
        self, pipeline, tmp_path, capsys, window_len
    ):
        ckpt = rewrite_header(
            pipeline["ckpt"], tmp_path / "window.roph", window_len=window_len
        )
        out = tmp_path / "out"
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert "window" in capsys.readouterr().err
        assert not out.exists()

    def test_preprocessor_feature_count_must_match_model(self, pipeline, tmp_path, capsys):
        ckpt = rewrite_header(
            pipeline["ckpt"], tmp_path / "narrow.roph", "model_spec", input_features=7
        )
        out = tmp_path / "out"
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert "8 features; the model expects 2 rows and 7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("ts_mixer", "kind", "bogus"),
            ("ts_mixer", "dropout", 1.5),
            ("ts_mixer", "window_len", 0),
            ("ts_mixer", "heads", 3),
            ("ts_mixer", "mixer_hidden", 0),
            ("hybrid_lstm_mixer", "branch_dims", []),
            ("ts_mixer", "mixer_hidden", 128.5),
            ("ts_mixer", "input_features", 8.0),
            ("ts_mixer", "lstm_layers", True),
        ],
    )
    def test_bad_model_spec_in_header_exits_3(
        self, pipeline, tmp_path, capsys, kind, key, value
    ):
        ckpt = pipeline["ckpt"]
        if kind != "ts_mixer":
            _, state = load_checkpoint(ckpt)
            spec = ModelSpec(kind=kind, input_features=8, window_len=2)
            ckpt = tmp_path / f"{kind}.roph"
            save_checkpoint(ckpt, build_model(spec, SeededRng(0)), state)
        bad = rewrite_header(ckpt, tmp_path / "bad.roph", "model_spec", **{key: value})
        out = tmp_path / "out"
        argv = ["eval", "--checkpoint", str(bad), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert "unreadable checkpoint header" in capsys.readouterr().err
        assert not out.exists()

    def test_header_model_larger_than_the_file_exits_3(self, pipeline, tmp_path, capsys):
        """lstm_hidden = 10**6 in a small checkpoint's header would ask
        for 29 TiB; the bytes after the header hold far fewer values."""
        _, state = load_checkpoint(pipeline["ckpt"])
        spec = ModelSpec(kind="baseline_lstm", input_features=len(state.feature_names),
                         window_len=state.window_len, lstm_hidden=4, lstm_layers=1, heads=1)
        ckpt = tmp_path / "small.roph"
        save_checkpoint(ckpt, build_model(spec, SeededRng(0)), state)
        bad = rewrite_header(ckpt, tmp_path / "bad.roph", "model_spec", lstm_hidden=10**6)
        out = tmp_path / "out"
        argv = ["predict", "--checkpoint", str(bad), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert "float64 values" in capsys.readouterr().err
        assert not out.exists()

    def test_column_named_twice_exits_3(self, pipeline, tmp_path, capsys):
        lines = pipeline["csv"].read_text().splitlines()
        data = tmp_path / "twice.csv"
        rows = [lines[0] + ",WOB"] + [line + ",999" for line in lines[1:]]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        argv = ["eval", "--checkpoint", str(pipeline["ckpt"]), "--data", str(data)]
        assert main(argv + ["--out", str(out)]) == 3
        assert "['WOB'] more than once" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def long_well(tmp_path_factory):
    """An untrained window-4 checkpoint and a 2,500-row well with and
    without its target: 2,497 rows to predict, three blocks of
    ``CSV_BLOCK_ROWS`` with a partial last one."""
    root = tmp_path_factory.mktemp("long_well")
    dataset, _ = generate_synthetic(SyntheticSpec(n_rows=2500, seed=11))
    state, prep = fit_pipeline(dataset, window_len=4)
    spec = ModelSpec(kind=TS_MIXER, input_features=prep.train_windows.shape[2], window_len=4)
    ckpt = root / "checkpoint.roph"
    save_checkpoint(ckpt, build_model(spec, SeededRng(3)), state)
    labelled, unlabelled = root / "labelled.csv", root / "unlabelled.csv"
    write_csv(labelled, dataset)
    write_csv(unlabelled, Dataset(dataset.feature_names, dataset.features))
    assert 2 * CSV_BLOCK_ROWS < 2500 - 3 < 3 * CSV_BLOCK_ROWS
    return {"ckpt": ckpt, "labelled": labelled, "unlabelled": unlabelled}


def whole_text_predictions(pred, y_raw, first):
    """``predictions.csv`` as one string, the way ``predict`` formatted
    it before it wrote a block at a time."""
    pred = pred.tolist()
    if y_raw is None:
        lines = ["sample_index,predicted\n"]
        lines += [f"{i},{p!r}\n" for i, p in enumerate(pred, first)]
    else:
        lines = ["sample_index,actual,predicted,abs_error\n"]
        lines += [
            f"{i},{a!r},{p!r},{abs(a - p)!r}\n"
            for i, (a, p) in enumerate(zip(y_raw.tolist(), pred), first)
        ]
    return "".join(lines)


def data_rows(text):
    """Lines of ``predictions.csv`` text, less its header."""
    return text.count("\n") - text.startswith("sample_index")


class WriteTap:
    """Stands in for the file ``replacing`` yields to ``predict``: keeps
    the text of each write, and raises on the ``fail_on``-th write that
    holds data rows."""

    def __init__(self, monkeypatch, fail_on=None):
        self.texts, self.fail_on, real = [], fail_on, cli.replacing

        @contextmanager
        def tapped(path, mode="w"):
            with real(path, mode) as self.file:
                yield self

        monkeypatch.setattr(cli, "replacing", tapped)

    def write(self, text):
        self.texts.append(text)
        if sum(data_rows(t) > 0 for t in self.texts) == self.fail_on:
            raise OSError("no space left on device")
        return self.file.write(text)


class TestPredict:
    @pytest.mark.parametrize("data", ["labelled", "unlabelled"])
    def test_blocks_give_the_whole_text_formatter_bytes(self, long_well, tmp_path, data):
        """Block starts are where an off-by-one ``sample_index`` would show."""
        argv = ["predict", "--checkpoint", str(long_well["ckpt"]), "--data", str(long_well[data])]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        args = argparse.Namespace(checkpoint=long_well["ckpt"], data=long_well[data])
        model, state, (windows, statics, y_raw) = cli._eval_inputs(args, require_target=False)
        assert (y_raw is None) == (data == "unlabelled")
        pred = cli.inverse_target(state, model.predict(windows, statics))
        want = whole_text_predictions(pred, y_raw, state.window_len - 1)
        assert (tmp_path / "predictions.csv").read_bytes() == want.encode("utf-8")

    def test_no_write_holds_more_than_a_block(self, long_well, tmp_path, monkeypatch):
        tap = WriteTap(monkeypatch)
        argv = ["predict", "--checkpoint", str(long_well["ckpt"])]
        argv += ["--data", str(long_well["labelled"]), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert max(map(data_rows, tap.texts)) == CSV_BLOCK_ROWS
        assert (tmp_path / "predictions.csv").read_text() == "".join(tap.texts)
        assert sum(map(data_rows, tap.texts)) == 2500 - 3

    def test_a_failed_block_leaves_the_previous_file(self, long_well, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "predictions.csv").write_bytes(b"previous\r\n")
        tap = WriteTap(monkeypatch, fail_on=2)
        argv = ["predict", "--checkpoint", str(long_well["ckpt"])]
        argv += ["--data", str(long_well["labelled"]), "--out", str(out)]
        assert main(argv) == 3
        assert "no space left on device" in capsys.readouterr().err
        assert sum(data_rows(t) > 0 for t in tap.texts) == 2
        assert (out / "predictions.csv").read_bytes() == b"previous\r\n"
        assert [path.name for path in out.iterdir()] == ["predictions.csv"]

    def test_with_actuals(self, pipeline, tmp_path):
        rc = main(
            [
                "predict",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(pipeline["csv"]),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "sample_index,actual,predicted,abs_error"
        assert len(lines) == 160
        # first full window ends at row index window_len - 1
        first = lines[1].split(",")
        assert first[0] == "1"
        actual, predicted, abs_err = (float(v) for v in first[1:])
        assert abs_err == abs(actual - predicted)

    def test_without_target_column(self, pipeline, tmp_path):
        rows = pipeline["csv"].read_text().splitlines()
        unlabelled = tmp_path / "unlabelled.csv"
        unlabelled.write_text(
            "".join(line.rsplit(",", 1)[0] + "\n" for line in rows)
        )
        rc = main(
            [
                "predict",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(unlabelled),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "sample_index,predicted"
        assert len(lines) == 160

    @pytest.mark.parametrize("column, text", NON_FINITE_CELLS)
    def test_non_finite_cell_exits_3_without_artifact(
        self, pipeline, tmp_path, capsys, column, text
    ):
        data = set_cell(pipeline["csv"], tmp_path / "bad.csv", 30, column, text)
        out = tmp_path / "out"
        rc = main(
            [
                "predict",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(data),
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert f"row 30, column {column!r}" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("text", ["", "nan"])
    def test_missing_target_cell_exits_3_without_artifact(
        self, pipeline, tmp_path, capsys, text
    ):
        data = set_cell(pipeline["csv"], tmp_path / "gap.csv", 5, "ROP", text)
        out = tmp_path / "out"
        rc = main(
            [
                "predict",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(data),
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert "row 5, column 'ROP'" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_overlong_cell_exits_3_without_out_dir(self, pipeline, tmp_path, capsys):
        # csv.field_size_limit() is 131,072 characters by default
        cell = "1" * 200_000
        data = set_cell(pipeline["csv"], tmp_path / "long.csv", 30, "WOB", cell)
        out = tmp_path / "out"
        argv = ["predict", "--checkpoint", str(pipeline["ckpt"]), "--data", str(data)]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "long.csv line 31: field larger than field limit" in err
        assert not out.exists()

    def test_byte_order_mark_is_skipped(self, pipeline, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + pipeline["csv"].read_bytes())
        written = []
        for data, name in ((pipeline["csv"], "plain"), (bom, "bom")):
            argv = ["predict", "--checkpoint", str(pipeline["ckpt"])]
            argv += ["--data", str(data), "--out", str(tmp_path / name)]
            assert main(argv) == 0
            written.append((tmp_path / name / "predictions.csv").read_bytes())
        assert written[0] == written[1]

    def test_zero_scale_in_header_exits_3(self, pipeline, tmp_path, capsys):
        _, state = load_checkpoint(pipeline["ckpt"])
        ckpt = rewrite_header(
            pipeline["ckpt"], tmp_path / "flat.roph", feat_std=[0.0] + state.feat_std[1:]
        )
        out = tmp_path / "out"
        argv = ["predict", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert "positive scales" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("array, value", NON_FINITE_ARRAYS)
    def test_non_finite_array_exits_3(self, pipeline, tmp_path, capsys, array, value):
        ckpt = poison_array(pipeline["ckpt"], tmp_path / "bad.roph", array, value)
        out = tmp_path / "out"
        argv = ["predict", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert f"array {array!r} holds non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_running_variance_exits_3(self, pipeline, tmp_path, capsys):
        name = "mixer.h4_bn.running_var"
        ckpt = poison_array(pipeline["ckpt"], tmp_path / "bad.roph", name, -2.0)
        out = tmp_path / "out"
        argv = ["predict", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert f"array {name!r} holds negative variances" in capsys.readouterr().err
        assert not out.exists()


class TestExplain:
    def test_importance_artifacts(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "explain",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(pipeline["csv"]),
                "--out",
                str(tmp_path),
                "--seed",
                "11",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "importance.csv").read_text().splitlines()
        assert lines[0] == "feature,importance,rank"
        assert len(lines) == 9
        payload = json.loads((tmp_path / "importance.json").read_text())
        assert len(payload["importances"]) == 8
        assert "most influential feature" in capsys.readouterr().out

    def test_missing_target_cell_exits_3_without_artifact(self, pipeline, tmp_path, capsys):
        data = set_cell(pipeline["csv"], tmp_path / "gap.csv", 12, "ROP", "")
        out = tmp_path / "out"
        rc = main(
            [
                "explain",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(data),
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert "row 12" in capsys.readouterr().err
        assert not (out / "importance.csv").exists()
        assert not (out / "importance.json").exists()

    @pytest.mark.parametrize("column, text", NON_FINITE_CELLS)
    def test_non_finite_cell_exits_3_without_artifact(
        self, pipeline, tmp_path, capsys, column, text
    ):
        data = set_cell(pipeline["csv"], tmp_path / "bad.csv", 12, column, text)
        out = tmp_path / "out"
        rc = main(
            [
                "explain",
                "--checkpoint",
                str(pipeline["ckpt"]),
                "--data",
                str(data),
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert f"row 12, column {column!r}" in capsys.readouterr().err
        assert not (out / "importance.csv").exists()
        assert not (out / "importance.json").exists()

    @pytest.mark.parametrize("array, value", NON_FINITE_ARRAYS)
    def test_non_finite_array_exits_3(self, pipeline, tmp_path, capsys, array, value):
        ckpt = poison_array(pipeline["ckpt"], tmp_path / "bad.roph", array, value)
        out = tmp_path / "out"
        argv = ["explain", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert f"array {array!r} holds non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_running_variance_exits_3(self, pipeline, tmp_path, capsys):
        name = "mixer.h4_bn.running_var"
        ckpt = poison_array(pipeline["ckpt"], tmp_path / "bad.roph", name, -2.0)
        out = tmp_path / "out"
        argv = ["explain", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
        assert main(argv + ["--out", str(out)]) == 3
        assert f"array {name!r} holds negative variances" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_table_covers_all_kinds_and_reruns_identically(self, pipeline, tmp_path):
        cfg = write_config(
            tmp_path / "compare.cfg",
            **{
                "train.epochs": 2,
                "train.batch_size": 64,
                "data.path": pipeline["csv"],
            },
        )
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        table = (a / "comparison.csv").read_text()
        lines = table.splitlines()
        assert lines[0] == "model,r2,mae,rmse,mape_pct"
        assert [line.split(",")[0] for line in lines[1:]] == list(MODEL_KINDS)
        for kind in MODEL_KINDS:
            assert (a / f"losscurve_{kind}.csv").exists()
            assert (a / f"metrics_{kind}.json").exists()
        assert table.encode() == (b / "comparison.csv").read_bytes()

    def test_a_failed_kind_leaves_no_out_dir(self, tmp_path, monkeypatch):
        def undefined(kind, *args):
            raise UndefinedMetricError(f"{kind}: r2 is undefined")

        monkeypatch.setattr(cli, "_train_one", undefined)
        cfg = write_config(tmp_path / "compare.cfg", **{"data.synthetic.n_rows": 120})
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    def test_a_diverged_kind_is_marked_failed_and_the_rest_written(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        failed = "hybrid_lstm_mixer"
        train_one = cli._train_one

        def diverge_one_kind(kind, *args):
            if kind == failed:
                raise DivergenceError("non-finite loss at epoch 1")
            return train_one(kind, *args)

        monkeypatch.setattr(cli, "_train_one", diverge_one_kind)
        cfg = write_config(
            tmp_path / "compare.cfg",
            **{"train.epochs": 1, "train.batch_size": 64, "data.path": pipeline["csv"]},
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 4
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == list(MODEL_KINDS)
        assert f"{failed},FAILED,FAILED,FAILED,FAILED" in rows
        for kind in MODEL_KINDS:
            for name in (f"losscurve_{kind}.csv", f"metrics_{kind}.json"):
                assert (out / name).exists() == (kind != failed)
        err = capsys.readouterr().err
        assert f"{failed}: diverged (non-finite loss at epoch 1)" in err
        assert f"diverged: {failed}" in err


# every stdout line of each command, with {out} for --out, {csv} for
# --data and N for a 4-decimal figure
STDOUT = {
    "gen-data": [
        "wrote {out}/synthetic.csv",
        "wrote {out}/synthetic.truth.json",
        "160 rows; best attainable mse N (r2 N)",
    ],
    "train": [
        "wrote {out}/losscurve_ts_mixer.csv",
        "wrote {out}/checkpoint_ts_mixer.roph",
        "wrote {out}/metrics_ts_mixer.json",
        "ts_mixer: test r2 N, mae N, rmse N, mape N%",
    ],
    "eval": [
        "wrote {out}/metrics_ts_mixer.json",
        "ts_mixer on {csv}: r2 N, mae N, rmse N, mape N% (n 159)",
    ],
    "predict": ["wrote {out}/predictions.csv"],
    "compare": [f"{kind}: test r2 N" for kind in MODEL_KINDS] + ["wrote {out}/comparison.csv"],
    "explain": [
        "wrote {out}/importance.csv",
        "wrote {out}/importance.json",
        "most influential feature: {top}",
    ],
}


def overflowing_csv(pipeline, dst):
    """The fixture's CSV with two finite cells whose squares overflow."""
    set_cell(pipeline["csv"], dst, 10, "WOB", "1e300")
    return set_cell(dst, dst, 20, "Standpipe Pressure", "-1e300")


class TestArtifacts:
    def _argv(self, command, pipeline, tmp_path):
        if command in ("gen-data", "train", "compare"):
            cfg = write_config(
                tmp_path / "run.cfg",
                **{
                    "model.kind": "ts_mixer",
                    "model.window_len": 2,
                    "train.epochs": 1,
                    "train.batch_size": 32,
                    "data.path": pipeline["csv"],
                    "data.synthetic.n_rows": 160,
                },
            )
            return [command, "--config", cfg]
        return [command, "--checkpoint", str(pipeline["ckpt"]), "--data", str(pipeline["csv"])]

    @pytest.mark.parametrize("command", list(STDOUT))
    def test_artifacts_land_whole_or_not_at_all(
        self, pipeline, tmp_path, capsys, monkeypatch, command
    ):
        """A run prints its usual lines and leaves no temporary file; when
        the final rename fails, it exits 3 and every earlier artifact
        keeps its bytes."""
        out = tmp_path / "out"
        argv = self._argv(command, pipeline, tmp_path) + ["--out", str(out)]
        assert main(argv) == 0
        text = capsys.readouterr().out
        text = text.replace(str(out), "{out}").replace(str(pipeline["csv"]), "{csv}")
        top = ""
        if command == "explain":
            ranks = (out / "importance.csv").read_text().splitlines()[1:]
            top = next(row.split(",")[0] for row in ranks if row.endswith(",1"))
        want = [line.replace("{top}", top) for line in STDOUT[command]]
        assert re.sub(r"-?\d+\.\d{4}", "N", text).splitlines() == want
        assert not list(out.glob("*.tmp"))

        for path in out.iterdir():
            path.write_bytes(b"previous " + path.read_bytes())
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def refuse(src, dst):
            raise OSError(f"cannot rename onto {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(argv) == 3
        assert "cannot rename onto" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_overflowing_training_column_exits_3_before_out(self, pipeline, tmp_path, capsys):
        data = overflowing_csv(pipeline, tmp_path / "huge.csv")
        cfg = write_config(
            tmp_path / "run.cfg",
            **{"model.kind": "ts_mixer", "train.epochs": 1, "data.path": data},
        )
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert "WOB overflows float64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_overflowing_measure_exits_3_with_out_left_empty(
        self, pipeline, tmp_path, capsys, command
    ):
        data = overflowing_csv(pipeline, tmp_path / "huge.csv")
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--checkpoint", str(pipeline["ckpt"]), "--data", str(data)]
        assert main(argv + ["--out", str(out)]) == 3
        assert "overflow" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestArgumentSurface:
    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in ("model.kind", "train.lr", "data.synthetic.n_rows", "output.dir"):
            assert key in text

    def test_help_table_matches_run_config(self, capsys, tmp_path):
        """Each printed key parses, and its printed default is the default."""
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = capsys.readouterr().out
        table = text.split("and defaults:\n", 1)[1].split("\n\n", 1)[0]
        rows = table.splitlines()
        assert len(rows) == len(fields(RunConfig))
        assert all(row == row.rstrip() for row in rows)
        # keys and defaults start in the same column on every row
        columns = {re.match(r"  (\S+) +(\S+)", row).span(2)[0] for row in rows}
        assert len(columns) == 1 and all(row.startswith("  ") for row in rows)
        lines = []
        for row in rows:
            key, shown = row.split()[:2]
            lines.append(f"{key} = {'' if shown == '(unset)' else shown}\n")
        path = tmp_path / "printed.cfg"
        path.write_text("".join(lines))
        assert parse_config(str(path)) == RunConfig()

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_seed_rejected_where_nothing_is_random(self, pipeline, tmp_path, command):
        argv = [command, "--checkpoint", str(pipeline["ckpt"])]
        argv += ["--data", str(pipeline["csv"]), "--out", str(tmp_path), "--seed", "5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, artifact",
        [("train", "checkpoint_ts_mixer.roph"), ("compare", "comparison.csv")],
    )
    def test_seed_flag_acts_as_the_config_seed(self, pipeline, tmp_path, command, artifact):
        base = {
            "model.kind": "ts_mixer",
            "model.window_len": 2,
            "train.epochs": 1,
            "train.batch_size": 32,
            "data.path": pipeline["csv"],
        }
        plain = write_config(tmp_path / "plain.cfg", **base)
        seeded = write_config(tmp_path / "seeded.cfg", **base, **{"train.seed": 7})
        runs = {"flag": [plain, "--seed", "7"], "config": [seeded], "default": [plain]}
        for name, argv in runs.items():
            assert main([command, "--config", *argv, "--out", str(tmp_path / name)]) == 0
        flag, config, default = ((tmp_path / name / artifact).read_bytes() for name in runs)
        assert flag == config
        assert flag != default

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        rc = main(
            ["gen-data", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes("\ufefftrain.epochs = 1\n".encode("utf-16-le"))  # starts ff fe
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"cannot read config {cfg}" in capsys.readouterr().err
        assert not out.exists()
