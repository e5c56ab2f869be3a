"""End-to-end runs of the command-line pipeline.

Everything here goes through ``main(argv)`` in-process with tiny row
counts and epoch budgets, so the whole module stays fast while still
exercising the real artifact formats and exit codes.
"""

import json
import re
import struct
from dataclasses import fields

import pytest

from ropnet.cli import RunConfig, main, parse_config
from ropnet.errors import ConfigurationError
from ropnet.models import MODEL_KINDS, ModelSpec, build_model
from ropnet.tensor import SeededRng
from ropnet.train import save_checkpoint


def write_config(path, **overrides):
    lines = ["# smoke-test configuration\n"]
    for key, value in overrides.items():
        lines.append(f"{key} = {value}\n")
    path.write_text("".join(lines))
    return str(path)


def rewrite_preprocessor(src, dst, **changes):
    """Copy a checkpoint with keys of its preprocessor header replaced."""
    blob = src.read_bytes()
    (json_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + json_len])
    header["preprocessor"].update(changes)
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


NON_FINITE_CELLS = [("WOB", "inf"), ("ROP", "-inf"), ("Torque", "1e999")]


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
        rc = main(["train", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 4
        assert "epoch" in capsys.readouterr().err

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
        assert list(out.iterdir()) == []


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
        ckpt = rewrite_preprocessor(
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
        older = rewrite_preprocessor(pipeline["ckpt"], tmp_path / "v1.roph", derived=[])
        for ckpt, out in ((older, "older"), (pipeline["ckpt"], "current")):
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(pipeline["csv"])]
            assert main(argv + ["--out", str(tmp_path / out)]) == 0
        name = "metrics_ts_mixer.json"
        assert (tmp_path / "older" / name).read_bytes() == (
            tmp_path / "current" / name
        ).read_bytes()

    def test_header_with_derived_features_is_incompatible(self, pipeline, tmp_path, capsys):
        ckpt = rewrite_preprocessor(
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


class TestPredict:
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

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        rc = main(
            ["gen-data", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err
