"""Command-line pipeline: generate, train, evaluate, predict, explain.

Runs are configured by a flat ``key = value`` text file ('#' starts a
comment); every key is optional and falls back to the defaults listed
in ``--help``.  All artifacts land under ``--out`` with fixed names,
and every command is deterministic: rerunning with the same inputs
and seed rewrites identical bytes.

Exit codes: 0 success, 2 configuration problem, 3 data or checkpoint
problem, 4 numeric divergence during training.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .data import (
    DatasetSchema,
    FeatureSpec,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    write_csv,
    write_truth,
)
from .errors import (
    ConfigurationError,
    DataError,
    DivergenceError,
    RangeError,
    RopnetError,
)
from .explain import permutation_importance
from .metrics import compute_metrics
from .models import ADVANCED_HYBRID, MODEL_KINDS, ModelSpec, build_model
from .preprocess import fit_pipeline, inverse_target, transform
from .tensor import SeededRng
from .train import TrainConfig, load_checkpoint, save_checkpoint, train_model


def _key(key: str, default, doc: str = ""):
    return field(default=default, metadata={"key": key, "doc": doc})


@dataclass
class RunConfig:
    """Run settings; each field is one config key, parsed as the type of
    its default."""

    model_kind: str = _key(
        "model.kind", ADVANCED_HYBRID, "one of: " + ", ".join(MODEL_KINDS)
    )
    window_len: int = _key(
        "model.window_len", ModelSpec.window_len, "rows per training window"
    )
    lr: float = _key("train.lr", TrainConfig.learning_rate, "AdamW learning rate")
    weight_decay: float = _key(
        "train.weight_decay", TrainConfig.weight_decay, "decoupled decay coefficient"
    )
    batch_size: int = _key("train.batch_size", TrainConfig.batch_size)
    epochs: int = _key("train.epochs", TrainConfig.epochs)
    seed: int = _key("train.seed", TrainConfig.seed, "init, shuffling, dropout")
    data_path: str = _key("data.path", "", "CSV to load; wins over synthetic")
    syn_rows: int = _key("data.synthetic.n_rows", SyntheticSpec.n_rows)
    syn_noise: float = _key("data.synthetic.noise_sigma", SyntheticSpec.noise_sigma)
    syn_regimes: int = _key("data.synthetic.regime_count", SyntheticSpec.regime_count)
    syn_seed: int = _key("data.synthetic.seed", SyntheticSpec.seed)
    out_dir: str = _key("output.dir", "out", "fallback when --out is absent")


_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def _config_doc() -> str:
    """The ``--help`` epilog: one aligned row per config key."""
    shown = {key: str(f.default) or "(unset)" for key, f in _FIELDS.items()}
    key_w = max(map(len, _FIELDS)) + 2
    val_w = max(map(len, shown.values())) + 2
    rows = [
        f"  {key:<{key_w}}{shown[key]:<{val_w}}{f.metadata['doc']}".rstrip()
        for key, f in _FIELDS.items()
    ]
    return (
        "config keys (flat `key = value` lines, '#' comments) and defaults:\n"
        + "\n".join(rows)
        + "\n\n--seed overrides train.seed (data.synthetic.seed for gen-data);\n"
        "--model overrides model.kind; --out overrides output.dir.\n"
    )


def parse_config(path: str | None) -> RunConfig:
    """Read a flat key=value file; unknown keys are rejected."""
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigurationError(
                f"{path}:{line_no}: expected `key = value`, got {text!r}"
            )
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _FIELDS:
            raise ConfigurationError(
                f"{path}:{line_no}: unknown config key {key!r}; known keys: "
                f"{sorted(_FIELDS)}"
            )
        f = _FIELDS[key]
        kind = type(f.default)
        try:
            setattr(cfg, f.name, kind(raw))
        except ValueError:
            raise ConfigurationError(
                f"config key {key!r} needs a {kind.__name__}, got {raw!r}"
            ) from None
    return cfg


def _synthetic(cfg: RunConfig):
    return generate_synthetic(
        SyntheticSpec(
            n_rows=cfg.syn_rows,
            noise_sigma=cfg.syn_noise,
            regime_count=cfg.syn_regimes,
            seed=cfg.syn_seed,
        )
    )


def _prepare(cfg: RunConfig):
    dataset = load_csv(cfg.data_path) if cfg.data_path else _synthetic(cfg)[0]
    return fit_pipeline(dataset, window_len=cfg.window_len)


def _train_one(kind: str, cfg: RunConfig, state, prep):
    spec = ModelSpec(
        kind=kind,
        input_features=prep.train_windows.shape[2],
        window_len=cfg.window_len,
    )
    model = build_model(spec, SeededRng(cfg.seed))
    train_cfg = TrainConfig(
        learning_rate=cfg.lr,
        weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        seed=cfg.seed,
    )
    curve = train_model(
        model,
        train_cfg,
        (prep.train_windows, prep.train_statics, prep.train_y),
        (prep.test_windows, prep.test_statics, prep.test_y),
    )
    pred = inverse_target(state, model.predict(prep.test_windows, prep.test_statics))
    report = compute_metrics(prep.test_y_raw, pred)
    return model, curve, report


def _write(path: str, content: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)
    return path


def _emit(path: str):
    print(f"wrote {path}")


def cmd_gen_data(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.syn_seed = args.seed
    out = _ensure_out(args, cfg)
    dataset, truth = _synthetic(cfg)
    csv_path = os.path.join(out, "synthetic.csv")
    write_csv(csv_path, dataset)
    _emit(csv_path)
    truth_path = os.path.join(out, "synthetic.truth.json")
    write_truth(truth_path, truth)
    _emit(truth_path)
    print(
        f"{dataset.n_rows} rows; best attainable mse {truth['bayes_mse']:.4f} "
        f"(r2 {truth['bayes_r2']:.4f})"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    out = _ensure_out(args, cfg)
    state, prep = _prepare(cfg)
    kind = cfg.model_kind
    model, curve, report = _train_one(kind, cfg, state, prep)
    curve.write_csv(os.path.join(out, f"losscurve_{kind}.csv"))
    _emit(os.path.join(out, f"losscurve_{kind}.csv"))
    ckpt = os.path.join(out, f"checkpoint_{kind}.roph")
    save_checkpoint(ckpt, model, state)
    _emit(ckpt)
    _emit(_write(os.path.join(out, f"metrics_{kind}.json"), report.to_json()))
    print(
        f"{kind}: test r2 {report.r2:.4f}, mae {report.mae:.4f}, "
        f"rmse {report.rmse:.4f}, mape {report.mape_pct:.4f}%"
    )
    return 0


def _eval_inputs(args):
    """Load a checkpoint plus a CSV shaped like its training data."""
    model, state = load_checkpoint(args.checkpoint)
    if state is None:
        raise DataError(
            f"{args.checkpoint} carries no preprocessor state; it cannot "
            f"score raw CSV rows"
        )
    columns = [FeatureSpec(n, "") for n in state.source_names]
    columns += [FeatureSpec(n, "", "categorical") for n in sorted(state.vocab)]
    columns.append(FeatureSpec(state.target_name, "", "target"))
    schema = DatasetSchema(columns=tuple(columns))
    return model, state, schema


def _labelled_windows(args, state, schema):
    """Window a labelled CSV; every target cell must hold a number."""
    dataset = load_csv(args.data, schema)
    bad = np.flatnonzero(np.isnan(dataset.target))
    if bad.size:
        raise DataError(
            f"{args.data}: {state.target_name} is missing in row {bad[0] + 1}"
        )
    return transform(dataset, state)


def cmd_eval(args) -> int:
    model, state, schema = _eval_inputs(args)
    windows, statics, y_raw = _labelled_windows(args, state, schema)
    pred = inverse_target(state, model.predict(windows, statics))
    report = compute_metrics(y_raw, pred)
    out = _ensure_out(args, RunConfig())
    kind = model.spec.kind
    _emit(_write(os.path.join(out, f"metrics_{kind}.json"), report.to_json()))
    print(
        f"{kind} on {args.data}: r2 {report.r2:.4f}, mae {report.mae:.4f}, "
        f"rmse {report.rmse:.4f}, mape {report.mape_pct:.4f}% "
        f"(n {report.n})"
    )
    return 0


def cmd_predict(args) -> int:
    model, state, schema = _eval_inputs(args)
    dataset = load_csv(args.data, schema, require_target=False)
    windows, statics, y_raw = transform(dataset, state)
    pred = inverse_target(state, model.predict(windows, statics))
    out = _ensure_out(args, RunConfig())
    lines = []
    if y_raw is None:
        lines.append("sample_index,predicted\n")
        for i, p in enumerate(pred):
            lines.append(f"{i + state.window_len - 1},{float(p)!r}\n")
    else:
        lines.append("sample_index,actual,predicted,abs_error\n")
        for i, p in enumerate(pred):
            a = float(y_raw[i])
            p = float(p)
            lines.append(
                f"{i + state.window_len - 1},{a!r},{p!r},{abs(a - p)!r}\n"
            )
    path = _write(os.path.join(out, "predictions.csv"), "".join(lines))
    _emit(path)
    return 0


def cmd_compare(args) -> int:
    cfg = _run_config(args)
    out = _ensure_out(args, cfg)
    state, prep = _prepare(cfg)
    rows = ["model,r2,mae,rmse,mape_pct\n"]
    diverged = []
    for kind in MODEL_KINDS:
        try:
            _, curve, report = _train_one(kind, cfg, state, prep)
        except DivergenceError as exc:
            print(f"{kind}: diverged ({exc})", file=sys.stderr)
            rows.append(f"{kind},FAILED,FAILED,FAILED,FAILED\n")
            diverged.append(kind)
            continue
        curve.write_csv(os.path.join(out, f"losscurve_{kind}.csv"))
        _write(os.path.join(out, f"metrics_{kind}.json"), report.to_json())
        rows.append(
            f"{kind},{report.r2!r},{report.mae!r},{report.rmse!r},"
            f"{report.mape_pct!r}\n"
        )
        print(f"{kind}: test r2 {report.r2:.4f}")
    path = _write(os.path.join(out, "comparison.csv"), "".join(rows))
    _emit(path)
    if diverged:
        print(f"diverged: {', '.join(diverged)}", file=sys.stderr)
        return 4
    return 0


def cmd_explain(args) -> int:
    model, state, schema = _eval_inputs(args)
    windows, statics, y_raw = _labelled_windows(args, state, schema)
    raw_model = SimpleNamespace(
        predict=lambda w, s: inverse_target(state, model.predict(w, s))
    )
    seed = args.seed if args.seed is not None else 42
    report = permutation_importance(
        raw_model,
        windows,
        statics,
        y_raw,
        state.feature_names,
        SeededRng(seed),
    )
    out = _ensure_out(args, RunConfig())
    csv_path = os.path.join(out, "importance.csv")
    report.write_csv(csv_path)
    _emit(csv_path)
    _emit(_write(os.path.join(out, "importance.json"), report.to_json()))
    top = report.ranking()[0]
    print(f"most influential feature: {report.feature_names[top]}")
    return 0


def _run_config(args) -> RunConfig:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "model", None):
        cfg.model_kind = args.model
    return cfg


def _ensure_out(args, cfg: RunConfig) -> str:
    out = args.out if args.out else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _add_common(p, config=True, checkpoint=False, data=False, model=False):
    if config:
        p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--out", help="artifact directory (default: output.dir)")
    if checkpoint:
        p.add_argument("--checkpoint", required=True, help=".roph model file")
    if data:
        p.add_argument("--data", required=True, help="input CSV")
    if model:
        p.add_argument(
            "--model", choices=MODEL_KINDS, help="override model.kind"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropnet",
        description="Train and explain drilling rate-of-penetration models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, **kw):
        p = sub.add_parser(
            name,
            help=helptext,
            epilog=_config_doc(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        _add_common(p, **kw)
        p.set_defaults(fn=fn)
        return p

    add("gen-data", cmd_gen_data, "write a synthetic well CSV plus its truth JSON")
    add("train", cmd_train, "train one model; writes checkpoint, loss curve, metrics", model=True)
    add("eval", cmd_eval, "score a checkpoint against a labelled CSV", config=False, checkpoint=True, data=True)
    add("predict", cmd_predict, "emit per-row predictions from a checkpoint", config=False, checkpoint=True, data=True)
    add("compare", cmd_compare, "train all five architectures on shared data")
    add("explain", cmd_explain, "permutation importance for a checkpoint", config=False, checkpoint=True, data=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RopnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
