"""Command-line pipeline: generate, train, evaluate, predict, explain.

Runs are configured by a flat ``key = value`` text file ('#' starts a
comment); every key is optional and falls back to the defaults listed
in ``--help``.  All artifacts land under ``--out`` with fixed names,
and every command is deterministic: rerunning with the same inputs
and seed rewrites identical bytes.

Exit codes: 0 success, 2 configuration problem, 3 data or checkpoint
problem, 4 numeric divergence during training; each error type carries
its own as ``exit_code``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

from .data import CSV_BLOCK_ROWS, SyntheticSpec, generate_synthetic, load_csv, replacing, write_csv
from .errors import (
    ConfigurationError,
    DataError,
    DivergenceError,
    RopnetError,
    check_count,
)
from .explain import permutation_importance
from .metrics import compute_metrics
from .models import ADVANCED_HYBRID, MODEL_KINDS, TS_MIXER, ModelSpec, build_model
from .preprocess import fit_pipeline, input_schema, inverse_target, transform
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
    except (OSError, UnicodeDecodeError) as exc:
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
            value = kind(raw)
        except ValueError:
            raise ConfigurationError(
                f"config key {key!r} needs a {kind.__name__}, got {raw!r}"
            ) from None
        if kind is float and not math.isfinite(value):
            raise ConfigurationError(
                f"config key {key!r} needs a finite number, got {raw!r}"
            )
        setattr(cfg, f.name, value)
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


def _train_config(cfg: RunConfig, kinds) -> TrainConfig:
    """The training settings, checked for ``kinds`` before any data is
    read or ``--out`` made."""
    check_count("model.window_len", cfg.window_len)
    if not set(kinds) <= set(MODEL_KINDS):
        raise ConfigurationError(
            f"unknown model.kind {cfg.model_kind!r}; choose from {MODEL_KINDS}"
        )
    if cfg.batch_size == 1 and TS_MIXER in kinds:
        raise ConfigurationError(
            f"train.batch_size = 1 leaves the batch norm of {TS_MIXER} with "
            f"single-sample batches, whose statistics are undefined; use 2 or more"
        )
    return TrainConfig(
        learning_rate=cfg.lr,
        weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        seed=cfg.seed,
    )


def _prepare(cfg: RunConfig):
    dataset = load_csv(cfg.data_path) if cfg.data_path else _synthetic(cfg)[0]
    return fit_pipeline(dataset, window_len=cfg.window_len)


def _train_one(kind: str, train_cfg: TrainConfig, state, prep):
    spec = ModelSpec(
        kind=kind,
        input_features=prep.train_windows.shape[2],
        window_len=state.window_len,
    )
    model = build_model(spec, SeededRng(train_cfg.seed))
    curve = train_model(
        model,
        train_cfg,
        (prep.train_windows, prep.train_statics, prep.train_y),
        (prep.test_windows, prep.test_statics, prep.test_y),
    )
    pred = inverse_target(state, model.predict(prep.test_windows, prep.test_statics))
    report = compute_metrics(prep.test_y_raw, pred)
    return model, curve, report


def _write(out: str, name: str, text: str):
    """Write one formatted artifact whole to ``out``/``name`` and say so."""
    path = os.path.join(out, name)
    with replacing(path) as f:
        f.write(text)
    print(f"wrote {path}")


def cmd_gen_data(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.syn_seed = args.seed
    dataset, truth = _synthetic(cfg)
    truth_json = json.dumps(truth, indent=2, sort_keys=True) + "\n"
    out = _ensure_out(args, cfg)
    csv_path = os.path.join(out, "synthetic.csv")
    write_csv(csv_path, dataset)
    print(f"wrote {csv_path}")
    _write(out, "synthetic.truth.json", truth_json)
    print(
        f"{dataset.n_rows} rows; best attainable mse {truth['bayes_mse']:.4f} "
        f"(r2 {truth['bayes_r2']:.4f})"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    kind = cfg.model_kind
    train_cfg = _train_config(cfg, (kind,))
    state, prep = _prepare(cfg)
    model, curve, report = _train_one(kind, train_cfg, state, prep)
    curve_csv, metrics_json = curve.to_csv(), report.to_json()
    out = _ensure_out(args, cfg)
    _write(out, f"losscurve_{kind}.csv", curve_csv)
    ckpt = os.path.join(out, f"checkpoint_{kind}.roph")
    save_checkpoint(ckpt, model, state)
    print(f"wrote {ckpt}")
    _write(out, f"metrics_{kind}.json", metrics_json)
    print(
        f"{kind}: test r2 {report.r2:.4f}, mae {report.mae:.4f}, "
        f"rmse {report.rmse:.4f}, mape {report.mape_pct:.4f}%"
    )
    return 0


def _eval_inputs(args, require_target=True):
    """Load a checkpoint and window a CSV shaped like its training data."""
    model, state = load_checkpoint(args.checkpoint)
    if state is None:
        raise DataError(
            f"{args.checkpoint} carries no preprocessor state; it cannot "
            f"score raw CSV rows"
        )
    dataset = load_csv(args.data, input_schema(state), require_target)
    return model, state, transform(dataset, state)


def cmd_eval(args) -> int:
    model, state, (windows, statics, y_raw) = _eval_inputs(args)
    pred = inverse_target(state, model.predict(windows, statics))
    report = compute_metrics(y_raw, pred)
    metrics_json = report.to_json()
    kind = model.spec.kind
    _write(_ensure_out(args, RunConfig()), f"metrics_{kind}.json", metrics_json)
    print(
        f"{kind} on {args.data}: r2 {report.r2:.4f}, mae {report.mae:.4f}, "
        f"rmse {report.rmse:.4f}, mape {report.mape_pct:.4f}% "
        f"(n {report.n})"
    )
    return 0


def cmd_predict(args) -> int:
    model, state, (windows, statics, y_raw) = _eval_inputs(
        args, require_target=False
    )
    pred = inverse_target(state, model.predict(windows, statics))
    path = os.path.join(_ensure_out(args, RunConfig()), "predictions.csv")
    with replacing(path) as f:
        f.write("sample_index,predicted\n" if y_raw is None
                else "sample_index,actual,predicted,abs_error\n")
        # a block at a time, so the text held does not grow with the rows
        for start in range(0, len(pred), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            rows = enumerate(pred[block].tolist(), state.window_len - 1 + start)
            if y_raw is None:
                lines = [f"{i},{p!r}\n" for i, p in rows]
            else:
                actual = y_raw[block].tolist()
                lines = [f"{i},{a!r},{p!r},{abs(a - p)!r}\n" for (i, p), a in zip(rows, actual)]
            f.write("".join(lines))
    print(f"wrote {path}")
    return 0


def cmd_compare(args) -> int:
    cfg = _run_config(args)
    train_cfg = _train_config(cfg, MODEL_KINDS)
    state, prep = _prepare(cfg)
    rows = ["model,r2,mae,rmse,mape_pct\n"]
    artifacts, diverged = {}, []
    for kind in MODEL_KINDS:
        try:
            _, curve, report = _train_one(kind, train_cfg, state, prep)
        except DivergenceError as exc:
            print(f"{kind}: diverged ({exc})", file=sys.stderr)
            rows.append(f"{kind},FAILED,FAILED,FAILED,FAILED\n")
            diverged.append(kind)
            continue
        artifacts[f"losscurve_{kind}.csv"] = curve.to_csv()
        artifacts[f"metrics_{kind}.json"] = report.to_json()
        rows.append(
            f"{kind},{report.r2!r},{report.mae!r},{report.rmse!r},"
            f"{report.mape_pct!r}\n"
        )
        print(f"{kind}: test r2 {report.r2:.4f}")
    out = _ensure_out(args, cfg)
    for name, text in artifacts.items():
        with replacing(os.path.join(out, name)) as f:
            f.write(text)
    _write(out, "comparison.csv", "".join(rows))
    if diverged:
        print(f"diverged: {', '.join(diverged)}", file=sys.stderr)
        return 4
    return 0


def cmd_explain(args) -> int:
    model, state, (windows, statics, y_raw) = _eval_inputs(args)
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
    importance_csv, importance_json = report.to_csv(), report.to_json()
    out = _ensure_out(args, RunConfig())
    _write(out, "importance.csv", importance_csv)
    _write(out, "importance.json", importance_json)
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


_OPTIONS = {
    "--config": dict(help="flat key=value config file"),
    "--seed": dict(type=int, help="override the run seed"),
    "--out": dict(help="artifact directory (default: output.dir)"),
    "--checkpoint": dict(required=True, help=".roph model file"),
    "--data": dict(required=True, help="input CSV"),
    "--model": dict(choices=MODEL_KINDS, help="override model.kind"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropnet",
        description="Train and explain drilling rate-of-penetration models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, options):
        p = sub.add_parser(
            name,
            help=helptext,
            epilog=_config_doc(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(fn=fn)

    run, scoring = "--config --seed --out", "--out --checkpoint --data"
    add("gen-data", cmd_gen_data, "write a synthetic well CSV plus its truth JSON", run)
    add("train", cmd_train, "train one model; writes checkpoint, loss curve, metrics", run + " --model")
    add("eval", cmd_eval, "score a checkpoint against a labelled CSV", scoring)
    add("predict", cmd_predict, "emit per-row predictions from a checkpoint", scoring)
    add("compare", cmd_compare, "train all five architectures on shared data", run)
    add("explain", cmd_explain, "permutation importance for a checkpoint", "--seed " + scoring)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RopnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    sys.exit(main())
