"""Release gate: the ten properties the library must hold, end to end.

Each test prints one PASS/FAIL line (through the capture so it is
always visible) and then asserts.  Heavy fixtures are session-scoped
in conftest so the whole gate stays inside its runtime budgets.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import train_kind
from ropnet.cli import main as cli_main
from ropnet.errors import IncompatibleCheckpointError
from ropnet.layers import pack
from ropnet.metrics import compute_metrics
from ropnet.models import ADVANCED_HYBRID, HYBRID_LSTM_MIXER, TS_MIXER, ModelSpec, build_model
from ropnet.preprocess import (
    apply_scaler,
    fit_standard_scaler,
    invert_scaler,
    iqr_outlier_report,
    split_train_test,
)
from ropnet.tensor import SeededRng
from ropnet.train import (
    AdamWState,
    TrainConfig,
    adamw_step,
    load_checkpoint,
    save_checkpoint,
)
from test_explain import surrogate_recovery_error, x1_wins
from test_gradients import GRAD_CASES, run_grad_check
from test_layers_forward import FORWARD_CASES
from test_metrics import TEN_POINT, TWO_POINT


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[gate {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_01_layer_gradients_match_finite_differences(capsys):
    """Analytic gradients vs central differences, 3 seeds per layer."""
    started = time.perf_counter()
    worst = {
        name: max(run_grad_check(GRAD_CASES[name], seed) for seed in (0, 1, 2))
        for name in sorted(GRAD_CASES)
    }
    elapsed = time.perf_counter() - started
    peak = max(worst.values())
    ok = peak < 1e-6 and elapsed < 120.0
    announce(
        capsys,
        1,
        ok,
        f"gradient check on {len(worst)} layer cases x 3 seeds: "
        f"worst relative error {peak:.2e} (limit 1e-6), {elapsed:.1f}s of 120s",
    )
    failing = sorted(name for name, err in worst.items() if err >= 1e-6)
    assert not failing, f"gradient mismatch in {failing}"
    assert elapsed < 120.0


def test_02_layer_forwards_match_reference_loops(capsys):
    """Every forward pass against the explicit-loop references."""
    worst = {
        name: max(FORWARD_CASES[name](seed) for seed in (0, 1, 2))
        for name in sorted(FORWARD_CASES)
    }
    peak = max(worst.values())
    ok = peak < 1e-12
    announce(
        capsys,
        2,
        ok,
        f"forward parity on {len(worst)} layer cases x 3 seeds: "
        f"worst abs deviation {peak:.2e} (limit 1e-12)",
    )
    failing = sorted(name for name, err in worst.items() if err >= 1e-12)
    assert not failing, f"forward mismatch in {failing}"


def test_03_metric_arithmetic_and_rmse_floor(capsys):
    """Fixed-vector hand arithmetic at 1e-12, RMSE >= MAE on random data."""
    worst = 0.0
    for actual, predicted in (TWO_POINT, TEN_POINT):
        report = compute_metrics(actual, predicted)
        by_hand = oracles.metrics_loop(np.asarray(actual), np.asarray(predicted))
        for key in ("r2", "mae", "rmse", "mape_pct"):
            worst = max(worst, abs(getattr(report, key) - by_hand[key]))
    worst = max(worst, abs(compute_metrics(*TWO_POINT).mae - 1.5))
    worst = max(worst, abs(compute_metrics(*TWO_POINT).rmse - np.sqrt(2.5)))
    worst = max(worst, abs(compute_metrics(*TWO_POINT).mape_pct - 1.0))

    rng = SeededRng(2024)
    ordered = 0
    for _ in range(1000):
        actual = rng.normal(12) * 50.0 + 120.0
        predicted = actual + rng.normal(12) * 5.0
        report = compute_metrics(actual, predicted)
        ordered += report.rmse >= report.mae
    ok = worst < 1e-12 and ordered == 1000
    announce(
        capsys,
        3,
        ok,
        f"metric gap vs hand arithmetic {worst:.2e} (limit 1e-12); "
        f"rmse >= mae on {ordered}/1000 random vectors",
    )
    assert worst < 1e-12
    assert ordered == 1000


def test_04_adamw_decay_is_decoupled(capsys):
    """Zero gradients shrink weights by exactly (1 - lr*wd) per step."""
    cfg = TrainConfig(learning_rate=0.001, weight_decay=1e-5)
    rng = SeededRng(7)

    class _P:
        def __init__(self, value):
            self.value = value
            self.grad = np.zeros_like(value)

    params = [_P(rng.normal((4, 3))), _P(rng.normal(6))]
    initial = [p.value.copy() for p in params]
    state = AdamWState(*pack(params))
    for _ in range(1000):
        adamw_step(state, cfg)
    shrink = (1.0 - cfg.learning_rate * cfg.weight_decay) ** 1000
    gap = max(
        float(np.max(np.abs(p.value - first * shrink)))
        for p, first in zip(params, initial)
    )
    moments = max(
        float(np.max(np.abs(m))) for m in (state.m, state.v)
    )
    ok = gap < 1e-12 and moments == 0.0
    announce(
        capsys,
        4,
        ok,
        f"1000 zero-gradient steps drift {gap:.2e} from closed-form decay "
        f"(limit 1e-12); moment peak {moments:.1e}",
    )
    assert gap < 1e-12
    assert moments == 0.0


def test_05_preprocessing_contracts(capsys):
    """Scaler round-trip, centered training columns, split, IQR flags."""
    rng = SeededRng(11)
    rows = rng.normal((200, 6)) * 9.0 + 40.0
    mean, std = fit_standard_scaler(rows)
    scaled = apply_scaler(rows, mean, std)
    round_trip = float(np.max(np.abs(invert_scaler(scaled, mean, std) - rows)))
    center = float(np.max(np.abs(scaled.mean(axis=0))))

    split_a = split_train_test(1000)
    split_b = split_train_test(1000)
    split_ok = (
        len(split_a.train) == 800
        and len(split_a.test) == 200
        and np.array_equal(split_a.train, split_b.train)
        and np.array_equal(split_a.test, split_b.test)
    )

    sample = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    flags = iqr_outlier_report(sample)
    flagged = [float(v) for v in sample[flags.indices]]
    iqr_ok = flagged == [100.0]

    ok = round_trip < 1e-9 and center < 1e-9 and split_ok and iqr_ok
    announce(
        capsys,
        5,
        ok,
        f"scaler round-trip {round_trip:.2e} and train-column mean {center:.2e} "
        f"(limits 1e-9); 80/20 split reproducible {split_ok}; "
        f"IQR flags {flagged}",
    )
    assert round_trip < 1e-9
    assert center < 1e-9
    assert split_ok
    assert iqr_ok


def test_06_training_runs_are_deterministic(capsys, tmp_path):
    """The same seed twice: identical weights and loss-curve bytes."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model.kind = advanced_hybrid\n"
        "model.window_len = 2\n"
        "train.epochs = 3\n"
        "train.seed = 42\n"
        "data.synthetic.n_rows = 200\n"
    )
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    curves = [
        (out / "losscurve_advanced_hybrid.csv").read_bytes() for out in outs
    ]
    models = [
        load_checkpoint(out / "checkpoint_advanced_hybrid.roph")[0] for out in outs
    ]
    gap = max(
        float(np.max(np.abs(pa.value - pb.value)))
        for pa, pb in zip(models[0].params(), models[1].params())
    )
    ok = curves[0] == curves[1] and gap < 1e-12
    announce(
        capsys,
        6,
        ok,
        f"repeated seed-42 train: parameter gap {gap:.2e} (limit 1e-12); "
        f"loss curves byte-identical {curves[0] == curves[1]}",
    )
    assert curves[0] == curves[1]
    assert gap < 1e-12


def test_07_flagship_fits_the_benchmark(capsys, benchmark_run):
    """Default benchmark, window 4, 100 epochs: test R2 at least 0.95."""
    r2 = benchmark_run["report"].r2
    elapsed = benchmark_run["elapsed"]
    ok = r2 >= 0.95 and elapsed < 600.0
    announce(
        capsys,
        7,
        ok,
        f"flagship benchmark test r2 {r2:.4f} (floor 0.95) "
        f"in {elapsed:.0f}s of 600s",
    )
    assert r2 >= 0.95
    assert elapsed < 600.0


def test_08_sequence_models_beat_static_mixer(capsys, ordering_runs):
    """Lag-aware architectures outrank the static mixer in 4 of 5 seeds."""
    seeds = sorted(ordering_runs[TS_MIXER])
    flagship_wins = sum(
        ordering_runs[ADVANCED_HYBRID][s] >= ordering_runs[TS_MIXER][s]
        for s in seeds
    )
    hybrid_wins = sum(
        ordering_runs[HYBRID_LSTM_MIXER][s] >= ordering_runs[TS_MIXER][s]
        for s in seeds
    )
    ok = flagship_wins >= 4 and hybrid_wins >= 4
    announce(
        capsys,
        8,
        ok,
        f"r2 ordering over {len(seeds)} dataset seeds: flagship wins "
        f"{flagship_wins}/5, hybrid wins {hybrid_wins}/5 (floor 4/5)",
    )
    assert flagship_wins >= 4
    assert hybrid_wins >= 4


def test_09_checkpoints_round_trip_exactly(capsys, tmp_path):
    """Save, reload, predict identically; refuse foreign or newer files."""
    spec = ModelSpec(
        kind=ADVANCED_HYBRID,
        input_features=5,
        window_len=3,
        lstm_hidden=8,
        heads=2,
        ffn_dim=12,
        mixer_hidden=10,
        branch_dims=(10, 6),
    )
    model = build_model(spec, SeededRng(3))
    rng = SeededRng(4)
    windows, statics = rng.normal((9, 3, 5)), rng.normal((9, 5))
    before = model.predict(windows, statics)
    path = tmp_path / "model.roph"
    save_checkpoint(path, model)
    after = load_checkpoint(path)[0].predict(windows, statics)
    exact = np.array_equal(before, after)

    blob = path.read_bytes()
    rejected = 0
    for corrupt in (b"JUNK" + blob[4:], blob[:4] + b"\xff" + blob[5:]):
        bad = tmp_path / "bad.roph"
        bad.write_bytes(corrupt)
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(bad)
        rejected += 1

    ok = exact and rejected == 2
    announce(
        capsys,
        9,
        ok,
        f"reloaded predictions bitwise equal {exact}; "
        f"bad magic and bad version both rejected ({rejected}/2)",
    )
    assert exact
    assert rejected == 2


def test_10_explanations_find_the_known_driver(capsys):
    """Permutation importance and the local surrogate on known targets."""
    wins = x1_wins(seeds=(1, 2, 3, 4, 5))
    recovery = max(surrogate_recovery_error(seed) for seed in (0, 1, 2))
    ok = wins == 5 and recovery < 1e-6
    announce(
        capsys,
        10,
        ok,
        f"known driver ranked first in {wins}/5 seeds; surrogate weight "
        f"error {recovery:.2e} (limit 1e-6)",
    )
    assert wins == 5
    assert recovery < 1e-6
