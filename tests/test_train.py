"""Loss, optimizer, training loop, and checkpoint format."""

import hashlib
import struct

import numpy as np
import pytest

from ropnet.errors import (
    ConfigurationError,
    CorruptCheckpointError,
    DimensionError,
    DivergenceError,
    EmptyBatchError,
    IncompatibleCheckpointError,
)
from ropnet.layers import GradTape, Linear, Param
from ropnet.models import ADVANCED_HYBRID, BASELINE_LSTM, ModelSpec, build_model
from ropnet.preprocess import fit_pipeline
from ropnet.tensor import SeededRng
from ropnet.train import (
    AdamWState,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    LossCurve,
    TrainConfig,
    adamw_step,
    evaluate_mse,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    train_model,
    _batch_slices,
)

import oracles


class TestMseLoss:
    def test_value_and_gradient(self):
        pred = np.array([[1.0], [2.0], [4.0]])
        target = np.array([1.0, 1.0, 1.0])
        loss, grad = mse_loss(pred, target)
        assert abs(loss - (0.0 + 1.0 + 9.0) / 3.0) < 1e-15
        np.testing.assert_allclose(grad, (2.0 / 3.0) * np.array([[0.0], [1.0], [3.0]]))

    def test_gradient_matches_finite_differences(self):
        rng = SeededRng(0)
        pred = rng.normal((5, 1))
        target = rng.normal((5, 1))
        _, grad = mse_loss(pred, target)
        numeric = oracles.numeric_grad(lambda: mse_loss(pred, target)[0], pred)
        assert oracles.relative_error(grad, numeric) < 1e-6

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            mse_loss(np.zeros((0, 1)), np.zeros(0))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            mse_loss(np.zeros((3, 1)), np.zeros(4))


class TestTrainConfig:
    def test_defaults_match_published_table(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.weight_decay == 1e-5
        assert cfg.batch_size == 64
        assert cfg.epochs == 100
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(weight_decay=-1e-5)
        with pytest.raises(ConfigurationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(beta1=1.0)


class TestAdamW:
    def _params(self, rng, n=3):
        return [Param(f"p{i}", rng.normal((2, 2))) for i in range(n)]

    def test_matches_reference_over_steps(self):
        """Ten steps with random gradients track the textbook update."""
        rng = SeededRng(5)
        params = self._params(rng)
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.004)
        state = AdamWState(params)
        vals = [p.value.reshape(-1).tolist() for p in params]
        ms = [[0.0] * 4 for _ in params]
        vs = [[0.0] * 4 for _ in params]
        for t in range(1, 11):
            grads = [rng.normal((2, 2)) for _ in params]
            for p, g in zip(params, grads):
                p.grad[...] = g
            adamw_step(params, state, cfg)
            for i, g in enumerate(grads):
                vals[i], ms[i], vs[i] = oracles.adamw_step_loop(
                    vals[i],
                    g.reshape(-1).tolist(),
                    ms[i],
                    vs[i],
                    t,
                    lr=0.01,
                    wd=0.004,
                )
            for p, want in zip(params, vals):
                np.testing.assert_allclose(
                    p.value.reshape(-1), want, rtol=0, atol=1e-12
                )

    def test_zero_gradient_pure_decay(self):
        """No gradient: value shrinks by exactly (1 - lr*wd) each step."""
        start = np.array([[2.0, -3.0], [0.5, 1.0]])
        p = Param("p", start.copy())
        cfg = TrainConfig()  # lr 0.001, wd 1e-5
        state = AdamWState([p])
        steps = 1000
        for _ in range(steps):
            p.grad[...] = 0.0
            adamw_step([p], state, cfg)
        factor = (1.0 - 0.001 * 1e-5) ** steps
        np.testing.assert_allclose(p.value, start * factor, rtol=0, atol=1e-12)

    def test_decay_is_decoupled_from_moments(self):
        """L2-in-gradient would move a zero-gradient parameter through
        the moment estimates; decoupled decay must keep m and v zero."""
        p = Param("p", np.ones((2, 2)))
        state = AdamWState([p])
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        p.grad[...] = 0.0
        adamw_step([p], state, cfg)
        np.testing.assert_array_equal(state.m[0], np.zeros((2, 2)))
        np.testing.assert_array_equal(state.v[0], np.zeros((2, 2)))


class TestBatchSlices:
    def test_even_split(self):
        slices = _batch_slices(np.arange(8), 4)
        assert [len(s) for s in slices] == [4, 4]

    def test_trailing_singleton_folded(self):
        slices = _batch_slices(np.arange(9), 4)
        assert [len(s) for s in slices] == [4, 5]

    def test_trailing_pair_kept(self):
        slices = _batch_slices(np.arange(10), 4)
        assert [len(s) for s in slices] == [4, 4, 2]

    def test_single_batch(self):
        slices = _batch_slices(np.arange(3), 64)
        assert [len(s) for s in slices] == [3]

    def test_covers_all_indices_once(self):
        perm = SeededRng(1).permutation(23)
        merged = np.concatenate(_batch_slices(perm, 5))
        np.testing.assert_array_equal(np.sort(merged), np.arange(23))


def _toy_problem(n=80, seed=0):
    """Linear-ish regression tensors in scaled space."""
    rng = SeededRng(seed)
    windows = rng.normal((n, 3, 4))
    statics = windows[:, -1, :].copy()
    w = np.array([1.0, -0.5, 0.25, 0.75])
    y = (statics @ w + 0.2 * windows[:, 0, :] @ w)[:, None] * 0.5
    return (windows[:60], statics[:60], y[:60]), (windows[60:], statics[60:], y[60:])


def _small_spec(kind=BASELINE_LSTM):
    return ModelSpec(
        kind=kind,
        input_features=4,
        window_len=3,
        lstm_hidden=8,
        lstm_layers=2,
        heads=2,
        ffn_dim=12,
        mixer_hidden=10,
        branch_dims=(10, 6),
        dropout=0.1,
    )


class TestTrainModel:
    def test_loss_decreases_and_curve_complete(self):
        train, test = _toy_problem()
        model = build_model(_small_spec(), SeededRng(3))
        cfg = TrainConfig(epochs=12, batch_size=16, seed=7)
        curve = train_model(model, cfg, train, test)
        assert len(curve.rows) == 12
        assert curve.rows[0][0] == 1 and curve.rows[-1][0] == 12
        first_train = curve.rows[0][1]
        assert curve.rows[-1][1] < first_train
        assert np.isfinite(curve.final_test_mse)

    def test_same_seed_bitwise_reproducible(self):
        train, test = _toy_problem()
        cfg = TrainConfig(epochs=4, batch_size=16, seed=11)
        runs = []
        for _ in range(2):
            model = build_model(_small_spec(ADVANCED_HYBRID), SeededRng(3))
            curve = train_model(model, cfg, train, test)
            runs.append((model, curve))
        for pa, pb in zip(runs[0][0].params(), runs[1][0].params()):
            np.testing.assert_array_equal(pa.value, pb.value)
        assert runs[0][1].rows == runs[1][1].rows

    def test_seed_changes_trajectory(self):
        train, test = _toy_problem()
        finals = []
        for seed in (1, 2):
            model = build_model(_small_spec(), SeededRng(3))
            curve = train_model(
                model, TrainConfig(epochs=2, batch_size=16, seed=seed), train, test
            )
            finals.append(curve.final_test_mse)
        assert finals[0] != finals[1]

    def test_divergence_raises_with_coordinates(self):
        train, test = _toy_problem()
        model = build_model(_small_spec(), SeededRng(3))
        # step size far beyond stability: parameters blow up to inf
        cfg = TrainConfig(learning_rate=1e22, epochs=5, batch_size=16)
        with pytest.raises(DivergenceError, match="epoch"):
            train_model(model, cfg, train, test)

    def test_empty_training_set_rejected(self):
        train, test = _toy_problem()
        empty = (train[0][:0], train[1][:0], train[2][:0])
        model = build_model(_small_spec(), SeededRng(3))
        with pytest.raises(EmptyBatchError):
            train_model(model, TrainConfig(epochs=1), empty, test)

    def test_evaluate_mse_matches_direct(self):
        train, _ = _toy_problem()
        model = build_model(_small_spec(), SeededRng(3))
        got = evaluate_mse(model, *train)
        pred = model.predict(train[0], train[1])
        want = float(np.mean((pred - train[2].reshape(-1)) ** 2))
        assert abs(got - want) < 1e-15


class TestLossCurveCsv:
    def test_round_trip_formatting(self, tmp_path):
        curve = LossCurve(rows=[(1, 0.5, 0.25), (2, 1.0 / 3.0, 0.125)])
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_mse,test_mse"
        assert len(lines) == 3
        _, train_mse, _ = lines[2].split(",")
        assert float(train_mse) == 1.0 / 3.0  # repr round-trips exactly


class TestCheckpoints:
    def _trained(self, tmp_path):
        train, test = _toy_problem()
        model = build_model(_small_spec(ADVANCED_HYBRID), SeededRng(3))
        train_model(model, TrainConfig(epochs=2, batch_size=16), train, test)
        path = tmp_path / "model.roph"
        save_checkpoint(path, model)
        return model, path

    def test_round_trip_exact(self, tmp_path):
        model, path = self._trained(tmp_path)
        loaded, pre = load_checkpoint(path)
        assert pre is None
        assert loaded.spec == model.spec
        for (na, va), (nb, vb) in zip(model.state_arrays(), loaded.state_arrays()):
            assert na == nb
            np.testing.assert_array_equal(va, vb)

    def test_predictions_survive_round_trip(self, tmp_path):
        model, path = self._trained(tmp_path)
        loaded, _ = load_checkpoint(path)
        _, test = _toy_problem()
        np.testing.assert_array_equal(
            model.predict(test[0], test[1]), loaded.predict(test[0], test[1])
        )

    def test_preprocessor_state_embedded(self, tmp_path):
        from ropnet.data import SyntheticSpec, generate_synthetic

        dataset, _ = generate_synthetic(SyntheticSpec(n_rows=120, seed=2))
        state, prep = fit_pipeline(dataset, window_len=3)
        spec = ModelSpec(
            kind=BASELINE_LSTM, input_features=8, window_len=3, lstm_hidden=8
        )
        model = build_model(spec, SeededRng(0))
        path = tmp_path / "with_pre.roph"
        save_checkpoint(path, model, state)
        _, loaded_state = load_checkpoint(path)
        assert loaded_state == state

    def test_fresh_checkpoint_bytes_are_pinned(self, tmp_path):
        # the stacked LSTM gates are still stored one array per gate, so
        # version-1 files written before the stacking load unchanged
        spec = ModelSpec(kind=ADVANCED_HYBRID, input_features=8, window_len=4)
        path = tmp_path / "fresh.roph"
        save_checkpoint(path, build_model(spec, SeededRng(42)))
        assert CHECKPOINT_VERSION == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "fd7f56977f3d72eea981e15409c44f2bad370c881794ac4dbbf2442acac389ed"
        )

    def test_bad_magic_rejected(self, tmp_path):
        _, path = self._trained(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"ROPX"
        path.write_bytes(raw)
        with pytest.raises(IncompatibleCheckpointError, match="magic"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        _, path = self._trained(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", CHECKPOINT_VERSION + 1)
        path.write_bytes(raw)
        with pytest.raises(IncompatibleCheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_header_truncation_rejected(self, tmp_path):
        _, path = self._trained(tmp_path)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_missing_arrays_rejected(self, tmp_path):
        """A file that ends cleanly after too few records is corrupt."""
        _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        (json_len,) = struct.unpack("<I", raw[8:12])
        offset = 12 + json_len
        # keep the header and exactly one array record
        (name_len,) = struct.unpack("<I", raw[offset : offset + 4])
        rec = offset + 4 + name_len
        (rank,) = struct.unpack("<I", raw[rec : rec + 4])
        rec += 4
        extents = [
            struct.unpack("<Q", raw[rec + 8 * i : rec + 8 * (i + 1)])[0]
            for i in range(rank)
        ]
        rec += 8 * rank + 8 * int(np.prod(extents))
        path.write_bytes(raw[:rec])
        with pytest.raises(CorruptCheckpointError, match="missing"):
            load_checkpoint(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "noise.roph"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)
