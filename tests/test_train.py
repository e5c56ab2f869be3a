"""Loss, optimizer, training loop, and checkpoint format."""

import ctypes
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ropnet.errors import (
    ConfigurationError,
    CheckpointError,
    CorruptCheckpointError,
    DimensionError,
    DivergenceError,
    EmptyBatchError,
    IncompatibleCheckpointError,
)
from ropnet import models, train as train_mod
from ropnet.layers import GradTape, Linear, Param, pack
from ropnet.models import (
    ADVANCED_HYBRID,
    BASELINE_LSTM,
    HYBRID_LSTM_MIXER,
    HYBRID_LSTM_MIXER_ATTENTION,
    MODEL_KINDS,
    TS_MIXER,
    ModelSpec,
    build_model,
)
from ropnet.preprocess import fit_pipeline
from ropnet.tensor import SeededRng, openblas_threads
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


def _has_glibc_mallopt():
    if not sys.platform.startswith("linux"):
        return False
    libc = ctypes.CDLL(None)
    return hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")


def _record_spans(raw: bytes):
    """(start, payload start, end) of each array record in a checkpoint."""
    (json_len,) = struct.unpack("<I", raw[8:12])
    spans, at = [], 12 + json_len
    while at < len(raw):
        (name_len,) = struct.unpack("<I", raw[at : at + 4])
        rank_at = at + 4 + name_len
        (rank,) = struct.unpack("<I", raw[rank_at : rank_at + 4])
        extents = struct.unpack(f"<{rank}Q", raw[rank_at + 4 : rank_at + 4 + 8 * rank])
        payload_at = rank_at + 4 + 8 * rank
        spans.append((at, payload_at, payload_at + 8 * int(np.prod(extents))))
        at = spans[-1][2]
    return spans


# Gate 07's setup: one warm-up epoch, then the minor page faults of a
# further 2-epoch train_model call.
_FAULT_PROBE = """
import resource
from ropnet.data import SyntheticSpec, generate_synthetic
from ropnet.models import ADVANCED_HYBRID, ModelSpec, build_model
from ropnet.preprocess import fit_pipeline
from ropnet.tensor import SeededRng
from ropnet.train import TrainConfig, train_model

_, prep = fit_pipeline(generate_synthetic(SyntheticSpec())[0], window_len=4)
spec = ModelSpec(kind=ADVANCED_HYBRID, input_features=8, window_len=4)
model = build_model(spec, SeededRng(42))
train = (prep.train_windows, prep.train_statics, prep.train_y)
test = (prep.test_windows, prep.test_statics, prep.test_y)
train_model(model, TrainConfig(epochs=1, seed=42), train, test)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_model(model, TrainConfig(epochs=2, seed=42), train, test)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


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

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int_past_float")]
    )
    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
    def test_rates_must_be_finite(self, name, value):
        """A rate that is not a finite float is a configuration error,
        not a divergence found after training has started."""
        with pytest.raises(ConfigurationError, match="finite"):
            TrainConfig(**{name: value})


class TestAdamW:
    def _params(self, rng, n=3):
        return [Param(f"p{i}", rng.normal((2, 2))) for i in range(n)]

    def test_matches_reference_over_steps(self):
        """Ten steps with random gradients track the textbook update."""
        rng = SeededRng(5)
        params = self._params(rng)
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.004)
        state = AdamWState(*pack(params))
        vals = [p.value.reshape(-1).tolist() for p in params]
        ms = [[0.0] * 4 for _ in params]
        vs = [[0.0] * 4 for _ in params]
        for t in range(1, 11):
            grads = [rng.normal((2, 2)) for _ in params]
            for p, g in zip(params, grads):
                p.grad[...] = g
            adamw_step(state, cfg)
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
        state = AdamWState(*pack([p]))
        steps = 1000
        for _ in range(steps):
            p.grad[...] = 0.0
            adamw_step(state, cfg)
        factor = (1.0 - 0.001 * 1e-5) ** steps
        np.testing.assert_allclose(p.value, start * factor, rtol=0, atol=1e-12)

    def test_decay_is_decoupled_from_moments(self):
        """L2-in-gradient would move a zero-gradient parameter through
        the moment estimates; decoupled decay must keep m and v zero."""
        p = Param("p", np.ones((2, 2)))
        state = AdamWState(*pack([p]))
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        p.grad[...] = 0.0
        adamw_step(state, cfg)
        np.testing.assert_array_equal(state.m, np.zeros(4))
        np.testing.assert_array_equal(state.v, np.zeros(4))

    def test_flagship_steps_match_reference(self):
        """The flat-arena update agrees with the textbook loop on every
        entry of the flagship, read through its Params in arena order."""
        spec = ModelSpec(kind=ADVANCED_HYBRID, input_features=8, window_len=4)
        model = build_model(spec, SeededRng(2))
        storage = model.storage()
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.004)
        state = AdamWState(*model.arena())
        rng = SeededRng(3)

        def flat(arrays):
            return np.concatenate([a.reshape(-1) for a in arrays]).tolist()

        vals = flat(p.value for p in storage)
        ms = vs = [0.0] * len(vals)
        for t in range(1, 4):
            tape = GradTape()
            model.zero_grad()
            out = model.forward(rng.normal((16, 4, 8)), rng.normal((16, 8)), tape)
            tape.backward(rng.normal(out.shape))
            grads = flat(p.grad for p in storage)
            adamw_step(state, cfg)
            vals, ms, vs = oracles.adamw_step_loop(
                vals, grads, ms, vs, t, lr=0.01, wd=0.004
            )
        np.testing.assert_allclose(flat(p.value for p in storage), vals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.m, ms, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.v, vs, rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_training_updates_every_param_in_the_arena(self, kind):
        """The optimizer steps the model's own arena: after one epoch
        every Param has moved and still views that arena, so no Param
        was left behind on a copy of it."""
        train, test = _toy_problem()
        model = build_model(_small_spec(kind), SeededRng(3))
        before = {p.name: p.value.copy() for p in model.params()}
        train_model(model, TrainConfig(epochs=1, batch_size=16), train, test)
        values = model.arena()[0]
        for p in model.params():
            assert np.shares_memory(p.value, values), p.name
            assert not np.array_equal(p.value, before[p.name]), p.name

    @pytest.mark.skipif(openblas_threads() is None, reason="needs OpenBLAS control")
    @pytest.mark.parametrize("window_len", [4, 16])
    @pytest.mark.parametrize("kind", [ADVANCED_HYBRID, BASELINE_LSTM])
    def test_training_bits_do_not_depend_on_blas_threads(self, kind, window_len):
        """One epoch at the models' real widths, where OpenBLAS splits
        the larger GEMMs over two threads, steps the arena to the bits
        it reaches on one thread, so neither OPENBLAS_NUM_THREADS nor
        the one thread the two-core runner holds it to while the test
        pass runs changes a trained weight."""
        rng = SeededRng(5)
        windows = rng.normal((320, window_len, 8))
        statics = rng.normal((320, 8))
        y = rng.normal((320, 1))
        train = (windows[:256], statics[:256], y[:256])
        test = (windows[256:], statics[256:], y[256:])
        spec = ModelSpec(kind, input_features=8, window_len=window_len)
        get, put, _ = openblas_threads()
        before = get()
        arenas = []
        try:
            for count in (2, 1):
                model = build_model(spec, SeededRng(3))
                put(count)
                train_model(model, TrainConfig(epochs=1, batch_size=64), train, test)
                arenas.append(model.arena()[0])
        finally:
            put(before)
        np.testing.assert_array_equal(arenas[0], arenas[1])

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

    def test_nan_gradient_raises_with_coordinates(self, monkeypatch):
        """A finite loss whose gradient holds NaN must not reach the
        weights: the global gradient norm is checked every batch."""
        train, test = _toy_problem()
        n_batches = len(_batch_slices(np.arange(60), 16))
        calls = []

        def loss_with_nan_grad(pred, target):
            loss, grad = mse_loss(pred, target)
            calls.append(loss)
            if len(calls) == n_batches:
                grad[0, 0] = np.nan
            return loss, grad

        monkeypatch.setattr(train_mod, "mse_loss", loss_with_nan_grad)
        model = build_model(_small_spec(), SeededRng(3))
        cfg = TrainConfig(epochs=1, batch_size=16)
        with pytest.raises(
            DivergenceError, match=f"gradient norm became nan at epoch 1, batch {n_batches - 1}"
        ):
            train_model(model, cfg, train, test)
        assert all(np.isfinite(p.value).all() for p in model.params())

    def test_zero_grad_and_adamw_step_run_once_per_batch(self, monkeypatch):
        """The bench's step timer wraps ``Model.zero_grad`` and
        ``train.adamw_step``; each must run once per batch by that name."""
        calls = {"zero_grad": 0, "adamw_step": 0}
        zero_grad, step = models.Model.zero_grad, train_mod.adamw_step

        def counted_zero_grad(model):
            calls["zero_grad"] += 1
            return zero_grad(model)

        def counted_step(*args):
            calls["adamw_step"] += 1
            return step(*args)

        monkeypatch.setattr(models.Model, "zero_grad", counted_zero_grad)
        monkeypatch.setattr(train_mod, "adamw_step", counted_step)
        train, test = _toy_problem()
        model = build_model(_small_spec(), SeededRng(3))
        train_model(model, TrainConfig(epochs=2, batch_size=16), train, test)
        n_batches = 2 * len(_batch_slices(np.arange(60), 16))
        assert calls == {"zero_grad": n_batches, "adamw_step": n_batches}

    def test_window16_flagship_step_peak_memory(self):
        """Backward frees the tape as it runs: one window-16 flagship
        step peaks well below the 25.8 MiB a fully kept tape needs."""
        spec = ModelSpec(kind=ADVANCED_HYBRID, input_features=8, window_len=16)
        model = build_model(spec, SeededRng(0))
        rng = SeededRng(1)
        state = AdamWState(*model.arena())
        window, static = rng.normal((64, 16, 8)), rng.normal((64, 8))
        y = rng.normal((64, 1))

        def step():
            tape = GradTape()
            model.zero_grad()
            pred = model.forward(window, static, tape, training=True, rng=rng)
            tape.backward(mse_loss(pred, y)[1])
            adamw_step(state, TrainConfig())

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20, peak / 2**20

    @pytest.mark.skipif(not _has_glibc_mallopt(), reason="needs glibc's mallopt")
    def test_steps_reuse_the_heap(self):
        """With glibc's heap thresholds pinned, steps after the first
        epoch do not fault their activations in again (thousands to
        tens of thousands of faults per epoch under glibc's defaults).
        The probe runs in a fresh process, whose heap starts from those
        defaults."""
        src = os.path.dirname(os.path.dirname(models.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        faults_per_epoch = int(done.stdout.split()[-1]) / 2
        assert faults_per_epoch < 2000, faults_per_epoch

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
    def test_round_trip_formatting(self):
        curve = LossCurve(rows=[(1, 0.5, 0.25), (2, 1.0 / 3.0, 0.125)])
        lines = curve.to_csv().splitlines()
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

    @pytest.mark.parametrize(
        "kind, digest",
        [
            (BASELINE_LSTM, "5e8edc799f3764714688073e58be9f3d66b474e7f5f5b87d3bdbf1fedd6a4ed1"),
            (TS_MIXER, "3eba6687a67da38af8bd876d5a50c711d2524c0387451f275999ef307582dd2a"),
            (HYBRID_LSTM_MIXER, "c730c330aaa902f40649f172f9ded4bfbcfc6fe80efd1882730d8b870d935ccc"),
            (HYBRID_LSTM_MIXER_ATTENTION, "8c9d94918f03718bebf196a0001be2f3969726b281dab27d2c082e3b0d83463d"),
        ],
    )
    def test_fresh_checkpoint_bytes_are_pinned_per_kind(self, tmp_path, kind, digest):
        # the record order is the order in which each module assigns its
        # Params and sub-modules; ts_mixer also pins its BatchNorm buffers
        spec = ModelSpec(kind=kind, input_features=8, window_len=4)
        path = tmp_path / "fresh.roph"
        save_checkpoint(path, build_model(spec, SeededRng(42)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_a_failed_write_keeps_the_last_good_checkpoint(self, tmp_path, monkeypatch):
        """A write that fails after the first record leaves the previous
        file byte for byte and no temporary file beside it."""
        model, path = self._trained(tmp_path)
        before = path.read_bytes()
        arrays = model.state_arrays()

        def first_record_then_fail():
            yield arrays[0]
            raise OSError("disk full")

        monkeypatch.setattr(model, "state_arrays", first_record_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

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

    def test_every_proper_prefix_rejected(self, tmp_path):
        """Truncation at any byte, not only at sampled ones, raises."""
        spec = ModelSpec(kind=BASELINE_LSTM, input_features=3, lstm_hidden=4, lstm_layers=1)
        path = tmp_path / "small.roph"
        save_checkpoint(path, build_model(spec, SeededRng(0)))
        raw = path.read_bytes()  # 1,744 bytes
        cut = tmp_path / "cut.roph"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    def test_header_truncation_rejected(self, tmp_path):
        _, path = self._trained(tmp_path)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_missing_arrays_rejected(self, tmp_path):
        """A file that ends cleanly after too few records is corrupt."""
        _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        # keep the header and exactly one array record
        path.write_bytes(raw[: _record_spans(raw)[0][2]])
        with pytest.raises(CorruptCheckpointError, match="missing"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, match",
        [
            ("extent", "shape"),
            ("rank", "record"),
            ("name_length", "record"),
            ("header_length", "truncated"),
        ],
    )
    def test_oversized_size_field_rejected_before_reading(
        self, tmp_path, field, match
    ):
        """A corrupt size is checked against the model or the bytes left
        in the file, never allocated."""
        _, path = self._trained(tmp_path)
        raw = bytearray(path.read_bytes())
        (json_len,) = struct.unpack("<I", raw[8:12])
        name_at = 12 + json_len
        (name_len,) = struct.unpack("<I", raw[name_at : name_at + 4])
        rank_at = name_at + 4 + name_len
        at, packed = {
            "header_length": (8, struct.pack("<I", 2**32 - 1)),
            "name_length": (name_at, struct.pack("<I", 2**31)),
            "rank": (rank_at, struct.pack("<I", 2**30)),
            "extent": (rank_at + 4, struct.pack("<Q", 2**40)),
        }[field]
        raw[at : at + len(packed)] = packed
        path.write_bytes(raw)
        with pytest.raises(CorruptCheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value", [("lstm_hidden", 10**6), ("lstm_hidden", 100), ("lstm_layers", 40)]
    )
    def test_header_model_larger_than_the_file_rejected_before_building(
        self, tmp_path, monkeypatch, field, value
    ):
        """A header whose model needs more float64 values than the bytes
        after it hold is corrupt, found before any array is allocated:
        lstm_hidden = 10**6 would ask for 29 TiB at once."""
        spec = ModelSpec(kind=BASELINE_LSTM, input_features=3, lstm_hidden=4, lstm_layers=2)
        path = tmp_path / "small.roph"
        save_checkpoint(path, build_model(spec, SeededRng(0)))
        raw = path.read_bytes()
        (json_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + json_len])
        header["model_spec"][field] = value
        packed = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(packed)) + packed + raw[12 + json_len :])

        def no_build(*args):
            raise AssertionError("a model was built from a corrupt header")

        monkeypatch.setattr(train_mod, "build_model", no_build)
        with pytest.raises(CorruptCheckpointError, match="float64 values"):
            load_checkpoint(path)

    def test_duplicate_record_rejected(self, tmp_path):
        model, path = self._trained(tmp_path)
        raw = path.read_bytes()
        first, _, end = _record_spans(raw)[0]
        path.write_bytes(raw[:end] + raw[first:end] + raw[end:])
        # the copy stands where the model's second array belongs
        name, arr = model.state_arrays()[1]
        expected = re.escape(f"array {name!r} of shape {arr.shape}")
        with pytest.raises(CorruptCheckpointError, match=expected):
            load_checkpoint(path)

    def test_swapped_records_rejected(self, tmp_path):
        """Records are read in the model's order, not looked up by name,
        so a file whose records were reordered is corrupt."""
        model, path = self._trained(tmp_path)
        raw = path.read_bytes()
        (a, _, b), (_, _, c) = _record_spans(raw)[:2]
        path.write_bytes(raw[:a] + raw[b:c] + raw[a:b] + raw[c:])
        name, arr = model.state_arrays()[0]
        expected = re.escape(f"array {name!r} of shape {arr.shape}")
        with pytest.raises(CorruptCheckpointError, match=expected):
            load_checkpoint(path)

    def test_byte_after_the_last_record_rejected(self, tmp_path):
        _, path = self._trained(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CorruptCheckpointError, match="follow"):
            load_checkpoint(path)

    def test_every_record_head_byte_flip_rejected(self, tmp_path):
        """Any single-byte change to a record's name length, name, rank
        or extents raises, at every byte of every head."""
        spec = ModelSpec(kind=BASELINE_LSTM, input_features=3, lstm_hidden=4, lstm_layers=1)
        path = tmp_path / "small.roph"
        save_checkpoint(path, build_model(spec, SeededRng(0)))
        raw = path.read_bytes()
        flipped = tmp_path / "flipped.roph"
        heads = [i for start, payload, _ in _record_spans(raw) for i in range(start, payload)]
        assert len(heads) == 440  # 14 records
        for i in heads:
            flipped.write_bytes(raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1 :])
            with pytest.raises(CheckpointError):
                load_checkpoint(flipped)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "noise.roph"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)
