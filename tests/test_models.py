"""Model construction, sizing, and forward behavior for all five kinds."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from ropnet.data import SyntheticSpec, generate_synthetic
from ropnet.errors import ConfigurationError, DimensionError, RangeError, RopnetError
from ropnet.layers import GradTape, Linear, dropout_apply, last_step
from ropnet import tensor
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
from ropnet.preprocess import fit_pipeline, transform
from ropnet.tensor import SeededRng, openblas_threads


def _lstm_count(F, H, layers):
    total = 0
    for layer in range(layers):
        in_dim = F if layer == 0 else H
        total += 4 * (H * in_dim + H * H + H)
    return total


def expected_count(kind, F=8, H=64, layers=2, mixer_hidden=128, branch=(128, 64), ffn=128):
    """Parameter total from the published layer dimensions."""
    if kind == BASELINE_LSTM:
        return _lstm_count(F, H, layers) + (H + 1)
    if kind == TS_MIXER:
        widths = [F, mixer_hidden] + [mixer_hidden] * 4
        linears = sum(
            widths[i + 1] * widths[i] + widths[i + 1] for i in range(len(widths) - 1)
        )
        norms = 2 * mixer_hidden * 5
        return linears + norms + (mixer_hidden + 1)
    branch_linears = branch[0] * F + branch[0] + branch[1] * branch[0] + branch[1]
    fusion = (H + branch[1]) * 1 + 1
    total = _lstm_count(F, H, layers) + branch_linears + fusion
    if kind in (HYBRID_LSTM_MIXER_ATTENTION, ADVANCED_HYBRID):
        total += H  # pooling vector
    if kind == ADVANCED_HYBRID:
        encoder = 4 * H * H  # q, k, v, o projections
        encoder += ffn * H + ffn + H * ffn + H  # two ffn linears
        encoder += 4 * H  # two layer norms
        total += encoder
    return total


def small_spec(kind, window_len=3):
    return ModelSpec(
        kind=kind,
        input_features=5,
        window_len=window_len,
        lstm_hidden=8,
        lstm_layers=2,
        heads=2,
        ffn_dim=12,
        mixer_hidden=10,
        branch_dims=(10, 6),
        dropout=0.2,
    )


def small_inputs(spec, batch=4, seed=3):
    rng = SeededRng(seed)
    window = rng.normal((batch, spec.window_len, spec.input_features))
    static = rng.normal((batch, spec.input_features))
    return window, static


class TestParameterCounts:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_default_dims_match_formula(self, kind):
        spec = ModelSpec(kind=kind, input_features=8, window_len=4)
        model = build_model(spec, SeededRng(0))
        assert model.arena()[0].size == expected_count(kind)

    def test_published_totals_at_default_dims(self):
        """Spot values implied by the layer dimension tables."""
        totals = {
            kind: build_model(
                ModelSpec(kind=kind, input_features=8), SeededRng(0)
            ).arena()[0].size
            for kind in MODEL_KINDS
        }
        assert totals[BASELINE_LSTM] == 51_777
        assert totals[TS_MIXER] == 68_609
        assert totals[HYBRID_LSTM_MIXER] == 61_249
        assert totals[HYBRID_LSTM_MIXER_ATTENTION] == 61_313
        assert totals[ADVANCED_HYBRID] == 94_529

    def test_buffers_not_counted_as_parameters(self):
        spec = ModelSpec(kind=TS_MIXER, input_features=8)
        model = build_model(spec, SeededRng(0))
        n_buffer_entries = sum(arr.size for _, arr in model.buffers())
        assert n_buffer_entries == 2 * 128 * 5
        assert model.arena()[0].size == 68_609


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(kind="perceptron", input_features=8)

    def test_bad_dropout(self):
        """``ModelSpec`` owns the rate's range; ``dropout_apply`` trusts it."""
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                ModelSpec(kind=BASELINE_LSTM, input_features=8, dropout=rate)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(kind=ADVANCED_HYBRID, input_features=8, lstm_hidden=64, heads=5)

    def test_positive_dims(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(kind=BASELINE_LSTM, input_features=0)
        with pytest.raises(ConfigurationError):
            ModelSpec(kind=BASELINE_LSTM, input_features=8, window_len=0)
        for bad in ({"mixer_hidden": 0}, {"branch_dims": ()}, {"branch_dims": (8, 0)}):
            with pytest.raises(ConfigurationError):
                ModelSpec(kind=BASELINE_LSTM, input_features=8, **bad)

    def test_widths_must_be_integers(self):
        for bad in (
            {"input_features": 8.0},
            {"mixer_hidden": 128.5},
            {"lstm_layers": True},
            {"heads": "4"},
            {"branch_dims": (128, 64.0)},
            {"window_len": 2.5},
            {"window_len": True},
            {"window_len": "4"},
            {"ffn_dim": 2.5},
            {"lstm_hidden": True},
            {"branch_dims": ("4", 64)},
        ):
            with pytest.raises(ConfigurationError):
                ModelSpec(**{"kind": BASELINE_LSTM, "input_features": 8, **bad})

    def test_dict_round_trip(self):
        spec = small_spec(ADVANCED_HYBRID)
        again = ModelSpec(**asdict(spec))
        assert again == spec


class TestForward:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_output_shape(self, kind):
        spec = small_spec(kind)
        model = build_model(spec, SeededRng(1))
        window, static = small_inputs(spec)
        out = model.forward(window, static)
        assert out.shape == (4, 1)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_inference_deterministic(self, kind):
        spec = small_spec(kind)
        model = build_model(spec, SeededRng(1))
        window, static = small_inputs(spec)
        np.testing.assert_array_equal(
            model.forward(window, static), model.forward(window, static)
        )

    def test_same_seed_same_parameters(self):
        spec = small_spec(ADVANCED_HYBRID)
        a = build_model(spec, SeededRng(7))
        b = build_model(spec, SeededRng(7))
        for pa, pb in zip(a.params(), b.params()):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_different_seed_different_parameters(self):
        spec = small_spec(ADVANCED_HYBRID)
        a = build_model(spec, SeededRng(7))
        b = build_model(spec, SeededRng(8))
        assert any(
            not np.array_equal(pa.value, pb.value)
            for pa, pb in zip(a.params(), b.params())
        )

    def test_mixer_kind_ignores_window_content(self):
        spec = small_spec(TS_MIXER)
        model = build_model(spec, SeededRng(2))
        window, static = small_inputs(spec)
        out_a = model.forward(window, static)
        out_b = model.forward(window * 100.0, static)
        np.testing.assert_array_equal(out_a, out_b)

    @pytest.mark.parametrize("kind", [BASELINE_LSTM, ADVANCED_HYBRID])
    def test_training_dropout_perturbs_output(self, kind):
        spec = small_spec(kind)
        model = build_model(spec, SeededRng(1))
        window, static = small_inputs(spec)
        eval_out = model.forward(window, static)
        train_out = model.forward(
            window, static, training=True, rng=SeededRng(11)
        )
        assert not np.array_equal(eval_out, train_out)

    @pytest.mark.parametrize("kind", [BASELINE_LSTM, HYBRID_LSTM_MIXER])
    def test_forward_stacks_layers_then_head(self, kind):
        # three layers, so dropout sits between more than one pair
        spec = replace(small_spec(kind), lstm_layers=3)
        model = build_model(spec, SeededRng(1))
        window, static = small_inputs(spec)
        got = model.forward(window, static, GradTape(), training=True, rng=SeededRng(11))
        tape, rng = GradTape(), SeededRng(11)
        h = window
        for layer in range(spec.lstm_layers):
            if layer and kind == BASELINE_LSTM:
                h = dropout_apply(h, spec.dropout, rng, True, tape)
            h = model.lstm.layer_forward(layer, h, tape)
        if kind == BASELINE_LSTM:
            want = model.head.forward(last_step(h, tape), tape)
        else:
            mixed = model.mixer.forward(static, tape, training=True)
            want = model.fusion.forward(
                last_step(h, tape), mixed, tape, dropout_rate=spec.dropout, rng=rng, training=True
            )
        assert got.tobytes() == want.tobytes()

    def test_shape_validation(self):
        # the layers trust their input, so every bad shape must stop here
        for kind in MODEL_KINDS:
            model = build_model(small_spec(kind), SeededRng(1))
            window, static = small_inputs(model.spec)
            bad_pairs = [
                (window[:, :2, :], static),
                (window[:, :, :3], static),
                (window[:, 0, :], static),
                (window, static[:, :3]),
                (window, static[:3]),
                (window, static[:, None, :]),
            ]
            for bad_window, bad_static in bad_pairs:
                with pytest.raises(DimensionError):
                    model.forward(bad_window, bad_static)
                with pytest.raises(DimensionError):
                    model.predict(bad_window, bad_static)
            # row counts that differ are caught before chunking, whatever
            # the chunk size
            windows, statics = small_inputs(model.spec, batch=12)
            for batch_size in (3, 256):
                with pytest.raises(DimensionError):
                    model.predict(windows[:10], statics, batch_size=batch_size)
                with pytest.raises(DimensionError):
                    model.predict(windows, statics[:10], batch_size=batch_size)

class TestPredict:
    def test_batched_prediction_matches_single_pass(self):
        spec = small_spec(ADVANCED_HYBRID)
        model = build_model(spec, SeededRng(5))
        rng = SeededRng(6)
        windows = rng.normal((10, spec.window_len, spec.input_features))
        statics = rng.normal((10, spec.input_features))
        full = model.predict(windows, statics, batch_size=256)
        chunked = model.predict(windows, statics, batch_size=3)
        # matrix kernels may re-associate sums per batch shape: ulp slack
        np.testing.assert_allclose(full, chunked, rtol=0, atol=1e-12)
        assert full.shape == (10,)

    @pytest.mark.parametrize("window_len", [4, 16])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_batch_size_gives_the_same_predictions(self, kind, window_len):
        """Batch sizes on both sides of the 128-row slice agree.

        520 rows are four full slices plus a remainder, so every slice
        boundary and a short last slice are crossed.
        """
        spec = ModelSpec(kind, input_features=8, window_len=window_len)
        model = build_model(spec, SeededRng(11))
        rng = SeededRng(12)
        windows = rng.normal((520, window_len, 8))
        statics = rng.normal((520, 8))
        want = model.predict(windows, statics, batch_size=256)
        for batch_size in (1, 3, 255, 257, 4096):
            got = model.predict(windows, statics, batch_size=batch_size)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_large_batches_do_not_raise_peak_memory(self):
        """Predict memory is bounded by the slice, not by batch_size."""
        spec = ModelSpec(ADVANCED_HYBRID, input_features=8, window_len=16)
        model = build_model(spec, SeededRng(13))
        rng = SeededRng(14)
        windows = rng.normal((4096, 16, 8))
        statics = rng.normal((4096, 8))
        peaks = {}
        for batch_size in (256, 4096):
            tracemalloc.start()
            try:
                model.predict(windows, statics, batch_size=batch_size)
                peaks[batch_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4096] <= 1.5 * peaks[256], peaks

    @pytest.mark.parametrize("batch_size", [-1, 0])
    def test_batch_size_below_one_raises(self, batch_size, monkeypatch):
        """A batch size below 1 is refused before any chunk runs, not
        answered with unwritten memory (-1) or a bare ``range`` error (0)."""
        model = build_model(small_spec(TS_MIXER), SeededRng(15))
        windows, statics = small_inputs(model.spec, batch=5)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran on a refused batch size")

        monkeypatch.setattr(model, "forward", no_forward)
        with pytest.raises(RangeError, match="batch_size"):
            model.predict(windows, statics, batch_size=batch_size)


def _can_run_workers():
    # OpenBLAS control is only looked up on Linux, which has the affinity call
    return openblas_threads() is not None and len(os.sched_getaffinity(0)) >= 2


needs_workers = pytest.mark.skipif(
    not _can_run_workers(), reason="needs OpenBLAS and two usable CPUs"
)


def _record_threads(model, monkeypatch, before_slice=None):
    """Wrap ``model.forward``; returns the list of threads that ran it."""
    forward = model.forward
    threads = []

    def traced(window, static):
        threads.append(threading.get_ident())
        if before_slice is not None:
            before_slice(window)
        return forward(window, static)

    monkeypatch.setattr(model, "forward", traced)
    return threads


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)


def _forked_predict(model, windows, statics):
    """``model.predict`` run in a child forked from this thread."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    with warnings.catch_warnings():
        # newer Pythons warn about forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        proc = ctx.Process(target=lambda: sender.send(model.predict(windows, statics)))
        proc.start()
    try:
        assert receiver.poll(60), "predict in the forked child hung"
        got = receiver.recv()
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=60)
    assert not proc.is_alive()
    return got


class TestParallelPredict:
    @pytest.mark.parametrize("window_len", [4, 16])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_matches_a_serial_loop_of_forward(self, kind, window_len):
        """The workers, with OpenBLAS on one thread, give the very bits
        of forward over the same 128-row slices on the calling thread."""
        spec = ModelSpec(kind, input_features=8, window_len=window_len)
        model = build_model(spec, SeededRng(21))
        rng = SeededRng(22)
        windows = rng.normal((1000, window_len, 8))
        statics = rng.normal((1000, 8))
        size = model.PREDICT_SLICE
        for n in (127, 128, 129, 1000):
            want = np.concatenate([
                model.forward(windows[i : min(i + size, n)], statics[i : min(i + size, n)])[:, 0]
                for i in range(0, n, size)
            ])
            np.testing.assert_array_equal(model.predict(windows[:n], statics[:n]), want)

    @needs_workers
    @pytest.mark.parametrize("window_len", [4, 16])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_the_calling_thread_gives_the_workers_bits(self, kind, window_len, monkeypatch):
        """Without OpenBLAS control predict runs on the calling thread,
        over the same slices, so the bits do not depend on the path."""
        spec = ModelSpec(kind, input_features=8, window_len=window_len)
        model = build_model(spec, SeededRng(29))
        rng = SeededRng(30)
        windows = rng.normal((1000, window_len, 8))
        statics = rng.normal((1000, 8))
        for n in (129, 130, 385, 1000):
            workers = model.predict(windows[:n], statics[:n])
            with monkeypatch.context() as patch:
                patch.setattr(tensor, "openblas_threads", lambda: None)
                serial = model.predict(windows[:n], statics[:n])
            np.testing.assert_array_equal(serial, workers)

    @needs_workers
    def test_slices_run_on_the_workers_with_one_blas_thread(self, monkeypatch):
        model = build_model(small_spec(BASELINE_LSTM), SeededRng(23))
        windows, statics = small_inputs(model.spec, batch=1000)
        get, _, _ = openblas_threads()
        blas_counts = []
        threads = _record_threads(model, monkeypatch, lambda w: blas_counts.append(get()))
        before = get()
        model.predict(windows, statics)
        assert len(threads) == 8
        assert threading.get_ident() not in threads
        assert blas_counts == [1] * 8
        assert get() == before

    @needs_workers
    def test_a_failing_slice_waits_for_the_rest_and_restores_blas(self, monkeypatch):
        """The first slice fails at once; the error reaches the caller
        only after every other slice has finished, with OpenBLAS's
        thread count back where it was."""
        model = build_model(small_spec(TS_MIXER), SeededRng(24))
        windows, statics = small_inputs(model.spec, batch=1000)
        get, put, _ = openblas_threads()
        finished = []

        def slow_or_failing(window):
            if np.shares_memory(window, windows[:1]):
                raise RuntimeError("slice failed")
            time.sleep(0.02)
            finished.append(window.shape[0])

        _record_threads(model, monkeypatch, slow_or_failing)
        original = get()
        put(2)
        try:
            with pytest.raises(RuntimeError, match="slice failed"):
                model.predict(windows, statics)
            assert get() == 2
        finally:
            put(original)
        assert sorted(finished) == [104] + [128] * 6

    @needs_workers
    def test_concurrent_callers_run_serially_while_the_runner_is_busy(self):
        """Four threads predicting at once, on two cores, with thread
        switches forced often: a caller that finds another's run under
        way runs its slices on its own thread, so every result is exact,
        and only the run holding the lock sets and restores the BLAS
        thread count, which ends where it began."""
        model = build_model(small_spec(HYBRID_LSTM_MIXER_ATTENTION), SeededRng(27))
        windows, statics = small_inputs(model.spec, batch=300)
        want = model.predict(windows, statics)
        get, _, _ = openblas_threads()
        before = get()
        results = []

        def caller():
            for _ in range(3):
                results.append(model.predict(windows, statics))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(results) == 12
        for got in results:
            np.testing.assert_array_equal(got, want)
        assert get() == before

    @needs_workers
    def test_a_call_that_finds_the_runner_taken_stays_on_its_thread(self, monkeypatch):
        """With the runner's lock held elsewhere, a 1,000-row predict
        runs all 8 slices on its own thread at once, without waiting for
        the lock, and leaves OpenBLAS's thread count as it found it."""
        model = build_model(small_spec(BASELINE_LSTM), SeededRng(31))
        windows, statics = small_inputs(model.spec, batch=1000)
        want = model.predict(windows, statics)
        get, put, _ = openblas_threads()
        blas_counts = []
        threads = _record_threads(model, monkeypatch, lambda w: blas_counts.append(get()))
        results = []
        caller = threading.Thread(
            target=lambda: results.append(model.predict(windows, statics)), daemon=True
        )
        original = get()
        put(2)
        try:
            with tensor._lock:
                caller.start()
                caller.join(timeout=30)
                assert not caller.is_alive(), "predict waited for the runner's lock"
            assert get() == 2
        finally:
            put(original)
        assert threads == [caller.ident] * 8
        assert blas_counts == [2] * 8
        np.testing.assert_array_equal(results[0], want)

    @needs_workers
    @needs_fork
    def test_a_forked_child_starts_workers_of_its_own(self):
        """A child forked after a parallel predict has none of the
        parent's threads and a predict lock nobody holds; its own
        predict starts workers of its own and finishes."""
        model = build_model(small_spec(BASELINE_LSTM), SeededRng(28))
        windows, statics = small_inputs(model.spec, batch=300)
        want = model.predict(windows, statics)
        np.testing.assert_array_equal(_forked_predict(model, windows, statics), want)

    @needs_workers
    @needs_fork
    def test_a_child_forked_mid_run_predicts_on_its_own_thread(self):
        """A child forked while a run holds the lock inherits the lock
        taken, with no run left to release it; its predict runs the
        slices on its own thread and gives the parent's bits."""
        model = build_model(small_spec(BASELINE_LSTM), SeededRng(32))
        windows, statics = small_inputs(model.spec, batch=300)
        want = model.predict(windows, statics)
        with tensor._lock:
            got = _forked_predict(model, windows, statics)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "rows, batch_size", [(1, 1), (32, 256), (128, 256), (128, 4096), (7, 8)]
    )
    def test_a_single_slice_runs_on_the_calling_thread(self, rows, batch_size, monkeypatch):
        model = build_model(small_spec(HYBRID_LSTM_MIXER), SeededRng(25))
        windows, statics = small_inputs(model.spec, batch=rows)
        threads = _record_threads(model, monkeypatch)
        model.predict(windows, statics, batch_size=batch_size)
        assert threads == [threading.get_ident()]

    def test_without_openblas_control_every_chunk_runs_serially(self, monkeypatch):
        """Predict runs the workers' 128-row slices one after another on
        the calling thread when OpenBLAS's thread count cannot be set."""
        monkeypatch.setattr(tensor, "openblas_threads", lambda: None)
        model = build_model(small_spec(ADVANCED_HYBRID), SeededRng(26))
        windows, statics = small_inputs(model.spec, batch=1000)
        rows = []
        threads = _record_threads(model, monkeypatch, lambda w: rows.append(w.shape[0]))
        model.predict(windows, statics)
        assert threads == [threading.get_ident()] * 8
        assert rows == [128] * 7 + [104]


_SPIN_PROBE = """
import time
import numpy as np
from ropnet.models import BASELINE_LSTM, ModelSpec, build_model
from ropnet.tensor import SeededRng
model = build_model(ModelSpec(BASELINE_LSTM, input_features=8, window_len=4), SeededRng(0))
rng = SeededRng(1)
windows, statics = rng.normal((300, 4, 8)), rng.normal((300, 8))
a = np.random.default_rng(0).normal(size=(512, 512))
a @ a
model.predict(windows, statics)
start = time.process_time()
time.sleep(0.2)
print(time.process_time() - start)
"""


def _can_stop_helpers():
    return _can_run_workers() and openblas_threads()[2] is not None


class TestBlasHelpers:
    @pytest.mark.skipif(not _can_stop_helpers(), reason="needs OpenBLAS's helper stop")
    def test_no_helper_spins_after_a_parallel_predict(self):
        """A 512x512 GEMM on two OpenBLAS threads leaves the helper
        busy-waiting, about 0.1 s of CPU; a parallel predict right after
        it stops the helper, and restoring the thread count does not
        start it spinning again, so a 0.2 s sleep then costs almost no
        CPU.  The probe runs in a fresh process, at OpenBLAS's default
        thread count."""
        src = os.path.dirname(os.path.dirname(tensor.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        env.pop("OPENBLAS_NUM_THREADS", None)
        done = subprocess.run(
            [sys.executable, "-c", _SPIN_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 0.05, done.stdout

    @needs_workers
    def test_helpers_stop_only_on_the_only_python_thread(self, monkeypatch):
        """The helpers are stopped before the workers start and after the
        count is restored, but not while another Python thread could be
        inside OpenBLAS, nor when the count was already 1."""
        get, put, _ = openblas_threads()
        stops = []
        monkeypatch.setattr(
            tensor, "openblas_threads", lambda: (get, put, lambda: stops.append(get()))
        )
        model = build_model(small_spec(BASELINE_LSTM), SeededRng(29))
        windows, statics = small_inputs(model.spec, batch=300)
        before = get()
        put(2)
        try:
            idle = threading.Event()
            other = threading.Thread(target=idle.wait)
            other.start()
            try:
                model.predict(windows, statics)
            finally:
                idle.set()
                other.join()
            assert stops == [] and get() == 2
            if threading.active_count() == 1:
                model.predict(windows, statics)
                assert stops == [1, 2] and get() == 2
            put(1)
            stops.clear()
            model.predict(windows, statics)
            assert stops == [] and get() == 1
        finally:
            put(before)


class TestArena:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_param_views_the_flat_buffers(self, kind):
        model = build_model(small_spec(kind), SeededRng(0))
        values, grads = model.arena()
        params = model.params()
        assert values.size == grads.size == sum(p.value.size for p in params)
        for p in params + model.storage():
            assert np.shares_memory(p.value, values), p.name
            assert np.shares_memory(p.grad, grads), p.name
        # in place through the arena is in place for every Param
        values[...] = 1.5
        grads[...] = -2.0
        for p in params:
            assert (p.value == 1.5).all() and (p.grad == -2.0).all(), p.name
        model.zero_grad()
        assert not grads.any()

    def test_lstm_gates_are_row_blocks_of_contiguous_stacks(self):
        model = build_model(small_spec(ADVANCED_HYBRID), SeededRng(0))
        H = model.spec.lstm_hidden
        gates = {p.name: p for p in model.lstm.params()}
        for stacked in model.lstm.stacked:
            assert stacked.value.flags.c_contiguous and stacked.grad.flags.c_contiguous
            layer, stem = stacked.name.split(".")[1:]
            for k, gate in enumerate("ifog"):
                p = gates[f"lstm.{layer}.{stem}_{gate}"]
                assert np.shares_memory(p.value, stacked.value)
                assert np.shares_memory(p.grad, stacked.grad)
                np.testing.assert_array_equal(p.value, stacked.value[k * H : (k + 1) * H])

    def test_sub_module_cannot_detach_the_models_params(self):
        """Only the Model owns an arena: zeroing a sub-module's gradients
        raises instead of packing its Params into buffers of their own."""
        model = build_model(ModelSpec(kind=ADVANCED_HYBRID, input_features=8), SeededRng(0))
        with pytest.raises(RopnetError, match="pack"):
            model.encoder.zero_grad()
        values = model.arena()[0]
        params = model.params()
        assert len(params) == 43
        for p in params:
            assert np.shares_memory(p.value, values), p.name

    def test_standalone_layer_has_no_arena(self):
        with pytest.raises(RopnetError, match="pack"):
            Linear(3, 2, SeededRng(0), "lin").arena()


class TestStateArrays:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_names_unique_and_params_first(self, kind):
        model = build_model(small_spec(kind), SeededRng(0))
        names = [name for name, _ in model.state_arrays()]
        assert len(names) == len(set(names))
        n_params = len(model.params())
        param_names = {p.name for p in model.params()}
        assert set(names[:n_params]) == param_names

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_state_size_counts_without_building(self, kind):
        """The count a checkpoint header is checked against, for the
        default widths and for other depths and branch chains."""
        for spec in (
            ModelSpec(kind, input_features=8, window_len=4),
            small_spec(kind),
            ModelSpec(kind, input_features=3, lstm_hidden=6, lstm_layers=1, heads=3,
                      ffn_dim=5, mixer_hidden=7, branch_dims=(9,)),
            ModelSpec(kind, input_features=4, lstm_hidden=4, lstm_layers=3, heads=1,
                      branch_dims=(5, 4, 3)),
        ):
            model = build_model(spec, SeededRng(0))
            assert spec.state_size() == sum(a.size for _, a in model.state_arrays())

    def test_gradient_flows_through_every_parameter(self):
        """One backward touches all trainable arrays of the big model."""
        spec = small_spec(ADVANCED_HYBRID)
        model = build_model(spec, SeededRng(9))
        window, static = small_inputs(spec, batch=4)
        tape = GradTape()
        out = model.forward(window, static, tape)
        model.zero_grad()
        tape.backward(np.ones_like(out))
        for p in model.params():
            assert np.any(p.grad != 0.0), f"no gradient reached {p.name}"


class TestPredictOnWindowViews:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_view_predicts_exactly_as_a_contiguous_copy(self, kind):
        """``transform`` hands out read-only overlapping views; predicting
        through them matches a contiguous copy bit for bit."""
        dataset, _ = generate_synthetic(SyntheticSpec(n_rows=600, seed=4))
        state, _ = fit_pipeline(dataset, window_len=4)
        windows, statics, _ = transform(dataset, state)
        assert not windows.flags.c_contiguous
        copy = np.ascontiguousarray(windows)
        spec = ModelSpec(kind=kind, input_features=windows.shape[2], window_len=4)
        model = build_model(spec, SeededRng(8))
        for batch_size in (1, 256):
            np.testing.assert_array_equal(
                model.predict(windows, statics, batch_size=batch_size),
                model.predict(copy, statics, batch_size=batch_size),
            )
