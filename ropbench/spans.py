"""Timing probes wrapped around ropnet's public calls from outside.

Nothing under ``src/ropnet`` changes: :class:`Probes` swaps public
functions and methods for wrappers while it is installed and puts the
originals back when it is removed.  Two kinds of wrapper exist:

- boundary probes, always on, time the training steps and epochs that
  the end-to-end metrics need.  A step runs from ``Model.zero_grad`` to
  the return of ``adamw_step``; an epoch ends when ``evaluate_mse``
  (the per-epoch test pass) returns.
- spans, on only while ``tracing`` is true, record name, start, end and
  the enclosing span for every wrapped call.  A span's self time is its
  duration minus the time covered by its child spans.  Backward time
  per layer comes from wrapping the closure each layer records on the
  tape, so those spans are children of ``layers.tape.backward``.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import ropnet.cli as cli
import ropnet.data as data
import ropnet.explain as explain
import ropnet.layers as layers
import ropnet.metrics as metrics
import ropnet.models as models
import ropnet.preprocess as preprocess
import ropnet.tensor as tensor
import ropnet.train as train

now = time.perf_counter

# (owner, attribute, span name).  A function imported into several
# namespaces is listed once per namespace so that every caller hits the
# wrapper.
FUNCTION_SPANS = [
    (train, "train_model", "train.train_model"),
    (train, "adamw_step", "train.adamw_step"),
    (train, "mse_loss", "train.mse_loss"),
    (train, "evaluate_mse", "train.evaluate_mse"),
    (train, "save_checkpoint", "train.save_checkpoint"),
    (train, "load_checkpoint", "train.load_checkpoint"),
    (cli, "load_checkpoint", "train.load_checkpoint"),
    (data, "generate_synthetic", "data.generate_synthetic"),
    (data, "load_csv", "data.load_csv"),
    (cli, "load_csv", "data.load_csv"),
    (preprocess, "fit_pipeline", "preprocess.fit_pipeline"),
    (preprocess, "make_windows", "preprocess.make_windows"),
    (preprocess, "transform", "preprocess.transform"),
    (cli, "transform", "preprocess.transform"),
    (preprocess, "inverse_target", "preprocess.inverse_target"),
    (cli, "inverse_target", "preprocess.inverse_target"),
    (models, "dropout_apply", "layers.dropout.fwd"),
    (layers, "dropout_apply", "layers.dropout.fwd"),
    (metrics, "compute_metrics", "metrics.compute_metrics"),
    (explain, "permutation_importance", "explain.permutation_importance"),
    (cli, "permutation_importance", "explain.permutation_importance"),
    (cli, "main", "cli.predict"),
]

# Layer forwards; records made on the tape inside one of these spans
# get a backward span named after it.
METHOD_SPANS = [
    (layers.LstmStack, "layer_forward", "layers.lstm.fwd"),
    (layers.TransformerEncoderBlock, "forward", "layers.encoder.fwd"),
    (layers.AttentionPool, "forward", "layers.attn_pool.fwd"),
    (layers.MixerBlock, "forward", "layers.mixer.fwd"),
    (layers.FusionHead, "forward", "layers.fusion.fwd"),
    (tensor.SeededRng, "uniform", "tensor.rng.uniform"),
    (tensor.SeededRng, "permutation", "tensor.rng.permutation"),
]

TAPE_SPAN = "layers.tape.backward"
UNATTRIBUTED_BWD = "layers.other.bwd"
MODEL_SPANS = ("models.forward_train", "models.predict", "models.zero_grad")


def _unique(names):
    return list(dict.fromkeys(names))


_FWD = _unique(n for _, _, n in METHOD_SPANS + FUNCTION_SPANS if n.endswith(".fwd"))
# Every span name a traced run reports, in a fixed order.
SPAN_NAMES = _unique(
    [n for _, _, n in METHOD_SPANS + FUNCTION_SPANS]
    + [n[: -len(".fwd")] + ".bwd" for n in _FWD]
    + [UNATTRIBUTED_BWD, TAPE_SPAN, *MODEL_SPANS]
)
_ABSENT = object()
_PREDICT_DEFAULT_BATCH = (
    inspect.signature(models.Model.predict).parameters["batch_size"].default
)


class Tracer:
    """Span stack plus per-name aggregates; spans stay in memory."""

    def __init__(self):
        self.stack = []  # [name, start, child_seconds]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []  # (name, start, end, parent name or None)

    @contextmanager
    def span(self, name):
        self.stack.append([name, now(), 0.0])
        try:
            yield
        finally:
            self._close()

    def _close(self):
        name, start, child = self.stack.pop()
        end = now()
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        parent = None
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][0]
        self.spans.append((name, start, end, parent))

    def innermost_layer(self):
        for name, _, _ in reversed(self.stack):
            if name.endswith(".fwd"):
                return name[: -len(".fwd")] + ".bwd"
        return None


class Probes:
    """Installs the wrappers; ``tracing`` switches spans on and off.

    ``kind`` names the model the caller is training, so tape records
    per step can be kept for one architecture.
    """

    def __init__(self):
        self.tracing = False
        self.tracer = Tracer()
        self.kind = None
        self.step_start = None
        self.steps = []  # seconds per training step
        self.epoch_ends = []  # evaluate_mse return times
        self.tape_records = defaultdict(list)  # kind -> records per step
        self._saved = []

    # -- installation --------------------------------------------------
    def install(self):
        for owner, attr, name in FUNCTION_SPANS:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name))
        for owner, attr, name in METHOD_SPANS:
            self._patch(owner, attr, self._span_wrapper(owner.__dict__[attr], name))
        self._patch_boundaries()
        self._patch_model()
        self._patch_tape()
        return self

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            if not self.tracing:
                return fn(*args, **kwargs)
            with self.tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _patch_boundaries(self):
        adamw = train.adamw_step  # already span-wrapped
        evaluate = train.evaluate_mse

        def adamw_step(*args, **kwargs):
            out = adamw(*args, **kwargs)
            if self.step_start is not None:
                self.steps.append(now() - self.step_start)
                self.step_start = None
            return out

        def evaluate_mse(*args, **kwargs):
            out = evaluate(*args, **kwargs)
            self.epoch_ends.append(now())
            return out

        self._patch(train, "adamw_step", adamw_step)
        self._patch(train, "evaluate_mse", evaluate_mse)

    def _patch_model(self):
        forward = models.Model.forward
        predict = models.Model.predict
        zero_grad = layers.Module.zero_grad

        def model_forward(model, window, static, tape=None, training=False, rng=None):
            if not (self.tracing and tape is not None):
                return forward(model, window, static, tape, training, rng)
            with self.tracer.span("models.forward_train"):
                return forward(model, window, static, tape, training, rng)

        def model_predict(model, windows, statics, batch_size=_PREDICT_DEFAULT_BATCH):
            if not self.tracing:
                return predict(model, windows, statics, batch_size)
            tracer = self.tracer
            tracer.counts[f"models.predict.calls.b{batch_size}"] += 1
            if any(n == "explain.permutation_importance" for n, _, _ in tracer.stack):
                tracer.counts["explain.predict_calls"] += 1
            with tracer.span("models.predict"):
                return predict(model, windows, statics, batch_size)

        def model_zero_grad(model):
            self.step_start = now()
            if not self.tracing:
                return zero_grad(model)
            with self.tracer.span("models.zero_grad"):
                return zero_grad(model)

        self._patch(models.Model, "forward", model_forward)
        self._patch(models.Model, "predict", model_predict)
        self._patch(models.Model, "zero_grad", model_zero_grad)

    def _patch_tape(self):
        record = layers.GradTape.record
        backward = layers.GradTape.backward

        def tape_record(tape, inputs, output, fn):
            if not self.tracing:
                return record(tape, inputs, output, fn)
            tracer = self.tracer
            name = tracer.innermost_layer() or UNATTRIBUTED_BWD

            def timed_fn(d):
                with tracer.span(name):
                    return fn(d)

            return record(tape, inputs, output, timed_fn)

        def tape_backward(tape, loss_grad):
            if not self.tracing:
                return backward(tape, loss_grad)
            self.tape_records[self.kind].append(len(tape))
            with self.tracer.span(TAPE_SPAN):
                return backward(tape, loss_grad)

        self._patch(layers.GradTape, "record", tape_record)
        self._patch(layers.GradTape, "backward", tape_backward)

    # -- results -------------------------------------------------------
    def take_steps(self):
        steps, self.steps = self.steps, []
        return steps

    def take_epoch_ends(self):
        ends, self.epoch_ends = self.epoch_ends, []
        return ends
