"""Mini-batch training with decoupled weight decay, plus checkpoints.

The optimizer follows the AdamW scheme: moment estimates with bias
correction drive the adaptive step, while weight decay is applied
directly to the parameter (never through the moments), so a parameter
with zero gradient decays by exactly (1 - lr * wd) per step.

One seeded generator drives both the per-epoch shuffle and dropout, so
a (model init, config, data) triple reproduces training bit for bit.

Checkpoint layout (all integers little-endian):

  bytes 0-3   magic "ROPH"
  u32         format version (currently 1)
  u32         length of a UTF-8 JSON block holding the architecture
              settings and the fitted preprocessor state
  ...         that JSON block
  then one record per array of the model's ``state_arrays()``, in
  that order, and nothing after the last:
  u32         name length, followed by the UTF-8 name
  u32         rank, then rank u64 extents
  ...         the float64 payload, C order
"""

from __future__ import annotations

import json
import os
import struct
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import replacing
from .errors import (
    ConfigurationError,
    CorruptCheckpointError,
    DimensionError,
    DivergenceError,
    EmptyBatchError,
    IncompatibleCheckpointError,
    check_count,
    check_real,
)
from .layers import GradTape
from .models import Model, ModelSpec, build_model
from .preprocess import PreprocessorState
from .tensor import SeededRng

CHECKPOINT_MAGIC = b"ROPH"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    weight_decay: float = 1e-5
    batch_size: int = 64
    epochs: int = 100
    seed: int = 42
    # AdamW's moment decay rates and denominator guard, as published
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __post_init__(self):
        check_real("learning rate", self.learning_rate, 0, sys.float_info.max, open_lo=True)
        check_real("weight decay", self.weight_decay, 0, sys.float_info.max)
        check_count("batch_size", self.batch_size)
        check_count("epochs", self.epochs)


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient w.r.t. the predictions."""
    if pred.size == 0:
        raise EmptyBatchError("loss over an empty batch is undefined")
    if pred.size != target.size:
        raise DimensionError(
            f"predictions {pred.shape} and targets {target.shape} differ in size"
        )
    t = np.asarray(target, dtype=np.float64).reshape(pred.shape)
    diff = pred - t
    # divergence shows up here as inf/nan; the caller checks the value,
    # so the overflow itself must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.mean(diff * diff))
        grad = (2.0 / pred.size) * diff
    return loss, grad


class AdamWState:
    """Step count and moment estimates over a flat (values, grads) arena.

    Training passes ``model.arena()``; a standalone list of Params gets
    one from ``pack``.  The moments are flat buffers of the same length;
    each step makes its own scratch, so none is held between steps.
    """

    def __init__(self, values, grads):
        self.t = 0
        self.values, self.grads = values, grads
        self.m = np.zeros_like(values)
        self.v = np.zeros_like(values)


def adamw_step(state: AdamWState, cfg: TrainConfig):
    """One update of ``state``'s values from their accumulated gradients.

    In-place ufuncs over the flat buffers, in the textbook operation
    order, so each entry gets the same bits as the per-array form.
    """
    state.t += 1
    bc1 = 1.0 - cfg.beta1**state.t
    bc2 = 1.0 - cfg.beta2**state.t
    x, g, m, v = state.values, state.grads, state.m, state.v
    s, step = np.empty_like(x), np.empty_like(x)
    # m = beta1 * m + (1 - beta1) * g
    m *= cfg.beta1
    np.multiply(g, 1.0 - cfg.beta1, out=s)
    m += s
    # v = beta2 * v + (1 - beta2) * g^2
    v *= cfg.beta2
    np.multiply(g, g, out=s)
    s *= 1.0 - cfg.beta2
    v += s
    # step = (m / bc1) / (sqrt(v / bc2) + eps)
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    s += cfg.eps
    np.divide(m, bc1, out=step)
    step /= s
    # decoupled decay, then the adaptive step
    x *= 1.0 - cfg.learning_rate * cfg.weight_decay
    step *= cfg.learning_rate
    x -= step


@dataclass
class LossCurve:
    """Per-epoch mean squared errors, in the scaled target space."""

    rows: list[tuple[int, float, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        rows = "".join(f"{epoch},{train!r},{test!r}\n" for epoch, train, test in self.rows)
        return "epoch,train_mse,test_mse\n" + rows

    @property
    def final_test_mse(self) -> float:
        return self.rows[-1][2]


def evaluate_mse(model: Model, windows, statics, y) -> float:
    return mse_loss(model.predict(windows, statics), y)[0]


def _batch_slices(perm: np.ndarray, batch_size: int):
    """Contiguous index chunks; a trailing singleton is folded into its
    predecessor so batch statistics stay defined."""
    n = perm.size
    bounds = list(range(0, n, batch_size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds.pop(-2)
    return [perm[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def train_model(model: Model, cfg: TrainConfig, train_data, test_data) -> LossCurve:
    """Fit ``model`` on (windows, statics, targets) triples.

    Targets are expected in scaled space.  Every epoch reshuffles the
    training set, runs forward/backward per batch, applies one
    optimizer step per batch, and records the running train MSE plus
    the full test MSE under inference mode.  A non-finite loss or
    global gradient norm aborts with a divergence error.
    """
    train_w, train_s, train_y = train_data
    test_w, test_s, test_y = test_data
    if train_w.shape[0] == 0:
        raise EmptyBatchError("training set is empty")
    n = train_w.shape[0]
    rng = SeededRng(cfg.seed)
    opt = AdamWState(*model.arena())
    grads = opt.grads
    curve = LossCurve()
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        sq_sum = 0.0
        for batch_no, idx in enumerate(_batch_slices(perm, cfg.batch_size)):
            tape = GradTape()
            model.zero_grad()
            pred = model.forward(
                train_w[idx], train_s[idx], tape, training=True, rng=rng
            )
            loss, grad = mse_loss(pred, train_y[idx])
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"loss became {loss} at epoch {epoch}, batch {batch_no}"
                )
            tape.backward(grad)
            norm = float(np.sqrt(np.dot(grads, grads)))
            if not np.isfinite(norm):
                raise DivergenceError(
                    f"gradient norm became {norm} at epoch {epoch}, batch {batch_no}"
                )
            adamw_step(opt, cfg)
            sq_sum += loss * idx.size
        test_mse = evaluate_mse(model, test_w, test_s, test_y)
        curve.rows.append((epoch, sq_sum / n, test_mse))
    return curve


def _record_head(name: str, arr: np.ndarray) -> bytes:
    """A record's bytes before its payload: name, rank and extents."""
    b = name.encode("utf-8")
    return struct.pack(f"<I{len(b)}sI{arr.ndim}Q", len(b), b, arr.ndim, *arr.shape)


def save_checkpoint(path, model: Model, preprocessor: PreprocessorState | None = None):
    """Serialize architecture, preprocessor state, and all arrays, array
    by array, through ``replacing``."""
    header = {
        "model_spec": asdict(model.spec),
        "preprocessor": None if preprocessor is None else asdict(preprocessor),
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)
        for name, arr in model.state_arrays():
            f.write(_record_head(name, arr))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(f, count: int) -> bytes:
    # a corrupt length must not size an allocation past the file's end
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise CorruptCheckpointError(
            f"truncated checkpoint: wanted {count} bytes, {left} left"
        )
    return f.read(count)


def load_checkpoint(path) -> tuple[Model, PreprocessorState | None]:
    """Rebuild a model (and preprocessor) exactly as checkpointed: the
    records must be its ``state_arrays()`` in order, and nothing after."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise IncompatibleCheckpointError(
                f"bad magic {magic!r}; not a model checkpoint"
            )
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != CHECKPOINT_VERSION:
            raise IncompatibleCheckpointError(
                f"unsupported checkpoint version {version}; "
                f"this reader handles version {CHECKPOINT_VERSION}"
            )
        (json_len,) = struct.unpack("<I", _read_exact(f, 4))
        try:
            header = json.loads(_read_exact(f, json_len).decode("utf-8"))
            spec = ModelSpec(**header["model_spec"])
            pre = header.get("preprocessor")
            preprocessor = None if pre is None else PreprocessorState.from_dict(pre)
        except (ValueError, KeyError, TypeError, ConfigurationError) as exc:
            raise CorruptCheckpointError(
                f"unreadable checkpoint header: {exc}"
            ) from exc
        if preprocessor is not None:
            prepared = (preprocessor.window_len, len(preprocessor.feature_names))
            expected = (spec.window_len, spec.input_features)
            if prepared != expected:
                raise CorruptCheckpointError(
                    f"preprocessor makes windows of {prepared[0]} rows and "
                    f"{prepared[1]} features; the model expects {expected[0]} "
                    f"rows and {expected[1]} features"
                )
        # a corrupt width or layer count must not size the model's arrays
        need, left = spec.state_size(), os.fstat(f.fileno()).st_size - f.tell()
        if need > left // 8:
            raise CorruptCheckpointError(
                f"checkpoint is missing arrays: the header's model holds {need} "
                f"float64 values, but only {left} bytes follow the header"
            )

        model = build_model(spec, SeededRng(0))
        # each head is compared with the model's, so no size comes from the file
        for name, target in model.state_arrays():
            head = _record_head(name, target)
            if _read_exact(f, len(head)) != head:
                raise CorruptCheckpointError(
                    f"checkpoint record does not hold array {name!r} of shape "
                    f"{target.shape}"
                )
            values = np.frombuffer(_read_exact(f, 8 * target.size), "<f8")
            if not np.isfinite(values).all():
                raise CorruptCheckpointError(f"array {name!r} holds non-finite values")
            if name.endswith(".running_var") and (values < 0.0).any():
                raise CorruptCheckpointError(f"array {name!r} holds negative variances")
            target[...] = values.reshape(target.shape)
        if f.read(1):
            raise CorruptCheckpointError("bytes follow the checkpoint's last array")
    return model, preprocessor
