"""Model zoo: five architectures over windowed drilling data.

Every model consumes a window [B, T, F] of consecutive sensor rows and
the static vector [B, F] (the window's final row) and predicts the
target [B, 1].  The five kinds:

  - ``baseline_lstm``: two stacked recurrent layers with dropout
    between them, final hidden state into a dense output.
  - ``ts_mixer``: the standalone feedforward mixer on the static row
    only; the window is ignored.
  - ``hybrid_lstm_mixer``: recurrent branch (final hidden state) and
    mixer branch fused by concatenation into a dense output.
  - ``hybrid_lstm_mixer_attention``: as above, but the recurrent
    branch is pooled over time by learned attention instead of taking
    the last state.
  - ``advanced_hybrid``: recurrent stack, then a transformer encoder
    block over the hidden sequence, attention pooling, fused with the
    mixer branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, RangeError, check_count, check_real, shown
from .layers import (
    AttentionPool,
    FusionHead,
    Linear,
    LstmStack,
    MixerBlock,
    Module,
    TransformerEncoderBlock,
    dropout_apply,
    last_step,
    pack,
)
from .tensor import SeededRng, _pin_heap_thresholds, on_both_cores

BASELINE_LSTM = "baseline_lstm"
TS_MIXER = "ts_mixer"
HYBRID_LSTM_MIXER = "hybrid_lstm_mixer"
HYBRID_LSTM_MIXER_ATTENTION = "hybrid_lstm_mixer_attention"
ADVANCED_HYBRID = "advanced_hybrid"

MODEL_KINDS = (
    BASELINE_LSTM,
    TS_MIXER,
    HYBRID_LSTM_MIXER,
    HYBRID_LSTM_MIXER_ATTENTION,
    ADVANCED_HYBRID,
)


@dataclass
class ModelSpec:
    """Architecture hyperparameters; serializable for checkpoints."""

    kind: str
    input_features: int
    window_len: int = 1
    lstm_hidden: int = 64
    lstm_layers: int = 2
    heads: int = 4
    ffn_dim: int = 128
    mixer_hidden: int = 128
    branch_dims: tuple[int, int] = (128, 64)
    dropout: float = 0.2

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            got = shown(self.kind) if isinstance(self.kind, int) else repr(self.kind)
            raise ConfigurationError(f"unknown model kind {got}; choose from {MODEL_KINDS}")
        for name in ("input_features", "window_len", "lstm_hidden", "lstm_layers",
                     "heads", "ffn_dim", "mixer_hidden"):
            check_count(name, getattr(self, name))
        if not (isinstance(self.branch_dims, (tuple, list)) and self.branch_dims):
            raise ConfigurationError("branch_dims must be a non-empty sequence of widths")
        self.branch_dims = tuple(self.branch_dims)
        for width in self.branch_dims:
            check_count("branch_dims width", width)
        check_real("dropout", self.dropout, 0, 1, open_hi=True)
        if self.lstm_hidden % self.heads != 0:
            raise ConfigurationError(
                f"lstm_hidden {shown(self.lstm_hidden)} must be divisible by "
                f"heads {shown(self.heads)}"
            )

    def state_size(self) -> int:
        """float64 values in a built model's ``state_arrays()``, counted
        without building one; it follows ``Model._build``."""
        F, H = self.input_features, self.lstm_hidden

        def linears(widths):  # weights and biases of a chain of Linears
            return sum((a + 1) * b for a, b in zip(widths, widths[1:]))

        if self.kind == TS_MIXER:
            # each hidden layer's batch norm adds gain, bias and two running moments
            widths = [F] + [self.mixer_hidden] * 5
            return linears(widths + [1]) + 4 * self.mixer_hidden * 5
        n = 4 * H * (F + H + 1) + (self.lstm_layers - 1) * 4 * H * (2 * H + 1)
        if self.kind == BASELINE_LSTM:
            return n + linears([H, 1])
        if self.kind == ADVANCED_HYBRID:
            # Q, K, V and O, the feedforward pair and two layer norms
            n += 4 * H * H + linears([H, self.ffn_dim, H]) + 4 * H
        if self.kind in (HYBRID_LSTM_MIXER_ATTENTION, ADVANCED_HYBRID):
            n += H
        return n + linears([F, *self.branch_dims]) + linears([H + self.branch_dims[-1], 1])


class Model(Module):
    """A built architecture: owns layers, exposes forward and predict.

    Once built, every Param's value and gradient are views of the
    model's flat arena (``arena()``), in ``storage()`` order.  The model
    is the arena's only owner: its sub-modules have none of their own.
    """

    def __init__(self, spec: ModelSpec, rng: SeededRng):
        _pin_heap_thresholds()
        self.spec = spec
        self._build(spec, rng)
        self._arena = pack(self.storage())

    def _build(self, spec, rng):
        # layers are assigned in checkpoint record order
        F = spec.input_features
        H = spec.lstm_hidden
        kind = spec.kind
        if kind == TS_MIXER:
            # a projection into the latent width, then four hidden layers
            self.mixer = MixerBlock([F] + [spec.mixer_hidden] * 5, rng, standalone=True)
            return
        self.lstm = LstmStack(F, H, spec.lstm_layers, rng)
        if kind == BASELINE_LSTM:
            self.head = Linear(H, 1, rng, "head")
            return
        if kind == ADVANCED_HYBRID:
            self.encoder = TransformerEncoderBlock(H, spec.heads, spec.ffn_dim, rng)
        if kind in (HYBRID_LSTM_MIXER_ATTENTION, ADVANCED_HYBRID):
            self.pool = AttentionPool(H, rng)
        self.mixer = MixerBlock([F, *spec.branch_dims], rng)
        self.fusion = FusionHead(H, spec.branch_dims[-1], rng)

    def state_arrays(self):
        """Every persistent array, parameters first, in stable order."""
        return [(p.name, p.value) for p in self.params()] + self.buffers()

    def _check_inputs(self, window, static):
        spec = self.spec
        if window.ndim != 3 or window.shape[1:] != (
            spec.window_len,
            spec.input_features,
        ):
            raise DimensionError(
                f"expected window [B, {spec.window_len}, "
                f"{spec.input_features}], got {window.shape}"
            )
        if static.ndim != 2 or static.shape != (
            window.shape[0],
            spec.input_features,
        ):
            raise DimensionError(
                f"expected static [B, {spec.input_features}] matching the "
                f"window batch, got {static.shape}"
            )

    def forward(self, window, static, tape=None, training=False, rng=None):
        """Predict [B, 1]; records on ``tape`` when given.

        ``rng`` drives dropout and is only consulted when ``training``
        is true and the architecture's dropout rate is nonzero.
        """
        self._check_inputs(window, static)
        spec = self.spec
        kind = spec.kind
        if kind == TS_MIXER:
            return self.mixer.forward(static, tape, training=training)
        h = window
        for layer in range(spec.lstm_layers):
            if layer and kind == BASELINE_LSTM:
                h = dropout_apply(h, spec.dropout, rng, training, tape)
            h = self.lstm.layer_forward(layer, h, tape)
        if kind == BASELINE_LSTM:
            return self.head.forward(last_step(h, tape), tape)
        if kind == ADVANCED_HYBRID:
            h = self.encoder.forward(h, tape)
        if kind == HYBRID_LSTM_MIXER:
            temporal = last_step(h, tape)
        else:
            temporal = self.pool.forward(h, tape)
        mixed = self.mixer.forward(static, tape, training=training)
        return self.fusion.forward(
            temporal,
            mixed,
            tape,
            dropout_rate=spec.dropout,
            rng=rng,
            training=training,
        )

    # Rows do not interact at inference.  Bounded slices keep layer
    # temporaries off the fresh mmaps that batch-sized ones fault in;
    # 256-row slices on the two workers kept 9-17% more memory resident.
    PREDICT_SLICE = 128

    # stays 256: ropbench/spans.py files default calls as models.predict.calls.b256
    def predict(self, windows, statics, batch_size=256):
        """Inference in slices of min(batch_size, PREDICT_SLICE) rows; flat [N].

        The slices run through ``on_both_cores``: on two worker threads
        where that can help and no other run is under way, else one
        after another on the calling thread, as in a predict from inside
        another run's worker.  Both ways cut the same slices, so the
        predictions do not depend on the CPU count, on BLAS control or
        on other runs.
        """
        check_count("batch_size", batch_size, error=RangeError)
        self._check_inputs(windows, statics)
        n = windows.shape[0]
        out = np.empty(n)
        size = min(batch_size, self.PREDICT_SLICE)

        def run(start):
            rows = slice(start, start + size)
            out[rows] = self.forward(windows[rows], statics[rows])[:, 0]

        on_both_cores(run, range(0, n, size))
        return out


def build_model(spec: ModelSpec, rng: SeededRng) -> Model:
    """Construct a model with fresh parameters drawn from ``rng``."""
    return Model(spec, rng)
