"""Neural layers with exact analytic backward passes.

Every forward pass may record itself on a :class:`GradTape`.  A record
holds references to the input and output arrays plus a closure that
maps the output gradient to input gradients while accumulating
parameter gradients in place.  ``GradTape.backward`` replays records in
reverse; because arrays are treated as immutable once returned, object
identity is a safe key for routing gradients, including through
residual connections and branch concatenations.

Shape conventions:
  - batches are leading: [B, F] for flat features, [B, T, F] for
    sequences;
  - weight matrices are stored [out_features, in_features] and applied
    as ``y = x @ W.T + b``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateBatchError,
    DimensionError,
    RangeError,
    TapeEmptyError,
)
from .tensor import SeededRng, softmax_last_axis


def _sigmoid(x):
    # tanh saturates in both tails, so no argument can overflow.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class Param:
    """Named parameter tensor with a same-shaped gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class _Record:
    __slots__ = ("inputs", "output", "fn")

    def __init__(self, inputs, output, fn):
        self.inputs = inputs
        self.output = output
        self.fn = fn


class GradTape:
    """Reverse-mode record of one forward pass."""

    def __init__(self):
        self._records: list[_Record] = []
        self._grads: dict[int, np.ndarray] | None = None

    def record(self, inputs, output, fn):
        """Register ``output = op(*inputs)`` with backward closure ``fn``.

        ``fn(d_output)`` must return one gradient per input (``None``
        for inputs that need none) and is responsible for accumulating
        any parameter gradients itself.
        """
        self._records.append(_Record(tuple(inputs), output, fn))
        return output

    def __len__(self):
        return len(self._records)

    def backward(self, loss_grad):
        """Propagate ``loss_grad`` (w.r.t. the final output) to every input."""
        if not self._records:
            raise TapeEmptyError("backward called before any forward pass")
        final = self._records[-1].output
        loss_grad = np.asarray(loss_grad, dtype=np.float64)
        if loss_grad.shape != final.shape:
            raise DimensionError(
                f"loss gradient shape {loss_grad.shape} does not match "
                f"output shape {final.shape}"
            )
        grads: dict[int, np.ndarray] = {id(final): loss_grad}
        for rec in reversed(self._records):
            g = grads.get(id(rec.output))
            if g is None:
                continue
            d_inputs = rec.fn(g)
            for arr, d in zip(rec.inputs, d_inputs):
                if d is None:
                    continue
                key = id(arr)
                if key in grads:
                    grads[key] = grads[key] + d
                else:
                    grads[key] = d
        self._grads = grads

    def input_grad(self, x):
        """Gradient w.r.t. an input array, available after backward()."""
        if self._grads is None:
            raise TapeEmptyError("backward has not run on this tape")
        return self._grads.get(id(x))


class Module:
    """Base class: anything owning parameters and persistent buffers."""

    def params(self) -> list[Param]:
        raise NotImplementedError

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable state that must survive checkpointing."""
        return []

    def zero_grad(self):
        for p in self.params():
            p.grad[...] = 0.0


def _uniform_init(rng: SeededRng, shape, fan_in: int):
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(shape, -limit, limit)


class Linear(Module):
    """Affine map on the last axis; accepts [B, in] or [B, T, in]."""

    def __init__(self, in_dim, out_dim, rng, name, bias=True):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = Param(f"{name}.W", _uniform_init(rng, (out_dim, in_dim), in_dim))
        self.b = Param(f"{name}.b", np.zeros(out_dim)) if bias else None

    def params(self):
        return [self.W] + ([self.b] if self.b is not None else [])

    def forward(self, x, tape=None):
        if x.shape[-1] != self.in_dim:
            raise DimensionError(
                f"linear layer expects width {self.in_dim}, got input "
                f"shape {x.shape}"
            )
        y = x @ self.W.value.T
        if self.b is not None:
            y = y + self.b.value
        if tape is None:
            return y
        W, b = self.W, self.b

        def bwd(d):
            d2 = d.reshape(-1, d.shape[-1])
            x2 = x.reshape(-1, x.shape[-1])
            W.grad += d2.T @ x2
            if b is not None:
                b.grad += d2.sum(axis=0)
            return ((d2 @ W.value).reshape(x.shape),)

        return tape.record((x,), y, bwd)


def relu(x, tape=None):
    y = np.maximum(x, 0.0)
    if tape is None:
        return y

    def bwd(d):
        return (d * (x > 0.0),)

    return tape.record((x,), y, bwd)


def residual_add(a, b, tape=None):
    y = a + b
    if tape is None:
        return y
    return tape.record((a, b), y, lambda d: (d, d))


def concat_features(a, b, tape=None):
    """Concatenate along the last axis; backward splits the gradient."""
    y = np.concatenate([a, b], axis=-1)
    if tape is None:
        return y
    wa = a.shape[-1]
    return tape.record((a, b), y, lambda d: (d[..., :wa], d[..., wa:]))


def last_step(x, tape=None):
    """Select the final time step of a [B, T, F] sequence."""
    y = x[:, -1, :].copy()
    if tape is None:
        return y

    def bwd(d):
        dx = np.zeros_like(x)
        dx[:, -1, :] = d
        return (dx,)

    return tape.record((x,), y, bwd)


def dropout_apply(x, rate, rng=None, training=False, tape=None):
    """Inverted dropout: identity at inference, unbiased under training.

    Each element is zeroed with probability ``rate`` and survivors are
    scaled by 1/(1-rate), so the expected output equals the input.
    """
    if not 0.0 <= rate < 1.0:
        raise RangeError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise RangeError("training-mode dropout needs an rng")
    keep = rng.uniform(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    y = x * keep * scale
    if tape is None:
        return y
    return tape.record((x,), y, lambda d: (d * keep * scale,))


class LayerNorm(Module):
    """Normalization over the last axis, then learned gain and bias."""

    def __init__(self, dim, name, eps=1e-5):
        self.dim = dim
        self.eps = eps
        self.gain = Param(f"{name}.gain", np.ones(dim))
        self.bias = Param(f"{name}.bias", np.zeros(dim))

    def params(self):
        return [self.gain, self.bias]

    def forward(self, x, tape=None):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv
        y = xhat * self.gain.value + self.bias.value
        if tape is None:
            return y
        gain, bias = self.gain, self.bias

        def bwd(d):
            lead = tuple(range(d.ndim - 1))
            gain.grad += (d * xhat).sum(axis=lead)
            bias.grad += d.sum(axis=lead)
            dxhat = d * gain.value
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            return (inv * (dxhat - m1 - xhat * m2),)

        return tape.record((x,), y, bwd)


class BatchNorm1d(Module):
    """Feature-wise batch normalization for [B, F] inputs.

    Training mode normalizes with batch statistics and folds them into
    the running estimates (new value weighted by ``momentum``);
    inference mode uses the running estimates only.
    """

    def __init__(self, dim, name, momentum=0.1, eps=1e-5):
        self.dim = dim
        self.momentum = momentum
        self.eps = eps
        self.name = name
        self.gain = Param(f"{name}.gain", np.ones(dim))
        self.bias = Param(f"{name}.bias", np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def params(self):
        return [self.gain, self.bias]

    def buffers(self):
        return [
            (f"{self.name}.running_mean", self.running_mean),
            (f"{self.name}.running_var", self.running_var),
        ]

    def forward(self, x, tape=None, training=False):
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionError(
                f"batch norm expects [B, {self.dim}], got {x.shape}"
            )
        if training:
            if x.shape[0] < 2:
                raise DegenerateBatchError(
                    "batch statistics are undefined for a single-sample batch"
                )
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean += self.momentum * (mu - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mu = self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv
        y = xhat * self.gain.value + self.bias.value
        if tape is None:
            return y
        gain, bias = self.gain, self.bias

        def bwd(d):
            gain.grad += (d * xhat).sum(axis=0)
            bias.grad += d.sum(axis=0)
            dxhat = d * gain.value
            if training:
                n = x.shape[0]
                dx = (
                    inv
                    / n
                    * (
                        n * dxhat
                        - dxhat.sum(axis=0)
                        - xhat * (dxhat * xhat).sum(axis=0)
                    )
                )
            else:
                dx = dxhat * inv
            return (dx,)

        return tape.record((x,), y, bwd)


class LstmStack(Module):
    """Stacked recurrent layers with input, forget, and output gating.

    Per layer and time step, with sigmoid s and elementwise product *:

        i_t = s(W_i x_t + U_i h_{t-1} + b_i)
        f_t = s(W_f x_t + U_f h_{t-1} + b_f)
        o_t = s(W_o x_t + U_o h_{t-1} + b_o)
        g_t = tanh(W_g x_t + U_g h_{t-1} + b_g)
        c_t = f_t * c_{t-1} + i_t * g_t
        h_t = o_t * tanh(c_t)

    Each layer stores its gates stacked: W [4H, D], U [4H, H] and b
    [4H], with row blocks in the order i, f, o, g, so one step is one
    ``x_t @ W.T + h @ U.T + b``.  The per-gate ``Param``s (``W_i``,
    ``U_i``, ``b_i``, ...) are row-block views of the stacked values
    and gradients; checkpoints store them one gate at a time.

    The backward pass unrolls these relations in reverse over the full
    sequence.  ``forward`` runs every layer; ``layer_forward`` exposes a
    single layer so callers can interleave other operations (e.g.
    dropout between stacked layers).
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, input_size, hidden_size, num_layers, rng, name="lstm"):
        if num_layers < 1 or hidden_size < 1 or input_size < 1:
            raise ConfigurationError(
                "lstm needs positive input size, hidden size, and layer count"
            )
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        H = hidden_size
        # per layer: stacked (W, U, b) and their gradients, then the
        # per-gate views in params() order
        self._stacked = []
        self._params = []
        for layer in range(num_layers):
            in_dim = self.layer_input_size(layer)
            W, U, b = np.empty((4 * H, in_dim)), np.empty((4 * H, H)), np.zeros(4 * H)
            grads = [np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)]
            self._stacked.append(((W, U, b), grads))
            for k, gate in enumerate(self.GATES):
                rows = slice(k * H, (k + 1) * H)
                W[rows] = _uniform_init(rng, (H, in_dim), in_dim)
                U[rows] = _uniform_init(rng, (H, H), H)
                for arr, grad, stem in zip((W, U, b), grads, "WUb"):
                    p = Param(f"{name}.l{layer}.{stem}_{gate}", arr[rows])
                    p.grad = grad[rows]
                    self._params.append(p)

    def params(self):
        return list(self._params)

    def layer_input_size(self, layer):
        return self.input_size if layer == 0 else self.hidden_size

    def layer_forward(self, layer, x, tape=None):
        """Run one layer over a [B, T, D] sequence; returns [B, T, H]."""
        if x.ndim != 3:
            raise DimensionError(f"lstm input must be [B, T, D], got {x.shape}")
        in_dim = self.layer_input_size(layer)
        if x.shape[2] != in_dim:
            raise DimensionError(
                f"lstm layer {layer} expects width {in_dim}, got input "
                f"shape {x.shape}"
            )
        B, T, _ = x.shape
        H = self.hidden_size
        (W, U, b), grads = self._stacked[layer]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        hs = np.empty((B, T, H))
        cache = []
        for t in range(T):
            a = x[:, t, :] @ W.T + h @ U.T + b
            a[:, : 3 * H] = _sigmoid(a[:, : 3 * H])
            a[:, 3 * H :] = np.tanh(a[:, 3 * H :])
            i, f, o, g = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
            c_prev = c
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            hs[:, t, :] = h
            if tape is not None:
                cache.append((c_prev, i, f, o, g, tanh_c))
        if tape is None:
            return hs

        def bwd(d_hs):
            dW, dU, db = grads
            da = np.empty((B, T, 4 * H))
            dh_next = np.zeros((B, H))
            dc_next = np.zeros((B, H))
            for t in reversed(range(T)):
                c_prev, i, f, o, g, tanh_c = cache[t]
                dh = d_hs[:, t, :] + dh_next
                dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
                da_t = da[:, t, :]
                da_t[:, :H] = dc * g * i * (1.0 - i)
                da_t[:, H : 2 * H] = dc * c_prev * f * (1.0 - f)
                da_t[:, 2 * H : 3 * H] = dh * tanh_c * o * (1.0 - o)
                da_t[:, 3 * H :] = dc * i * (1.0 - g * g)
                dc_next = dc * f
                dh_next = da_t @ U
            da2 = da.reshape(B * T, 4 * H)
            h_prev = np.zeros_like(hs)
            h_prev[:, 1:] = hs[:, :-1]
            dW += da2.T @ x.reshape(B * T, -1)
            dU += da2.T @ h_prev.reshape(B * T, H)
            db += da2.sum(axis=0)
            return ((da2 @ W).reshape(x.shape),)

        return tape.record((x,), hs, bwd)

    def forward(self, x, tape=None):
        """All layers in sequence; returns the top layer's hidden states."""
        h = x
        for layer in range(self.num_layers):
            h = self.layer_forward(layer, h, tape)
        return h


class TransformerEncoderBlock(Module):
    """Single post-norm encoder block: self-attention then a ReLU MLP.

    Attention is scaled dot-product over ``heads`` parallel heads,
    softmax(Q K^T / sqrt(d_k)) V, with bias-free projections.  Each
    sublayer output is added back to its input and layer-normalized.
    """

    def __init__(self, model_dim, heads, ffn_dim, rng, name="encoder"):
        if model_dim % heads != 0:
            raise ConfigurationError(
                f"model dim {model_dim} not divisible by {heads} heads"
            )
        self.model_dim = model_dim
        self.heads = heads
        self.head_dim = model_dim // heads
        self.W_q = Param(f"{name}.W_q", _uniform_init(rng, (model_dim, model_dim), model_dim))
        self.W_k = Param(f"{name}.W_k", _uniform_init(rng, (model_dim, model_dim), model_dim))
        self.W_v = Param(f"{name}.W_v", _uniform_init(rng, (model_dim, model_dim), model_dim))
        self.W_o = Param(f"{name}.W_o", _uniform_init(rng, (model_dim, model_dim), model_dim))
        self.ffn1 = Linear(model_dim, ffn_dim, rng, f"{name}.ffn1")
        self.ffn2 = Linear(ffn_dim, model_dim, rng, f"{name}.ffn2")
        self.ln1 = LayerNorm(model_dim, f"{name}.ln1")
        self.ln2 = LayerNorm(model_dim, f"{name}.ln2")

    def params(self):
        return (
            [self.W_q, self.W_k, self.W_v, self.W_o]
            + self.ffn1.params()
            + self.ffn2.params()
            + self.ln1.params()
            + self.ln2.params()
        )

    def _attention(self, x, tape=None):
        B, T, d = x.shape
        h, dk = self.heads, self.head_dim
        scale = 1.0 / np.sqrt(dk)

        def split(m):
            return m.reshape(B, T, h, dk).transpose(0, 2, 1, 3)

        q = split(x @ self.W_q.value.T)
        k = split(x @ self.W_k.value.T)
        v = split(x @ self.W_v.value.T)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        attn = softmax_last_axis(scores)
        ctx = attn @ v
        merged = ctx.transpose(0, 2, 1, 3).reshape(B, T, d)
        y = merged @ self.W_o.value.T
        if tape is None:
            return y
        W_q, W_k, W_v, W_o = self.W_q, self.W_k, self.W_v, self.W_o

        def bwd(dy):
            dy2 = dy.reshape(-1, d)
            W_o.grad += dy2.T @ merged.reshape(-1, d)
            dctx = split(dy @ W_o.value)
            dattn = dctx @ v.transpose(0, 1, 3, 2)
            dv = attn.transpose(0, 1, 3, 2) @ dctx
            # softmax Jacobian contracted against the row gradient
            dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
            dscores *= scale
            dq = dscores @ k
            dk_ = dscores.transpose(0, 1, 3, 2) @ q

            def merge(m):
                return m.transpose(0, 2, 1, 3).reshape(B, T, d)

            dqf, dkf, dvf = merge(dq), merge(dk_), merge(dv)
            x2 = x.reshape(-1, d)
            W_q.grad += dqf.reshape(-1, d).T @ x2
            W_k.grad += dkf.reshape(-1, d).T @ x2
            W_v.grad += dvf.reshape(-1, d).T @ x2
            dx = dqf @ W_q.value + dkf @ W_k.value + dvf @ W_v.value
            return (dx,)

        return tape.record((x,), y, bwd)

    def forward(self, x, tape=None):
        if x.ndim != 3 or x.shape[2] != self.model_dim:
            raise DimensionError(
                f"encoder expects [B, T, {self.model_dim}], got {x.shape}"
            )
        attn = self._attention(x, tape)
        normed = self.ln1.forward(residual_add(x, attn, tape), tape)
        hidden = relu(self.ffn1.forward(normed, tape), tape)
        ffn = self.ffn2.forward(hidden, tape)
        return self.ln2.forward(residual_add(normed, ffn, tape), tape)


class MixerBlock(Module):
    """Feedforward feature mixer, in two fixed configurations.

    ``standalone`` is a full regressor: a projection into a latent
    space followed by four equal-width hidden layers, each linear +
    batch norm + ReLU, then a single-unit output layer.  ``branch`` is
    the fusion-model encoder: two ReLU layers narrowing the latent
    space, no normalization, no output head.
    """

    STANDALONE = "standalone"
    BRANCH = "branch"

    def __init__(
        self,
        variant,
        input_dim,
        rng,
        name="mixer",
        hidden_dim=128,
        branch_dims=(128, 64),
        standalone_depth=4,
    ):
        if variant not in (self.STANDALONE, self.BRANCH):
            raise ConfigurationError(f"unknown mixer variant {variant!r}")
        self.variant = variant
        self.input_dim = input_dim
        self._linears = []
        self._norms = []
        if variant == self.STANDALONE:
            self.output_dim = 1
            widths = [input_dim, hidden_dim] + [hidden_dim] * standalone_depth
            for idx in range(len(widths) - 1):
                self._linears.append(
                    Linear(widths[idx], widths[idx + 1], rng, f"{name}.h{idx}")
                )
                self._norms.append(
                    BatchNorm1d(widths[idx + 1], f"{name}.h{idx}_bn")
                )
            self.out = Linear(hidden_dim, 1, rng, f"{name}.out")
        else:
            self.output_dim = branch_dims[-1]
            widths = [input_dim, *branch_dims]
            for idx in range(len(widths) - 1):
                self._linears.append(
                    Linear(widths[idx], widths[idx + 1], rng, f"{name}.h{idx}")
                )
            self.out = None

    def params(self):
        out = []
        for idx, lin in enumerate(self._linears):
            out += lin.params()
            if self._norms:
                out += self._norms[idx].params()
        if self.out is not None:
            out += self.out.params()
        return out

    def buffers(self):
        out = []
        for bn in self._norms:
            out += bn.buffers()
        return out

    def forward(self, x, tape=None, training=False):
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"mixer expects [B, {self.input_dim}], got {x.shape}"
            )
        h = x
        for idx, lin in enumerate(self._linears):
            h = lin.forward(h, tape)
            if self._norms:
                h = self._norms[idx].forward(h, tape, training=training)
            h = relu(h, tape)
        if self.out is not None:
            h = self.out.forward(h, tape)
        return h


class AttentionPool(Module):
    """Collapse a sequence to one vector by learned softmax weights.

    Scores e_t = w . y_t are normalized over time, a = softmax(e), and
    the output is sum_t a_t y_t, so the weights are nonnegative and sum
    to one for every sample.
    """

    def __init__(self, dim, rng, name="attn_pool"):
        self.dim = dim
        self.w = Param(f"{name}.w", _uniform_init(rng, (dim,), dim))

    def params(self):
        return [self.w]

    def weights(self, y):
        """Attention weights [B, T] for a [B, T, d] input."""
        return softmax_last_axis(y @ self.w.value)

    def forward(self, y, tape=None):
        if y.ndim != 3 or y.shape[2] != self.dim:
            raise DimensionError(
                f"attention pool expects [B, T, {self.dim}], got {y.shape}"
            )
        a = softmax_last_axis(y @ self.w.value)
        out = np.einsum("bt,btd->bd", a, y)
        if tape is None:
            return out
        w = self.w

        def bwd(d):
            da = np.einsum("bd,btd->bt", d, y)
            de = a * (da - (da * a).sum(axis=-1, keepdims=True))
            w.grad += np.einsum("bt,btd->d", de, y)
            dy = a[:, :, None] * d[:, None, :] + de[:, :, None] * w.value
            return (dy,)

        return tape.record((y,), out, bwd)


class FusionHead(Module):
    """Concatenate two feature blocks and map them to one output.

    ``dropout_rate`` optionally thins the concatenated vector during
    training before the affine map.
    """

    def __init__(self, temporal_dim, static_dim, rng, name="fusion"):
        self.temporal_dim = temporal_dim
        self.static_dim = static_dim
        self.out = Linear(temporal_dim + static_dim, 1, rng, name)

    def params(self):
        return self.out.params()

    def forward(
        self,
        temporal,
        static,
        tape=None,
        *,
        dropout_rate=0.0,
        rng=None,
        training=False,
    ):
        if temporal.shape[-1] != self.temporal_dim or static.shape[-1] != self.static_dim:
            raise DimensionError(
                f"fusion head expects widths ({self.temporal_dim}, "
                f"{self.static_dim}), got {temporal.shape} and {static.shape}"
            )
        joint = concat_features(temporal, static, tape)
        joint = dropout_apply(joint, dropout_rate, rng, training, tape)
        return self.out.forward(joint, tape)
