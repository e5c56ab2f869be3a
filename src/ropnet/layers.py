"""Neural layers with exact analytic backward passes.

Every forward pass may record itself on a :class:`GradTape`.  A record
holds references to the input and output arrays plus a closure that
maps the output gradient to input gradients while accumulating
parameter gradients in place.  ``GradTape.backward`` replays records in
reverse; because arrays are treated as immutable once returned, object
identity is a safe key for routing gradients, including through
residual connections and branch concatenations.  Backward pops each
record as it replays it, so activations are freed during the pass;
afterwards ``input_grad`` answers only for leaf arrays, those no
recorded op produced.

``pack`` moves a set of Params into one flat value buffer and one flat
gradient buffer (an arena), each Param's arrays becoming views of
them; ``Model`` packs itself on construction, so its optimizer step,
``zero_grad`` and gradient norm each run over a single array.

Layers trust their input: ``Model`` checks shapes where input enters,
and ``ModelSpec`` the dropout rate, so nothing here re-checks either.

Shape conventions:
  - batches are leading: [B, F] for flat features, [B, T, F] for
    sequences;
  - weight matrices are stored [out_features, in_features] and applied
    as ``y = x @ W.T + b``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateBatchError,
    DimensionError,
    RangeError,
    RopnetError,
    TapeEmptyError,
)
from .tensor import SeededRng, softmax_last_axis


def _scaled_tanh(x, scale, shift):
    # x = scale * tanh(scale * x) + shift, in place.  Scale and shift 0.5
    # give the sigmoid 0.5 * (1 + tanh(x / 2)) bit for bit, scale 1 and
    # shift -0.0 give tanh; tanh saturates, so no argument can overflow.
    x *= scale
    np.tanh(x, out=x)
    x *= scale
    x += shift
    return x


class Param:
    """Named parameter tensor with a same-shaped gradient accumulator.

    Once packed, ``value`` and ``grad`` are views of an arena's flat
    buffers and must only be updated in place.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value, grad=None):
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value) if grad is None else grad


def pack(params):
    """Flat (values, grads) buffers that every Param's arrays view.

    The arrays are copied, in list order, into two fresh buffers and
    each Param is rebound to views of them.  A ``Model`` packs itself
    when it is built, and its layers are never packed again: to step a
    model, take ``model.arena()``.
    """
    flat_v = np.concatenate([p.value.reshape(-1) for p in params])
    flat_g = np.concatenate([p.grad.reshape(-1) for p in params])
    start = 0
    for p in params:
        stop = start + p.value.size
        p.value = flat_v[start:stop].reshape(p.value.shape)
        p.grad = flat_g[start:stop].reshape(p.value.shape)
        start = stop
    return flat_v, flat_g


class GradTape:
    """Reverse-mode record of one forward pass."""

    def __init__(self):
        self._records: list[tuple] = []  # (inputs, output, fn)
        self._grads: dict[int, tuple] | None = None  # id -> (array, grad)

    def record(self, inputs, output, fn):
        """Register ``output = op(*inputs)`` with backward closure ``fn``.

        ``fn(d_output)`` must return one gradient array per input and
        is responsible for accumulating any parameter gradients itself.
        """
        self._records.append((tuple(inputs), output, fn))
        return output

    def __len__(self):
        return len(self._records)

    def backward(self, loss_grad):
        """Propagate ``loss_grad`` (w.r.t. the final output) to every input.

        Each record is popped as it is replayed and its output's
        gradient dropped once used, so the tape's activations and
        intermediate gradients are freed during the pass.  A tape runs
        backward once.
        """
        records = self._records
        if not records:
            raise TapeEmptyError(
                "tape is empty: no forward pass recorded, or backward already ran"
            )
        final = records[-1][1]
        loss_grad = np.asarray(loss_grad, dtype=np.float64)
        if loss_grad.shape != final.shape:
            raise DimensionError(
                f"loss gradient shape {loss_grad.shape} does not match "
                f"output shape {final.shape}"
            )
        # entries hold their array, so no key outlives the id it names
        grads = {id(final): (final, loss_grad)}
        while records:
            inputs, output, fn = records.pop()
            entry = grads.pop(id(output), None)
            if entry is None:
                continue
            for arr, d in zip(inputs, fn(entry[1])):
                prev = grads.get(id(arr))
                grads[id(arr)] = (arr, d if prev is None else prev[1] + d)
        self._grads = grads

    def input_grad(self, x):
        """Gradient w.r.t. a leaf array (an input no recorded op
        produced), available after backward(); None if it got none."""
        if self._grads is None:
            raise TapeEmptyError("backward has not run on this tape")
        entry = self._grads.get(id(x))
        return None if entry is None else entry[1]


class Module:
    """Base class: anything owning parameters and persistent buffers.

    A module's Params and sub-modules are found from its attributes
    (and from lists held in them) in assignment order, which is also
    the checkpoint's record order.
    """

    _arena = None

    def _members(self):
        for value in vars(self).values():
            yield from value if isinstance(value, list) else (value,)

    def _collect(self, method):
        out = []
        for m in self._members():
            if isinstance(m, Param):
                out.append(m)
            elif isinstance(m, Module):
                out += getattr(m, method)()
        return out

    def params(self) -> list[Param]:
        """Trainable Params in checkpoint order."""
        return self._collect("params")

    def storage(self) -> list[Param]:
        """The Params that hold memory, in arena order; ``params()``
        may instead list views into them."""
        return self._collect("storage")

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable state that must survive checkpointing."""
        return [
            b for m in self._members() if isinstance(m, Module) for b in m.buffers()
        ]

    def arena(self):
        """Flat (values, grads) buffers viewed by every Param.  Only a
        built ``Model`` owns one; its layers' Params are views of it."""
        if self._arena is None:
            raise RopnetError(
                f"{type(self).__name__} owns no arena: only a built Model "
                "does; use pack(params) for standalone Params"
            )
        return self._arena

    def zero_grad(self):
        self.arena()[1].fill(0.0)


def _uniform_init(rng: SeededRng, shape, fan_in: int):
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(shape, -limit, limit)


class Linear(Module):
    """Affine map on the last axis; accepts [B, in] or [B, T, in]."""

    def __init__(self, in_dim, out_dim, rng, name):
        self.W = Param(f"{name}.W", _uniform_init(rng, (out_dim, in_dim), in_dim))
        self.b = Param(f"{name}.b", np.zeros(out_dim))

    def forward(self, x, tape=None):
        y = x @ self.W.value.T
        y += self.b.value
        if tape is None:
            return y
        W, b = self.W, self.b

        def bwd(d):
            d2 = d.reshape(-1, d.shape[-1])
            x2 = x.reshape(-1, x.shape[-1])
            W.grad += d2.T @ x2
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


def _mean(x, axis):
    # the bits of x.mean(axis, keepdims=True), without its Python wrappers
    return np.add.reduce(x, axis, keepdims=True) / x.shape[axis]


class LayerNorm(Module):
    """Normalization over ``AXIS``, then learned gain and bias.

    The moments come from one centred copy of the input: its mean over
    ``AXIS``, then the mean of that copy's squares, with the bits of
    ``np.mean`` and ``np.var``; the copy is then normalized in place.
    ``_normalize`` holds the one forward and backward; a subclass only
    chooses the statistics it passes in.
    """

    AXIS = -1
    eps = 1e-5

    def __init__(self, dim, name):
        self.gain = Param(f"{name}.gain", np.ones(dim))
        self.bias = Param(f"{name}.bias", np.zeros(dim))

    def forward(self, x, tape=None):
        xc = x - _mean(x, self.AXIS)
        return self._normalize(x, xc, _mean(xc * xc, self.AXIS), tape)

    def _normalize(self, x, xc, var, tape, fixed_stats=False):
        # xc is x centred, a fresh array this call may overwrite; unless
        # fixed_stats, the backward differentiates through the centring
        # and var as the moments of x over AXIS
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = xc
        xhat *= inv
        y = xhat * self.gain.value
        y += self.bias.value
        if tape is None:
            return y
        gain, bias, axis = self.gain, self.bias, self.AXIS

        def bwd(d):
            lead = tuple(range(d.ndim - 1))
            gain.grad += (d * xhat).sum(axis=lead)
            bias.grad += d.sum(axis=lead)
            dxhat = d * gain.value
            if fixed_stats:
                return (dxhat * inv,)
            m1 = _mean(dxhat, axis)
            m2 = _mean(dxhat * xhat, axis)
            return (inv * (dxhat - m1 - xhat * m2),)

        return tape.record((x,), y, bwd)


class BatchNorm1d(LayerNorm):
    """Feature-wise batch normalization for [B, F] inputs: layer norm
    over the batch axis.

    Training mode normalizes with batch statistics and folds them into
    the running estimates (new value weighted by ``momentum``);
    inference mode uses the running estimates, as constants.
    """

    AXIS = 0
    momentum = 0.1

    def __init__(self, dim, name):
        super().__init__(dim, name)
        self.name = name
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def buffers(self):
        return [
            (f"{self.name}.running_mean", self.running_mean),
            (f"{self.name}.running_var", self.running_var),
        ]

    def forward(self, x, tape=None, training=False):
        if not training:
            return self._normalize(
                x, x - self.running_mean, self.running_var, tape, fixed_stats=True
            )
        if x.shape[0] < 2:
            raise DegenerateBatchError(
                "batch statistics are undefined for a single-sample batch"
            )
        mu = _mean(x, self.AXIS)
        xc = x - mu
        var = _mean(xc * xc, self.AXIS)
        self.running_mean += self.momentum * (mu[0] - self.running_mean)
        self.running_var += self.momentum * (var[0] - self.running_var)
        return self._normalize(x, xc, var, tape)


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
    [4H], with row blocks in the order i, f, o, g.  One ``x @ W.T``
    projects the whole sequence before the time loop (a [B, T, 4H]
    buffer, small because ``Model.predict`` bounds B); each step adds
    ``h @ U.T`` and ``b`` and applies all four gates in one pass.  The
    first step does not touch the all-zero initial state: it takes
    ``xw + 0.0`` and ``i * g + 0.0``, the exact values of ``(+0) + xw``
    and ``f * (+0) + i * g``, signed zeros included (the product of a
    zero state is +0, and f >= +0).  Each step writes ``o * tanh(c)``
    straight into its row of the output, which the next step reads as h.
    ``params()`` lists per-gate ``Param``s (``W_i``, ...) whose values
    and gradients are row-block views of the stacked ones; checkpoints
    store them one by one, while ``storage()`` lists the stacked ones.

    The backward pass unrolls these relations in reverse over the full
    sequence.  There is no whole-stack forward: ``layer_forward`` runs
    one layer, and ``Model.forward`` loops over the layers so it can put
    dropout between them.
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, input_size, hidden_size, num_layers, rng):
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        H = hidden_size
        # _scaled_tanh's sigmoid on the i, f, o blocks, tanh on g
        self.gate_scale = np.repeat([0.5, 1.0], [3 * H, H])
        self.gate_shift = np.repeat([0.5, -0.0], [3 * H, H])
        self.stacked = []  # per layer: W, U, b
        for layer in range(num_layers):
            in_dim = input_size if layer == 0 else H
            W, U, b = np.empty((4 * H, in_dim)), np.empty((4 * H, H)), np.zeros(4 * H)
            for k in range(len(self.GATES)):
                rows = slice(k * H, (k + 1) * H)
                W[rows] = _uniform_init(rng, (H, in_dim), in_dim)
                U[rows] = _uniform_init(rng, (H, H), H)
            self.stacked += [
                Param(f"lstm.l{layer}.{stem}", arr) for stem, arr in zip("WUb", (W, U, b))
            ]

    def params(self):
        H = self.hidden_size
        out = []
        for layer in range(self.num_layers):
            stacked = self.stacked[3 * layer : 3 * layer + 3]
            for k, gate in enumerate(self.GATES):
                rows = slice(k * H, (k + 1) * H)
                out += [
                    Param(f"lstm.l{layer}.{stem}_{gate}", p.value[rows], p.grad[rows])
                    for stem, p in zip("WUb", stacked)
                ]
        return out

    def layer_forward(self, layer, x, tape=None):
        """Run one layer over a [B, T, D] sequence; returns [B, T, H]."""
        B, T, D = x.shape
        H = self.hidden_size
        Wp, Up, bp = self.stacked[3 * layer : 3 * layer + 3]
        W, U, b = Wp.value, Up.value, bp.value
        xw = (x.reshape(B * T, D) @ W.T).reshape(B, T, 4 * H)
        c = np.zeros((B, H))
        hs = np.empty((B, T, H))
        cache = []
        for t in range(T):
            if t:
                a = h @ U.T
                a += xw[:, t]
            else:  # the zero state, with its bits (see the class docstring)
                a = xw[:, 0] + 0.0
            a += b
            _scaled_tanh(a, self.gate_scale, self.gate_shift)
            i, f, o, g = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
            c_prev = c
            c = f * c_prev + i * g if t else i * g + 0.0
            tanh_c = np.tanh(c)
            h = np.multiply(o, tanh_c, out=hs[:, t])
            if tape is not None:
                cache.append((c_prev, i, f, o, g, tanh_c))
        if tape is None:
            return hs

        def bwd(d_hs):
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
                if t:  # the first step has no earlier h to send dh to
                    dh_next = da_t @ U
            da2 = da.reshape(B * T, 4 * H)
            h_prev = np.zeros_like(hs)
            h_prev[:, 1:] = hs[:, :-1]
            Wp.grad += da2.T @ x.reshape(B * T, -1)
            Up.grad += da2.T @ h_prev.reshape(B * T, H)
            bp.grad += da2.sum(axis=0)
            return ((da2 @ W).reshape(x.shape),)

        return tape.record((x,), hs, bwd)


class TransformerEncoderBlock(Module):
    """Single post-norm encoder block: self-attention then a ReLU MLP.

    Attention is scaled dot-product over ``heads`` parallel heads,
    softmax(Q K^T / sqrt(d_k)) V, with bias-free projections.  Each
    sublayer output is added back to its input and layer-normalized.
    """

    def __init__(self, model_dim, heads, ffn_dim, rng):
        self.heads = heads
        self.head_dim = model_dim // heads
        self.W_q = Param("encoder.W_q", _uniform_init(rng, (model_dim, model_dim), model_dim))
        self.W_k = Param("encoder.W_k", _uniform_init(rng, (model_dim, model_dim), model_dim))
        self.W_v = Param("encoder.W_v", _uniform_init(rng, (model_dim, model_dim), model_dim))
        self.W_o = Param("encoder.W_o", _uniform_init(rng, (model_dim, model_dim), model_dim))
        self.ffn1 = Linear(model_dim, ffn_dim, rng, "encoder.ffn1")
        self.ffn2 = Linear(ffn_dim, model_dim, rng, "encoder.ffn2")
        self.ln1 = LayerNorm(model_dim, "encoder.ln1")
        self.ln2 = LayerNorm(model_dim, "encoder.ln2")

    def _attention(self, x, tape=None):
        B, T, d = x.shape
        h, dk = self.heads, self.head_dim
        scale = 1.0 / np.sqrt(dk)

        def split(m):
            return m.reshape(B, T, h, dk).transpose(0, 2, 1, 3)

        q = split(x @ self.W_q.value.T)
        k = split(x @ self.W_k.value.T)
        v = split(x @ self.W_v.value.T)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
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
        attn = self._attention(x, tape)
        normed = self.ln1.forward(residual_add(x, attn, tape), tape)
        hidden = relu(self.ffn1.forward(normed, tape), tape)
        ffn = self.ffn2.forward(hidden, tape)
        return self.ln2.forward(residual_add(normed, ffn, tape), tape)


class _MixerLayer(Module):
    """One mixer hidden layer's modules: a linear map, then batch norm
    when given; ``MixerBlock.forward`` applies them and a ReLU."""

    def __init__(self, d_in, d_out, rng, name, norm):
        self.linear = Linear(d_in, d_out, rng, name)
        self.norm = BatchNorm1d(d_out, f"{name}_bn") if norm else None


class MixerBlock(Module):
    """Feedforward feature mixer over [B, widths[0]] inputs.

    Each consecutive pair of ``widths`` is one hidden layer, linear
    then ReLU.  ``standalone`` makes it a full regressor: batch norm
    before each ReLU and a single-unit output layer.  Otherwise it is
    the fusion-model branch encoder, ending at width ``widths[-1]``.
    """

    def __init__(self, widths, rng, standalone=False):
        self.layers = [
            _MixerLayer(d_in, d_out, rng, f"mixer.h{idx}", standalone)
            for idx, (d_in, d_out) in enumerate(zip(widths, widths[1:]))
        ]
        self.out = Linear(widths[-1], 1, rng, "mixer.out") if standalone else None

    def forward(self, x, tape=None, training=False):
        # applied here rather than in a method of the layer, whose caller
        # would keep each layer's input alive until its ReLU returns
        h = x
        for layer in self.layers:
            h = layer.linear.forward(h, tape)
            if layer.norm is not None:
                h = layer.norm.forward(h, tape, training=training)
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

    def __init__(self, dim, rng):
        self.w = Param("attn_pool.w", _uniform_init(rng, (dim,), dim))

    def forward(self, y, tape=None):
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

    def __init__(self, temporal_dim, static_dim, rng):
        self.out = Linear(temporal_dim + static_dim, 1, rng, "fusion")

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
        joint = concat_features(temporal, static, tape)
        joint = dropout_apply(joint, dropout_rate, rng, training, tape)
        return self.out.forward(joint, tape)
