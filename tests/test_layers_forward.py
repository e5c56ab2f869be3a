"""Layer forward passes against the explicit-loop references.

``FORWARD_CASES`` maps a layer name to a callable running one seeded
comparison and returning the worst absolute difference; the acceptance
suite iterates the same registry.
"""

import warnings

import numpy as np
import pytest

from ropnet.errors import DegenerateBatchError, RangeError
from ropnet.layers import (
    AttentionPool,
    BatchNorm1d,
    FusionHead,
    GradTape,
    LayerNorm,
    Linear,
    LstmStack,
    MixerBlock,
    TransformerEncoderBlock,
    _scaled_tanh,
    concat_features,
    dropout_apply,
    last_step,
    relu,
    residual_add,
)
from ropnet.tensor import SeededRng

import oracles


def _max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _lstm_params(stack, layer):
    prefix = f"lstm.l{layer}."
    return {
        p.name[len(prefix):]: p.value
        for p in stack.params()
        if p.name.startswith(prefix)
    }


def check_linear_2d(seed):
    rng = SeededRng(seed)
    lin = Linear(5, 3, rng, "lin")
    x = rng.normal((4, 5))
    return _max_abs(lin.forward(x), oracles.linear_loop(x, lin.W.value, lin.b.value))


def check_linear_3d(seed):
    rng = SeededRng(seed)
    lin = Linear(4, 6, rng, "lin")
    x = rng.normal((2, 3, 4))
    want = np.stack(
        [oracles.linear_loop(x[b], lin.W.value, lin.b.value) for b in range(2)]
    )
    return _max_abs(lin.forward(x), want)


def check_relu(seed):
    x = SeededRng(seed).normal((3, 4))
    return _max_abs(relu(x), oracles.relu_loop(x))


def check_layer_norm(seed):
    rng = SeededRng(seed)
    ln = LayerNorm(6, "ln")
    ln.gain.value = rng.normal(6)
    ln.bias.value = rng.normal(6)
    x = rng.normal((4, 6))
    return _max_abs(
        ln.forward(x), oracles.layernorm_loop(x, ln.gain.value, ln.bias.value)
    )


def check_batch_norm_train(seed):
    rng = SeededRng(seed)
    bn = BatchNorm1d(5, "bn")
    bn.gain.value = rng.normal(5)
    bn.bias.value = rng.normal(5)
    x = rng.normal((6, 5))
    got = bn.forward(x, training=True)
    want = oracles.batchnorm_train_loop(x, bn.gain.value, bn.bias.value)
    return _max_abs(got, want)


def check_batch_norm_eval(seed):
    rng = SeededRng(seed)
    bn = BatchNorm1d(5, "bn")
    bn.running_mean[:] = rng.normal(5)
    bn.running_var[:] = rng.uniform(5, 0.5, 2.0)
    x = rng.normal((4, 5))
    inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
    want = (x - bn.running_mean) * inv * bn.gain.value + bn.bias.value
    return _max_abs(bn.forward(x, training=False), want)


def check_lstm_single(seed):
    rng = SeededRng(seed)
    stack = LstmStack(4, 5, 1, rng)
    x = rng.normal((3, 5, 4))
    return _max_abs(
        stack.layer_forward(0, x), oracles.lstm_layer_loop(x, _lstm_params(stack, 0))
    )


def check_lstm_stacked(seed):
    rng = SeededRng(seed)
    stack = LstmStack(3, 4, 2, rng)
    x = rng.normal((2, 4, 3))
    h0 = oracles.lstm_layer_loop(x, _lstm_params(stack, 0))
    want = oracles.lstm_layer_loop(h0, _lstm_params(stack, 1))
    return _max_abs(stack.layer_forward(1, stack.layer_forward(0, x)), want)


def check_encoder_attention(seed):
    rng = SeededRng(seed)
    enc = TransformerEncoderBlock(6, 2, 8, rng)
    x = rng.normal((2, 4, 6))
    want = oracles.attention_loop(
        x, enc.W_q.value, enc.W_k.value, enc.W_v.value, enc.W_o.value, heads=2
    )
    return _max_abs(enc._attention(x), want)


def _encoder_loop(enc, x):
    attn = oracles.attention_loop(
        x, enc.W_q.value, enc.W_k.value, enc.W_v.value, enc.W_o.value, enc.heads
    )
    normed = oracles.layernorm_loop(x + attn, enc.ln1.gain.value, enc.ln1.bias.value)
    ffn = np.stack(
        [
            oracles.linear_loop(
                oracles.relu_loop(
                    oracles.linear_loop(normed[b], enc.ffn1.W.value, enc.ffn1.b.value)
                ),
                enc.ffn2.W.value,
                enc.ffn2.b.value,
            )
            for b in range(x.shape[0])
        ]
    )
    return oracles.layernorm_loop(normed + ffn, enc.ln2.gain.value, enc.ln2.bias.value)


def check_encoder_block(seed):
    rng = SeededRng(seed)
    enc = TransformerEncoderBlock(6, 3, 8, rng)
    x = rng.normal((2, 4, 6))
    return _max_abs(enc.forward(x), _encoder_loop(enc, x))


def check_mixer_standalone(seed):
    rng = SeededRng(seed)
    mixer = MixerBlock([5] + [6] * 5, rng, standalone=True)
    x = rng.normal((6, 5))
    h = x
    for layer in mixer.layers:
        lin, bn = layer.linear, layer.norm
        h = oracles.linear_loop(h, lin.W.value, lin.b.value)
        h = oracles.batchnorm_train_loop(h, bn.gain.value, bn.bias.value)
        h = oracles.relu_loop(h)
    want = oracles.linear_loop(h, mixer.out.W.value, mixer.out.b.value)
    return _max_abs(mixer.forward(x, training=True), want)


def check_mixer_branch(seed):
    rng = SeededRng(seed)
    mixer = MixerBlock([5, 6, 4], rng)
    x = rng.normal((3, 5))
    h = x
    for layer in mixer.layers:
        lin = layer.linear
        h = oracles.relu_loop(oracles.linear_loop(h, lin.W.value, lin.b.value))
    return _max_abs(mixer.forward(x), h)


def check_attention_pool(seed):
    rng = SeededRng(seed)
    pool = AttentionPool(5, rng)
    y = rng.normal((3, 4, 5))
    return _max_abs(pool.forward(y), oracles.attention_pool_loop(y, pool.w.value))


def check_fusion_head(seed):
    rng = SeededRng(seed)
    head = FusionHead(4, 3, rng)
    t = rng.normal((5, 4))
    s = rng.normal((5, 3))
    joint = np.concatenate([t, s], axis=1)
    want = oracles.linear_loop(joint, head.out.W.value, head.out.b.value)
    return _max_abs(head.forward(t, s), want)


FORWARD_CASES = {
    "linear_2d": check_linear_2d,
    "linear_3d": check_linear_3d,
    "relu": check_relu,
    "layer_norm": check_layer_norm,
    "batch_norm_train": check_batch_norm_train,
    "batch_norm_eval": check_batch_norm_eval,
    "lstm_single": check_lstm_single,
    "lstm_stacked": check_lstm_stacked,
    "encoder_attention": check_encoder_attention,
    "encoder_block": check_encoder_block,
    "mixer_standalone": check_mixer_standalone,
    "mixer_branch": check_mixer_branch,
    "attention_pool": check_attention_pool,
    "fusion_head": check_fusion_head,
}


@pytest.mark.parametrize("name", sorted(FORWARD_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_matches_loop_oracle(name, seed):
    assert FORWARD_CASES[name](seed) < 1e-12


class TestSigmoid:
    def test_matches_oracle(self):
        x = np.linspace(-40.0, 40.0, 160001)
        assert _max_abs(_scaled_tanh(x.copy(), 0.5, 0.5), oracles.sigmoid(x)) <= 1e-15

    def test_extreme_arguments_stay_in_range_without_warning(self):
        x = np.array([-1e308, -745.0, 745.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y = _scaled_tanh(x.copy(), 0.5, 0.5)
        assert np.all((y >= 0.0) & (y <= 1.0))


def _lstm_stepwise(stack, layer, x):
    """One layer, projecting each step's input inside the time loop."""
    p = _lstm_params(stack, layer)
    W = np.vstack([p[f"W_{g}"] for g in "ifog"])
    U = np.vstack([p[f"U_{g}"] for g in "ifog"])
    b = np.concatenate([p[f"b_{g}"] for g in "ifog"])
    B, T, _ = x.shape
    H = stack.hidden_size
    h, c, hs = np.zeros((B, H)), np.zeros((B, H)), np.empty((B, T, H))
    for t in range(T):
        a = x[:, t, :] @ W.T + h @ U.T + b
        i, f, o = (oracles.sigmoid(a[:, k * H : (k + 1) * H]) for k in range(3))
        c = f * c + i * np.tanh(a[:, 3 * H :])
        h = o * np.tanh(c)
        hs[:, t, :] = h
    return hs


class TestLstmInputProjection:
    """The once-per-layer ``x @ W.T`` matches projecting step by step."""

    @pytest.mark.parametrize("T", [4, 16])
    @pytest.mark.parametrize("record", [False, True], ids=["predict", "train"])
    def test_layer_forward_matches_stepwise_loop(self, T, record):
        rng = SeededRng(T)
        stack = LstmStack(8, 64, 2, rng)
        x = rng.normal((64, T, 8))
        for layer in range(stack.num_layers):
            tape = GradTape() if record else None
            got = stack.layer_forward(layer, x, tape)
            assert _max_abs(got, _lstm_stepwise(stack, layer, x)) <= 1e-12
            if record:
                tape.backward(np.ones_like(got))
                assert tape.input_grad(x).shape == x.shape
            x = got


def _same_bits(got, want):
    # tobytes() tells -0.0 from +0.0, which == does not
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _lstm_zero_state_loop(stack, layer, x):
    """One layer forming h @ U.T and f * c_prev + i * g at every step,
    the zero initial state included, with the layer's own projection
    and gate functions: the values its forward must match bit for bit."""
    W, U, b = (p.value for p in stack.stacked[3 * layer : 3 * layer + 3])
    B, T, D = x.shape
    H = stack.hidden_size
    xw = (x.reshape(B * T, D) @ W.T).reshape(B, T, 4 * H)
    scale = np.repeat([0.5, 1.0], [3 * H, H])
    shift = np.repeat([0.5, -0.0], [3 * H, H])
    h, c, hs = np.zeros((B, H)), np.zeros((B, H)), np.empty((B, T, H))
    for t in range(T):
        a = h @ U.T
        a += xw[:, t]
        a += b
        _scaled_tanh(a, scale, shift)
        i, f, o, g = a[:, :H], a[:, H : 2 * H], a[:, 2 * H : 3 * H], a[:, 3 * H :]
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t, :] = h
    return hs


class TestLstmBits:
    """The forward skips the zero state's products but keeps their bits."""

    @pytest.mark.parametrize("T", [1, 4, 16])
    @pytest.mark.parametrize("B", [1, 3, 64, 128])
    @pytest.mark.parametrize("record", [False, True], ids=["predict", "train"])
    def test_layer_forward_matches_zero_state_loop(self, T, B, record):
        rng = SeededRng(100 * T + B)
        stack = LstmStack(8, 64, 2, rng)
        x = rng.normal((B, T, 8))
        for layer in range(stack.num_layers):
            got = stack.layer_forward(layer, x, GradTape() if record else None)
            _same_bits(got, _lstm_zero_state_loop(stack, layer, x))
            x = got

    def test_saturated_first_step_keeps_positive_zero(self):
        """i = +0 and g < 0 make a bare i * g -0.0; f * (+0) + i * g is +0.0."""
        rng = SeededRng(7)
        stack = LstmStack(8, 64, 1, rng)
        H = stack.hidden_size
        b = stack.stacked[2].value
        b[:H] = -100.0
        b[3 * H :] = -5.0
        x = 0.1 * rng.normal((3, 4, 8))
        want = _lstm_zero_state_loop(stack, 0, x)
        assert not np.any(want) and not np.any(np.signbit(want))
        for tape in (None, GradTape()):
            _same_bits(stack.layer_forward(0, x, tape), want)


def _normalize_with_means(norm, x, mu, var, d, fixed_stats=False):
    """Forward and backward of a norm layer from the given moments, with
    the means of ndarray.mean: (y, dx, dgain, dbias)."""
    inv = 1.0 / np.sqrt(var + norm.eps)
    xhat = x - mu
    xhat *= inv
    y = xhat * norm.gain.value
    y += norm.bias.value
    lead = tuple(range(d.ndim - 1))
    dxhat = d * norm.gain.value
    if fixed_stats:
        dx = dxhat * inv
    else:
        m1 = dxhat.mean(axis=norm.AXIS, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=norm.AXIS, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
    return y, dx, (d * xhat).sum(axis=lead), d.sum(axis=lead)


def _check_norm_bits(norm, x, want, **kw):
    d = SeededRng(5).normal(x.shape)
    tape = GradTape()
    y = norm.forward(x, tape, **kw)
    tape.backward(d)
    for got, ref in zip((y, tape.input_grad(x), norm.gain.grad, norm.bias.grad), want(d)):
        _same_bits(got, ref)


class TestNormBits:
    """LayerNorm and BatchNorm1d give the bits of np.mean and np.var."""

    @pytest.mark.parametrize("B", [1, 3, 64])
    def test_layer_norm(self, B):
        rng = SeededRng(B)
        ln = LayerNorm(64, "ln")
        ln.gain.value, ln.bias.value = rng.normal(64), rng.normal(64)
        x = 3.0 * rng.normal((B, 4, 64)) + 1.0
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        _check_norm_bits(ln, x, lambda d: _normalize_with_means(ln, x, mu, var, d))

    @pytest.mark.parametrize("B", [2, 3, 64])
    def test_batch_norm_training(self, B):
        rng = SeededRng(B)
        bn = BatchNorm1d(16, "bn")
        bn.gain.value, bn.bias.value = rng.normal(16), rng.normal(16)
        bn.running_mean[:], bn.running_var[:] = rng.normal(16), rng.uniform(16, 0.5, 2.0)
        x = 3.0 * rng.normal((B, 16)) + 1.0
        mu, var = x.mean(axis=0), x.var(axis=0)
        rm = bn.running_mean + 0.1 * (mu - bn.running_mean)
        rv = bn.running_var + 0.1 * (var - bn.running_var)
        _check_norm_bits(
            bn, x, lambda d: _normalize_with_means(bn, x, mu, var, d), training=True
        )
        _same_bits(bn.running_mean, rm)
        _same_bits(bn.running_var, rv)

    @pytest.mark.parametrize("B", [1, 3, 64])
    def test_batch_norm_inference(self, B):
        rng = SeededRng(B)
        bn = BatchNorm1d(16, "bn")
        bn.gain.value, bn.bias.value = rng.normal(16), rng.normal(16)
        bn.running_mean[:], bn.running_var[:] = rng.normal(16), rng.uniform(16, 0.5, 2.0)
        x = 3.0 * rng.normal((B, 16)) + 1.0
        mu, var = bn.running_mean.copy(), bn.running_var.copy()
        _check_norm_bits(
            bn, x, lambda d: _normalize_with_means(bn, x, mu, var, d, fixed_stats=True)
        )


class TestLayerNormProperties:
    def test_normalized_rows_have_zero_mean_unit_var(self):
        """Before gain/bias: per-position mean < 1e-9, variance ~ 1.

        The variance bound needs input variance >> eps=1e-5, so the
        input is drawn at a realistic activation scale.
        """
        rng = SeededRng(3)
        ln = LayerNorm(16, "ln")
        x = rng.normal((8, 16)) * 100.0 + 40.0
        y = ln.forward(x)  # gain 1, bias 0: y is the normalized input
        assert np.max(np.abs(y.mean(axis=-1))) < 1e-9
        assert np.max(np.abs(y.var(axis=-1) - 1.0)) < 1e-6


class TestBatchNormStateful:
    def test_running_stats_updated_only_in_training(self):
        rng = SeededRng(0)
        bn = BatchNorm1d(4, "bn")
        x = rng.normal((10, 4)) + 2.0
        bn.forward(x, training=False)
        np.testing.assert_array_equal(bn.running_mean, np.zeros(4))
        bn.forward(x, training=True)
        np.testing.assert_allclose(bn.running_mean, 0.1 * x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            bn.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0), atol=1e-12
        )

    def test_single_sample_training_batch_rejected(self):
        bn = BatchNorm1d(4, "bn")
        with pytest.raises(DegenerateBatchError):
            bn.forward(np.ones((1, 4)), training=True)
        # inference on a single sample is fine
        assert bn.forward(np.ones((1, 4)), training=False).shape == (1, 4)


class TestDropout:
    def test_identity_at_inference(self):
        x = SeededRng(1).normal((4, 5))
        out = dropout_apply(x, 0.5, rng=None, training=False)
        assert out is x

    def test_zero_rate_is_identity_even_training(self):
        x = SeededRng(1).normal((4, 5))
        assert dropout_apply(x, 0.0, rng=SeededRng(0), training=True) is x

    def test_training_mask_zeroes_or_scales(self):
        x = np.ones((40, 50))
        out = dropout_apply(x, 0.25, rng=SeededRng(7), training=True)
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75)
        drop_frac = 1.0 - kept.mean()
        assert 0.15 < drop_frac < 0.35

    def test_same_rng_seed_same_mask(self):
        x = SeededRng(2).normal((6, 6))
        a = dropout_apply(x, 0.5, rng=SeededRng(3), training=True)
        b = dropout_apply(x, 0.5, rng=SeededRng(3), training=True)
        np.testing.assert_array_equal(a, b)

    def test_training_without_an_rng_rejected(self):
        with pytest.raises(RangeError, match="needs an rng"):
            dropout_apply(np.ones((2, 2)), 0.5, rng=None, training=True)


class TestStructuralOps:
    def test_last_step_selects_final_time(self):
        x = SeededRng(4).normal((3, 5, 2))
        np.testing.assert_array_equal(last_step(x), x[:, -1, :])

    def test_concat_widths(self):
        a = np.ones((2, 3))
        b = np.zeros((2, 4))
        out = concat_features(a, b)
        assert out.shape == (2, 7)
        np.testing.assert_array_equal(out[:, :3], a)
        np.testing.assert_array_equal(out[:, 3:], b)

    def test_residual_add(self):
        a = SeededRng(5).normal((2, 3))
        b = SeededRng(6).normal((2, 3))
        np.testing.assert_array_equal(residual_add(a, b), a + b)
