"""Layer forward passes against the explicit-loop references.

``FORWARD_CASES`` maps a layer name to a callable running one seeded
comparison and returning the worst absolute difference; the acceptance
suite iterates the same registry.
"""

import warnings

import numpy as np
import pytest

from ropnet.errors import DegenerateBatchError, DimensionError, RangeError
from ropnet.layers import (
    AttentionPool,
    BatchNorm1d,
    FusionHead,
    LayerNorm,
    Linear,
    LstmStack,
    MixerBlock,
    TransformerEncoderBlock,
    _sigmoid,
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
        stack.forward(x), oracles.lstm_layer_loop(x, _lstm_params(stack, 0))
    )


def check_lstm_stacked(seed):
    rng = SeededRng(seed)
    stack = LstmStack(3, 4, 2, rng)
    x = rng.normal((2, 4, 3))
    h0 = oracles.lstm_layer_loop(x, _lstm_params(stack, 0))
    want = oracles.lstm_layer_loop(h0, _lstm_params(stack, 1))
    return _max_abs(stack.forward(x), want)


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
    mixer = MixerBlock(MixerBlock.STANDALONE, 5, rng, hidden_dim=6)
    x = rng.normal((6, 5))
    h = x
    for lin, bn in zip(mixer._linears, mixer._norms):
        h = oracles.linear_loop(h, lin.W.value, lin.b.value)
        h = oracles.batchnorm_train_loop(h, bn.gain.value, bn.bias.value)
        h = oracles.relu_loop(h)
    want = oracles.linear_loop(h, mixer.out.W.value, mixer.out.b.value)
    return _max_abs(mixer.forward(x, training=True), want)


def check_mixer_branch(seed):
    rng = SeededRng(seed)
    mixer = MixerBlock(MixerBlock.BRANCH, 5, rng, branch_dims=(6, 4))
    x = rng.normal((3, 5))
    h = x
    for lin in mixer._linears:
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
        assert _max_abs(_sigmoid(x), oracles.sigmoid(x)) <= 1e-15

    def test_extreme_arguments_stay_in_range_without_warning(self):
        x = np.array([-1e308, -745.0, 745.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y = _sigmoid(x)
        assert np.all((y >= 0.0) & (y <= 1.0))


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

    def test_rate_out_of_range(self):
        x = np.ones((2, 2))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(RangeError):
                dropout_apply(x, rate, rng=SeededRng(0), training=True)


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


class TestShapeValidation:
    def test_linear_width_mismatch(self):
        lin = Linear(5, 3, SeededRng(0), "lin")
        with pytest.raises(DimensionError):
            lin.forward(np.zeros((2, 4)))

    def test_encoder_needs_three_dims(self):
        enc = TransformerEncoderBlock(6, 2, 8, SeededRng(0))
        with pytest.raises(DimensionError):
            enc.forward(np.zeros((2, 6)))

    def test_encoder_rejects_indivisible_heads(self):
        from ropnet.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TransformerEncoderBlock(6, 4, 8, SeededRng(0))

    def test_mixer_rejects_bad_width_and_variant(self):
        from ropnet.errors import ConfigurationError

        mixer = MixerBlock(MixerBlock.BRANCH, 5, SeededRng(0))
        with pytest.raises(DimensionError):
            mixer.forward(np.zeros((2, 4)))
        with pytest.raises(ConfigurationError):
            MixerBlock("fancy", 5, SeededRng(0))

    def test_pool_rejects_wrong_rank(self):
        pool = AttentionPool(5, SeededRng(0))
        with pytest.raises(DimensionError):
            pool.forward(np.zeros((2, 5)))

    def test_fusion_rejects_wrong_widths(self):
        head = FusionHead(4, 3, SeededRng(0))
        with pytest.raises(DimensionError):
            head.forward(np.zeros((2, 5)), np.zeros((2, 3)))


class TestAttentionPoolWeights:
    def test_weights_nonnegative_sum_to_one(self):
        rng = SeededRng(8)
        pool = AttentionPool(4, rng)
        w = pool.weights(rng.normal((3, 6, 4)))
        assert w.shape == (3, 6)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
