"""Analytic gradients against central finite differences.

Each entry in ``GRAD_CASES`` builds a layer on small shapes (B<=4,
T<=5, dims<=8), runs one taped backward pass, and scores every
parameter gradient plus the input gradient against central differences
with h=1e-5.  The score is max |analytic - numeric| / max(1, |analytic|)
over all entries; the acceptance suite reruns the registry on three
seeds.
"""

import weakref

import numpy as np
import pytest

from ropnet.errors import DimensionError, TapeEmptyError
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
    concat_features,
    dropout_apply,
    last_step,
    relu,
    residual_add,
)
from ropnet.tensor import SeededRng

import oracles

FD_STEP = 1e-5
TOLERANCE = 1e-6
SEEDS = (0, 1, 2)


def run_grad_check(build, seed):
    """Score one layer's gradients against finite differences.

    ``build(rng)`` returns (params, inputs, fwd) where ``fwd(tape)``
    re-runs the forward pass reading the current parameter and input
    arrays in place.
    """
    rng = SeededRng(seed)
    params, inputs, fwd = build(rng)
    tape = GradTape()
    out = fwd(tape)
    proj = SeededRng(seed + 1000).normal(out.shape)
    for p in params:
        p.grad[...] = 0.0
    tape.backward(proj)

    def loss():
        return float(np.sum(fwd(None) * proj))

    worst = 0.0
    for p in params:
        numeric = oracles.numeric_grad(loss, p.value, FD_STEP)
        worst = max(worst, oracles.relative_error(p.grad, numeric))
    for x in inputs:
        analytic = tape.input_grad(x)
        assert analytic is not None
        numeric = oracles.numeric_grad(loss, x, FD_STEP)
        worst = max(worst, oracles.relative_error(analytic, numeric))
    return worst


def build_linear_2d(rng):
    lin = Linear(5, 3, rng, "lin")
    lin.b.value[:] = rng.normal(3)
    x = rng.normal((4, 5))
    return lin.params(), [x], lambda tape: lin.forward(x, tape)


def build_linear_3d(rng):
    lin = Linear(4, 2, rng, "lin")
    x = rng.normal((2, 3, 4))
    return lin.params(), [x], lambda tape: lin.forward(x, tape)


def build_layer_norm(rng):
    ln = LayerNorm(6, "ln")
    ln.gain.value = rng.normal(6)
    ln.bias.value = rng.normal(6)
    x = rng.normal((3, 6))
    return ln.params(), [x], lambda tape: ln.forward(x, tape)


def build_batch_norm_train(rng):
    bn = BatchNorm1d(5, "bn")
    bn.gain.value = rng.normal(5)
    bn.bias.value = rng.normal(5)
    x = rng.normal((6, 5))
    return bn.params(), [x], lambda tape: bn.forward(x, tape, training=True)


def build_batch_norm_eval(rng):
    bn = BatchNorm1d(5, "bn")
    bn.gain.value = rng.normal(5)
    bn.running_mean[:] = rng.normal(5)
    bn.running_var[:] = rng.uniform(5, 0.5, 2.0)
    x = rng.normal((4, 5))
    return bn.params(), [x], lambda tape: bn.forward(x, tape, training=False)


def build_lstm(rng):
    stack = LstmStack(3, 4, 2, rng)
    x = rng.normal((3, 4, 3))
    return stack.params(), [x], lambda tape: stack.layer_forward(1, stack.layer_forward(0, x, tape), tape)


def build_encoder(rng):
    enc = TransformerEncoderBlock(6, 2, 8, rng)
    x = rng.normal((2, 4, 6))
    return enc.params(), [x], lambda tape: enc.forward(x, tape)


def build_attention_pool(rng):
    pool = AttentionPool(5, rng)
    y = rng.normal((3, 4, 5))
    return pool.params(), [y], lambda tape: pool.forward(y, tape)


def build_mixer_standalone(rng):
    mixer = MixerBlock([5] + [6] * 5, rng, standalone=True)
    x = rng.normal((6, 5))
    return mixer.params(), [x], lambda tape: mixer.forward(x, tape, training=True)


def build_mixer_branch(rng):
    mixer = MixerBlock([5, 6, 4], rng)
    x = rng.normal((3, 5))
    return mixer.params(), [x], lambda tape: mixer.forward(x, tape)


def build_fusion_head(rng):
    head = FusionHead(4, 3, rng)
    t = rng.normal((4, 4))
    s = rng.normal((4, 3))
    return head.params(), [t, s], lambda tape: head.forward(t, s, tape)


def build_fusion_head_dropout(rng):
    head = FusionHead(4, 3, rng)
    t = rng.normal((4, 4))
    s = rng.normal((4, 3))

    def fwd(tape):
        # fresh generator per call: identical mask for every FD probe
        return head.forward(
            t, s, tape, dropout_rate=0.25, rng=SeededRng(77), training=True
        )

    return head.params(), [t, s], fwd


def build_dropout(rng):
    x = rng.normal((4, 5))

    def fwd(tape):
        return dropout_apply(x, 0.3, rng=SeededRng(9), training=True, tape=tape)

    return [], [x], fwd


def build_structural(rng):
    """last_step, residual, and concat chained into one graph."""
    a = rng.normal((3, 4, 4))
    b = rng.normal((3, 4))

    def fwd(tape):
        tail = last_step(a, tape)
        summed = residual_add(tail, b, tape)
        return concat_features(summed, b, tape)

    return [], [a, b], fwd


GRAD_CASES = {
    "linear_2d": build_linear_2d,
    "linear_3d": build_linear_3d,
    "layer_norm": build_layer_norm,
    "batch_norm_train": build_batch_norm_train,
    "batch_norm_eval": build_batch_norm_eval,
    "lstm": build_lstm,
    "encoder": build_encoder,
    "attention_pool": build_attention_pool,
    "mixer_standalone": build_mixer_standalone,
    "mixer_branch": build_mixer_branch,
    "fusion_head": build_fusion_head,
    "fusion_head_dropout": build_fusion_head_dropout,
    "dropout": build_dropout,
    "structural": build_structural,
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_gradients_match_finite_differences(name, seed):
    assert run_grad_check(GRAD_CASES[name], seed) < TOLERANCE


class TestTapeMechanics:
    def test_backward_on_empty_tape_raises(self):
        with pytest.raises(TapeEmptyError):
            GradTape().backward(np.ones(3))

    def test_loss_grad_shape_checked(self):
        rng = SeededRng(0)
        lin = Linear(3, 2, rng, "lin")
        tape = GradTape()
        lin.forward(rng.normal((4, 3)), tape)
        with pytest.raises(DimensionError):
            tape.backward(np.ones((4, 3)))

    def test_input_grad_before_backward_raises(self):
        tape = GradTape()
        x = np.ones((2, 3))
        relu(x, tape)
        with pytest.raises(TapeEmptyError):
            tape.input_grad(x)

    def test_backward_frees_the_tape(self):
        """Activations die during backward; leaf gradients stay readable
        and the spent tape refuses a second pass."""
        rng = SeededRng(6)
        lin = Linear(3, 4, rng, "lin")
        x = rng.normal((5, 3))
        tape = GradTape()
        hidden = lin.forward(x, tape)
        mask = hidden > 0.0
        out = relu(hidden, tape)
        ref = weakref.ref(hidden)
        del hidden
        tape.backward(np.ones_like(out))
        assert ref() is None
        np.testing.assert_allclose(tape.input_grad(x), mask @ lin.W.value, atol=1e-12)
        with pytest.raises(TapeEmptyError):
            tape.backward(np.ones_like(out))

    def test_fanout_accumulates_both_paths(self):
        """x used twice: d(x+x)/dx = 2."""
        tape = GradTape()
        x = np.ones((2, 3)) * 0.5
        out = residual_add(x, x, tape)
        tape.backward(np.ones_like(out))
        np.testing.assert_allclose(tape.input_grad(x), 2.0 * np.ones((2, 3)))

    def test_residual_fanout_through_layers(self):
        """x feeding two linear layers accumulates both contributions."""
        rng = SeededRng(4)
        lin_a = Linear(3, 3, rng, "a")
        lin_b = Linear(3, 3, rng, "b")
        x = rng.normal((2, 3))
        tape = GradTape()
        out = residual_add(lin_a.forward(x, tape), lin_b.forward(x, tape), tape)
        tape.backward(np.ones_like(out))
        want = np.ones((2, 3)) @ lin_a.W.value + np.ones((2, 3)) @ lin_b.W.value
        np.testing.assert_allclose(tape.input_grad(x), want, atol=1e-12)

    def test_param_grads_accumulate_across_backwards(self):
        """grad[...] accumulates until zeroed, as the optimizer expects."""
        rng = SeededRng(5)
        lin = Linear(3, 2, rng, "lin")
        x = rng.normal((2, 3))
        for _ in range(2):
            tape = GradTape()
            out = lin.forward(x, tape)
            tape.backward(np.ones_like(out))
        once = np.ones((2, 2)).T @ x
        np.testing.assert_allclose(lin.W.grad, 2.0 * once, atol=1e-12)
        for p in lin.params():
            p.grad.fill(0.0)
        np.testing.assert_array_equal(lin.W.grad, np.zeros((2, 3)))
