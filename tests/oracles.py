"""Independent reference implementations used to check the library.

Everything here is written with explicit loops and the textbook
formulas, deliberately sharing no code with the package, so agreement
is evidence rather than tautology.  Shapes are assumed tiny, except for
the whole-array generator copies at the end, which the in-place ones
must match bit for bit.
"""

import tracemalloc

import numpy as np

from ropnet.data import (
    _AR_RHO,
    _BASE_MEANS,
    _BASE_STDS,
    _COMMON_FACTOR,
    _TARGET_MEAN_LEVEL,
    LAG1_COEFFS,
    LAG2_COEFFS,
    STATIC_COEFFS,
)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def linear_loop(x, W, b=None):
    """y[n, o] = sum_i x[n, i] * W[o, i] + b[o], all loops."""
    n_rows, in_dim = x.shape
    out_dim = W.shape[0]
    out = np.zeros((n_rows, out_dim))
    for n in range(n_rows):
        for o in range(out_dim):
            acc = 0.0 if b is None else float(b[o])
            for i in range(in_dim):
                acc += x[n, i] * W[o, i]
            out[n, o] = acc
    return out


def softmax_loop(v):
    """Softmax of a 1-D vector with max subtraction."""
    m = max(float(t) for t in v)
    exps = np.array([np.exp(float(t) - m) for t in v])
    return exps / exps.sum()


def relu_loop(x):
    out = np.zeros_like(x)
    flat_in = x.reshape(-1)
    flat_out = out.reshape(-1)
    for i in range(flat_in.size):
        flat_out[i] = flat_in[i] if flat_in[i] > 0 else 0.0
    return out


def layernorm_loop(x, gain, bias, eps=1e-5):
    """Normalize the last axis of a 2-D or 3-D array, then scale/shift."""
    x2 = x.reshape(-1, x.shape[-1])
    out = np.zeros_like(x2)
    d = x2.shape[1]
    for n in range(x2.shape[0]):
        mu = sum(float(v) for v in x2[n]) / d
        var = sum((float(v) - mu) ** 2 for v in x2[n]) / d
        inv = 1.0 / np.sqrt(var + eps)
        for j in range(d):
            out[n, j] = (x2[n, j] - mu) * inv * gain[j] + bias[j]
    return out.reshape(x.shape)


def batchnorm_train_loop(x, gain, bias, eps=1e-5):
    """Training-mode batch norm over axis 0 of a 2-D array."""
    n, d = x.shape
    out = np.zeros_like(x)
    for j in range(d):
        mu = sum(float(x[i, j]) for i in range(n)) / n
        var = sum((float(x[i, j]) - mu) ** 2 for i in range(n)) / n
        inv = 1.0 / np.sqrt(var + eps)
        for i in range(n):
            out[i, j] = (x[i, j] - mu) * inv * gain[j] + bias[j]
    return out


def lstm_layer_loop(x, p):
    """One recurrent layer over [B, T, D]; p maps 'W_i', 'U_i', 'b_i', ...

    Follows the gate equations step by step:
      i = sig(Wi x + Ui h + bi), f, o likewise, g = tanh(...),
      c' = f*c + i*g, h' = o*tanh(c').
    """
    B, T, _ = x.shape
    H = p["b_i"].shape[0]
    hs = np.zeros((B, T, H))
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    for t in range(T):
        xt = x[:, t, :]
        pre = {}
        for gate in "ifog":
            pre[gate] = (
                linear_loop(xt, p[f"W_{gate}"], p[f"b_{gate}"])
                + linear_loop(h, p[f"U_{gate}"])
            )
        i_g = sigmoid(pre["i"])
        f_g = sigmoid(pre["f"])
        o_g = sigmoid(pre["o"])
        g_g = np.tanh(pre["g"])
        c = f_g * c + i_g * g_g
        h = o_g * np.tanh(c)
        hs[:, t, :] = h
    return hs


def attention_loop(x, W_q, W_k, W_v, W_o, heads):
    """Multi-head scaled dot-product self-attention, loops per head."""
    B, T, d = x.shape
    dk = d // heads
    out = np.zeros((B, T, d))
    for b in range(B):
        q = linear_loop(x[b], W_q)
        k = linear_loop(x[b], W_k)
        v = linear_loop(x[b], W_v)
        merged = np.zeros((T, d))
        for h in range(heads):
            cols = slice(h * dk, (h + 1) * dk)
            qh, kh, vh = q[:, cols], k[:, cols], v[:, cols]
            for i in range(T):
                scores = np.zeros(T)
                for j in range(T):
                    scores[j] = sum(
                        qh[i, a] * kh[j, a] for a in range(dk)
                    ) / np.sqrt(dk)
                attn = softmax_loop(scores)
                for a in range(dk):
                    merged[i, h * dk + a] = sum(
                        attn[j] * vh[j, a] for j in range(T)
                    )
        out[b] = linear_loop(merged, W_o)
    return out


def attention_pool_loop(y, w):
    """Softmax-weighted time pooling: out = sum_t softmax(y.w)_t y_t."""
    B, T, d = y.shape
    out = np.zeros((B, d))
    for b in range(B):
        scores = np.array(
            [sum(y[b, t, a] * w[a] for a in range(d)) for t in range(T)]
        )
        attn = softmax_loop(scores)
        for a in range(d):
            out[b, a] = sum(attn[t] * y[b, t, a] for t in range(T))
    return out


def metrics_loop(actual, predicted, zero_tol=1e-8):
    """All four measures with explicit accumulation."""
    n = len(actual)
    mean_y = sum(float(v) for v in actual) / n
    ss_res = sum((float(a) - float(p)) ** 2 for a, p in zip(actual, predicted))
    ss_tot = sum((float(a) - mean_y) ** 2 for a in actual)
    mae = sum(abs(float(a) - float(p)) for a, p in zip(actual, predicted)) / n
    rmse = np.sqrt(ss_res / n)
    terms = [
        abs((float(a) - float(p)) / float(a))
        for a, p in zip(actual, predicted)
        if abs(float(a)) >= zero_tol
    ]
    mape = 100.0 * sum(terms) / len(terms)
    return {
        "r2": 1.0 - ss_res / ss_tot,
        "mae": mae,
        "rmse": float(rmse),
        "mape_pct": mape,
        "mape_excluded": n - len(terms),
    }


def adamw_step_loop(values, grads, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """One reference AdamW update on flat float lists; returns new lists."""
    new_vals, new_m, new_v = [], [], []
    for x, g, mi, vi in zip(values, grads, m, v):
        mi = b1 * mi + (1 - b1) * g
        vi = b2 * vi + (1 - b2) * g * g
        mhat = mi / (1 - b1**t)
        vhat = vi / (1 - b2**t)
        x = x * (1 - lr * wd)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
        new_vals.append(x)
        new_m.append(mi)
        new_v.append(vi)
    return new_vals, new_m, new_v


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of scalar f w.r.t. every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f()
        flat[i] = orig - h
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_error(analytic, numeric):
    """Worst-entry |analytic - numeric| / max(1, |analytic|)."""
    a = np.asarray(analytic).reshape(-1)
    b = np.asarray(numeric).reshape(-1)
    denom = np.maximum(1.0, np.abs(a))
    return float(np.max(np.abs(a - b) / denom))


def traced_peak(fn):
    """``fn()``'s result and the most memory tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class WholeArrayRng:
    """SplitMix64 draws as whole-array expressions, one temporary per
    operation: the form ``tensor.SeededRng`` computes in place."""

    GAMMA = np.uint64(0x9E3779B97F4A7C15)
    MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    MIX2 = np.uint64(0x94D049BB133111EB)

    def __init__(self, seed):
        self.state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def next_block(self, n):
        with np.errstate(over="ignore"):
            steps = (np.arange(1, n + 1, dtype=np.uint64)) * self.GAMMA
            z = self.state + steps
            self.state = self.state + np.uint64(n) * self.GAMMA
            z = (z ^ (z >> np.uint64(30))) * self.MIX1
            z = (z ^ (z >> np.uint64(27))) * self.MIX2
            return z ^ (z >> np.uint64(31))

    def uniform(self, shape, lo=0.0, hi=1.0):
        if np.isscalar(shape):
            shape = (int(shape),)
        n = int(np.prod(shape)) if len(shape) else 1
        bits = self.next_block(n)
        u01 = (bits >> np.uint64(11)).astype(np.float64) * np.float64(1.0 / (1 << 53))
        return (lo + (hi - lo) * u01).reshape(shape)

    def normal(self, shape):
        if np.isscalar(shape):
            shape = (int(shape),)
        n = int(np.prod(shape)) if len(shape) else 1
        pairs = (n + 1) // 2
        u = self.uniform((2, pairs))
        r = np.sqrt(-2.0 * np.log1p(-u[0]))
        theta = 2.0 * np.pi * u[1]
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)


def whole_array_well(spec):
    """Features, target and truth of ``data.generate_synthetic(spec)``,
    drawn with ``WholeArrayRng``, a numpy row loop for the AR(1) latents,
    a gathered regime shift and fancy-indexed lags."""
    seed, noise_sigma, regime_count = spec.seed, spec.noise_sigma, spec.regime_count
    rng = WholeArrayRng(seed)
    n, n_feat, burn = spec.n_rows, len(_BASE_MEANS), 2
    total = n + burn
    eps = rng.normal((total, n_feat))
    common = rng.normal((total, 1))
    innov = (eps + _COMMON_FACTOR * common) / np.sqrt(1.0 + _COMMON_FACTOR**2)
    z = np.empty((total, n_feat))
    z[0] = innov[0]
    carry = np.sqrt(1.0 - _AR_RHO**2)
    for t in range(1, total):
        z[t] = _AR_RHO * z[t - 1] + carry * innov[t]

    cuts = np.sort(rng.uniform((regime_count - 1,), 0.2, 0.8))
    boundaries = np.unique((cuts * n).astype(np.int64))
    regime_of_row = np.searchsorted(boundaries, np.arange(n), side="right")
    n_regimes = len(boundaries) + 1
    channel_shift = rng.uniform((n_regimes, n_feat), -1.0, 1.0)
    level_jitter = rng.uniform((n_regimes,), -1.0, 1.0)
    noise = rng.normal((n,)) * noise_sigma

    regime_full = np.concatenate([np.zeros(burn, dtype=np.int64), regime_of_row])
    x = _BASE_MEANS + _BASE_STDS * (z + channel_shift[regime_full])
    c_s, c_1, c_2 = STATIC_COEFFS, LAG1_COEFFS, LAG2_COEFFS
    center = _TARGET_MEAN_LEVEL - (c_s + c_1 + c_2) @ _BASE_MEANS
    regime_offsets = center + level_jitter
    rows = np.arange(burn, total)
    signal = (
        x[rows] @ c_s
        + x[rows - 1] @ c_1
        + x[rows - 2] @ c_2
        + regime_offsets[regime_of_row]
    )
    y = signal + noise
    signal_var = float(signal.var())
    bayes_mse = float(noise_sigma**2)
    truth = {
        "seed": seed,
        "n_rows": n,
        "feature_names": ["WOB", "RPM", "Torque", "Standpipe Pressure",
                          "Flow Rate", "Hook Load", "Bit Depth", "Hole Depth"],
        "static_coeffs": c_s.tolist(),
        "lag1_coeffs": c_1.tolist(),
        "lag2_coeffs": c_2.tolist(),
        "regime_boundaries": boundaries.tolist(),
        "regime_offsets": regime_offsets.tolist(),
        "channel_shift": channel_shift.tolist(),
        "noise_sigma": noise_sigma,
        "bayes_mse": bayes_mse,
        "signal_variance": signal_var,
        "bayes_r2": signal_var / (signal_var + bayes_mse),
    }
    return x[rows], y, truth
