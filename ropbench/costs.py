"""Analytic FLOPs and bytes moved per layer, computed from tensor sizes.

These figures are computed, not measured.  Dividing them by the span
times of a traced run gives achieved GFLOP/s per layer, which is what a
CPU-only machine can report in place of accelerator utilisation.

Conventions:
- a multiply-add counts as 2 FLOPs; an elementwise op (add, multiply,
  sigmoid, tanh, exp, ...) counts as 1 FLOP per element;
- backward costs twice the forward matmul FLOPs (one product for the
  input gradient, one for the weight gradient) plus the elementwise
  work again;
- bytes moved counts float64 parameters read once per batch and
  amortised over the batch, plus activations written by forward and
  read back by backward.  Caches between operations are ignored.
"""

from __future__ import annotations

F64 = 8


def _layer(fwd_mm, fwd_ew, params, acts):
    """Per-sample costs for a layer with ``fwd_mm`` matmul FLOPs,
    ``fwd_ew`` elementwise FLOPs, ``params`` scalars and ``acts``
    activation scalars kept for backward."""
    return {
        "fwd_flops": fwd_mm + fwd_ew,
        "bwd_flops": 2 * fwd_mm + fwd_ew,
        "params": params,
        "acts": acts,
    }


def _lstm(spec):
    T, H = spec.window_len, spec.lstm_hidden
    mm = ew = params = acts = 0
    for layer in range(spec.lstm_layers):
        D = spec.input_features if layer == 0 else H
        mm += T * 4 * (2 * D * H + 2 * H * H)
        # bias adds and gate nonlinearities (4H each), cell update (3H),
        # tanh(c) and the output product (2H)
        ew += T * (4 * H + 4 * H + 3 * H + 2 * H)
        params += 4 * (D * H + H * H + H)
        # per step the cache keeps x_t, h, c, i, f, o, g and tanh(c)
        acts += T * (D + 7 * H)
    return _layer(mm, ew, params, acts)


def _encoder(spec):
    T, d, heads, ffn = spec.window_len, spec.lstm_hidden, spec.heads, spec.ffn_dim
    mm = 4 * 2 * T * d * d  # Q, K, V and output projections
    mm += 2 * 2 * T * T * d  # scores and context over all heads
    mm += 2 * 2 * T * d * ffn  # the two feed-forward layers
    ew = heads * T * T * 4 + 2 * 8 * T * d + T * (ffn + d) * 2
    params = 4 * d * d + 2 * d * ffn + ffn + d + 4 * d
    acts = T * (5 * d + heads * T + ffn * 2 + 4 * d)
    return _layer(mm, ew, params, acts)


def _attn_pool(spec):
    T, d = spec.window_len, spec.lstm_hidden
    return _layer(2 * T * d * 2, 5 * T, d, T * d + T)


def _mixer(spec):
    F = spec.input_features
    if spec.kind == "ts_mixer":
        widths = [F, spec.mixer_hidden] + [spec.mixer_hidden] * 4
        mm = sum(2 * a * b for a, b in zip(widths[:-1], widths[1:]))
        mm += 2 * spec.mixer_hidden
        hidden = sum(widths[1:])
        # bias, batch norm (about 4 per element) and ReLU per hidden unit
        ew = hidden * 6 + 1
        params = sum(a * b + b + 2 * b for a, b in zip(widths[:-1], widths[1:]))
        params += spec.mixer_hidden + 1
        acts = 3 * hidden
    else:
        widths = [F, *spec.branch_dims]
        mm = sum(2 * a * b for a, b in zip(widths[:-1], widths[1:]))
        hidden = sum(widths[1:])
        ew = hidden * 2
        params = sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))
        acts = 2 * hidden
    return _layer(mm, ew, params, acts)


def _fusion(spec):
    width = spec.lstm_hidden + spec.branch_dims[-1]
    # concatenation, dropout mask and the single-output affine map
    return _layer(2 * width, 3 * width + 1, width + 1, 2 * width)


def layer_costs(spec, batch: int) -> dict:
    """FLOPs and bytes per training sample and per predicted row.

    ``spec`` is a ``ropnet.models.ModelSpec``; ``batch`` is the batch
    size that parameter reads are amortised over.
    """
    kind = spec.kind
    parts = {}
    if kind != "ts_mixer":
        parts["lstm"] = _lstm(spec)
    if kind == "advanced_hybrid":
        parts["encoder"] = _encoder(spec)
    if kind in ("hybrid_lstm_mixer_attention", "advanced_hybrid"):
        parts["attn_pool"] = _attn_pool(spec)
    if kind != "baseline_lstm":
        parts["mixer"] = _mixer(spec)
    if kind not in ("baseline_lstm", "ts_mixer"):
        parts["fusion"] = _fusion(spec)
    out = {}
    for name, c in parts.items():
        param_bytes = F64 * c["params"] / batch
        act_bytes = F64 * c["acts"]
        out[name] = {
            "train_flops_per_sample": c["fwd_flops"] + c["bwd_flops"],
            "predict_flops_per_row": c["fwd_flops"],
            # forward writes activations, backward reads them and
            # writes the parameter gradients plus the AdamW update
            "train_bytes_per_sample": 4 * param_bytes + 2 * act_bytes,
            "predict_bytes_per_row": param_bytes + act_bytes,
        }
    return out
