"""Straight-line numpy re-implementation of the forecasting pipeline.

No modular dispatch, no tape: just loops and explicit formulas, reading
weights off a built model. Used as the integration oracle for the
Forecaster's forward pass.
"""

import numpy as np


def naive_multihead_attention(q, k, v, wq, wk, wv, wo, num_heads):
    """Per-batch, per-head loop oracle for scaled dot-product attention."""
    b, sq, dm = q.shape
    hd = dm // num_heads
    qp, kp, vp = q @ wq, k @ wk, v @ wv
    out = np.zeros((b, sq, dm))
    for bi in range(b):
        for h in range(num_heads):
            cols = slice(h * hd, (h + 1) * hd)
            qh, kh, vh = qp[bi][:, cols], kp[bi][:, cols], vp[bi][:, cols]
            scores = qh @ kh.T / np.sqrt(hd)
            scores = scores - scores.max(axis=-1, keepdims=True)
            weights = np.exp(scores)
            weights = weights / weights.sum(axis=-1, keepdims=True)
            out[bi][:, cols] = weights @ vh
    return out @ wo


def layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def rbf_expand(x, centers, bandwidth):
    diff = x[..., None] - centers  # [..., D, K]
    feats = np.exp(-(diff ** 2) / (2.0 * bandwidth * bandwidth))
    return feats.reshape(x.shape[:-1] + (x.shape[-1] * centers.size,))


def reference_forward(model, x):
    """Full-variant forward pass recomputed without the module stack."""
    cfg = model.config
    assert cfg.variant == "full"
    n, length, offsets = cfg.num_variates, cfg.lookback, cfg.offsets
    sub_len = length // offsets

    # instance normalization
    mean = x.mean(axis=2, keepdims=True)
    std = np.maximum(np.sqrt(x.var(axis=2)), model.revin.eps)[..., None]
    xn = (x - mean) / std
    if cfg.revin_affine:
        gamma = model.revin.gamma.data.reshape(1, n, 1)
        beta = model.revin.beta.data.reshape(1, n, 1)
        xn = xn * gamma + beta

    # phase split, KAN stage, local attention with residual
    kan = model.blocks[0].mixers[0]
    attended = []
    for u in range(offsets):
        sub = xn[..., u::offsets]
        z = sub
        if kan.prenorm is not None:
            z = layer_norm(z, kan.prenorm.gamma.data, kan.prenorm.beta.data, kan.prenorm.eps)
        feats = rbf_expand(z, kan.centers, kan.bandwidth)
        mixed = feats @ kan.weights.data
        att = naive_multihead_attention(
            mixed, mixed, mixed,
            model.blocks[0].attn_local.wq.data, model.blocks[0].attn_local.wk.data,
            model.blocks[0].attn_local.wv.data, model.blocks[0].attn_local.wo.data,
            cfg.num_heads,
        )
        attended.append(mixed + att)

    # inverse interleave
    merged = np.zeros_like(xn)
    for u in range(offsets):
        for t in range(sub_len):
            merged[..., u + t * offsets] = attended[u][..., t]

    # global fusion against the normalized input
    fused = xn + naive_multihead_attention(
        merged, xn, xn,
        model.blocks[0].attn_fusion.wq.data, model.blocks[0].attn_fusion.wk.data,
        model.blocks[0].attn_fusion.wv.data, model.blocks[0].attn_fusion.wo.data,
        cfg.num_heads,
    )

    # linear head then inverse normalization
    y = fused @ model.head.weight.data + model.head.bias.data
    if cfg.revin_affine:
        y = (y - beta) / (gamma + model.revin.eps ** 2)
    return y * std + mean
