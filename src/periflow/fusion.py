"""Attention-weighted fusion of per-period factor blocks.

Each period contributes one token (its factor block pooled over slots);
single-head scaled dot-product attention over the k tokens yields one
score per period, which is combined multiplicatively with the softmaxed
amplitude weights. The fused representation is the resulting convex
combination of the raw blocks; the two mixing weights are reported as
arrays, and no loss reads them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericOverflow, Tensor
from .factors import CausalPyramid


@dataclass
class FusionParams:
    query_w: Tensor
    key_w: Tensor

    def named(self, prefix: str = "fusion") -> dict[str, Tensor]:
        return {f"{prefix}.query_w": self.query_w, f"{prefix}.key_w": self.key_w}


@dataclass
class FusedRepresentation:
    """Convex combination of period blocks plus its (B, k) mixing weights."""

    values: Tensor
    attention: np.ndarray
    amp_softmax: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values.data)):
            raise NumericOverflow("non-finite fused representation")


def init_fusion(hidden: int, rng: np.random.Generator) -> FusionParams:
    scale = 1.0 / np.sqrt(hidden)
    return FusionParams(
        query_w=Tensor(rng.normal(0.0, scale, size=(hidden, hidden)), requires_grad=True),
        key_w=Tensor(rng.normal(0.0, scale, size=(hidden, hidden)), requires_grad=True),
    )


def fuse(pyramid: CausalPyramid, params: FusionParams) -> FusedRepresentation:
    """Fuse a (B, k, N, D_h) pyramid into (B, N, D_h), as one autodiff node.
    The attention scores and the softmaxed amplitude weights come back as
    plain arrays beside the differentiable values.

    Forward and backward run, array for array, the numpy operations of the
    equivalent chain of generic ops (the oracle in tests/test_fusion.py),
    so values and gradients are bitwise those of the chain."""
    factors, weights = pyramid.factors, pyramid.weights
    wq, wk = params.query_w.data, params.key_w.data
    f = factors.data
    b, k, n, dh = f.shape
    dtype = f.dtype
    flat = ad.array_mean(f, 2).reshape(b * k, dh)
    q = ad.dense(flat, wq).reshape(b, k, dh)
    key_t = np.transpose(ad.dense(flat, wk).reshape(b, k, dh), (0, 2, 1))
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=dtype)
    attn = ad.array_softmax(q @ key_t * scale)
    # one scalar per period: column means of the attention matrix
    col_mean = ad.array_mean(attn, 1)
    norm = np.sum(col_mean, axis=1, keepdims=True)
    a_p = col_mean / norm
    w_hat = ad.array_softmax(weights.data)
    combined = w_hat * a_p
    total = np.sum(combined, axis=1, keepdims=True)
    u = combined / total
    stacked = f.reshape(b, k, n * dh)
    fused = np.sum(stacked * u[:, :, None], axis=1).reshape(b, n, dh)

    def backward(g_fused):
        g_prod = np.broadcast_to(g_fused.reshape(b, 1, n * dh), stacked.shape)
        g_comb = _div_grad(np.sum(g_prod * stacked, axis=2), combined, total)
        g_col = _div_grad(g_comb * w_hat, col_mean, norm)
        g_attn = np.broadcast_to(g_col.reshape(b, 1, k) / k, attn.shape)
        g_logits = ad.softmax_grad(g_attn, attn) * scale
        g_q = (g_logits @ np.swapaxes(key_t, 1, 2)).reshape(b * k, dh)
        g_key = np.ascontiguousarray(np.transpose(
            np.swapaxes(q, 1, 2) @ g_logits, (0, 2, 1))).reshape(b * k, dh)
        g_flat = (g_q @ wq.T + g_key @ wk.T).reshape(b, k, 1, dh)
        gf = (g_prod * u[:, :, None]).reshape(f.shape) + np.broadcast_to(g_flat / n, f.shape)
        g_weights = ad.softmax_grad(g_comb * a_p, w_hat)
        return g_weights, gf, flat.T @ g_q, flat.T @ g_key

    # weights before factors: the sweep then reaches the amplitude branch
    # first, as it did through the chain, and the embedding sums its
    # three gradients in the same order
    values = ad.node(fused, (weights, factors, params.query_w, params.key_w), backward)
    return FusedRepresentation(values, a_p, w_hat)


def _div_grad(g: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Gradient of num / den at num, for a (B, k) `num` and its (B, 1) row
    sums `den`: through the numerator and through the sum."""
    g_den = np.sum(-g * num / (den * den), axis=1, keepdims=True)
    return g / den + g_den
