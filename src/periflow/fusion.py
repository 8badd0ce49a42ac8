"""Attention-weighted fusion of per-period factor blocks.

Each period contributes one token (its factor block pooled over slots);
single-head scaled dot-product attention over the k tokens yields one
score per period, which is combined multiplicatively with the softmaxed
amplitude weights. The fused representation is the resulting convex
combination of the raw blocks.
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
    """Convex combination of period blocks plus its mixing diagnostics."""

    values: Tensor
    attention: Tensor
    amp_softmax: Tensor

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
    b, k, n, dh = pyramid.factors.shape
    flat = ad.reshape(ad.tmean(pyramid.factors, axis=2), (b * k, dh))
    q = ad.reshape(ad.matmul(flat, params.query_w), (b, k, dh))
    key = ad.reshape(ad.matmul(flat, params.key_w), (b, k, dh))
    logits = ad.bmm(q, ad.transpose(key, (0, 2, 1))) * (1.0 / np.sqrt(dh))
    attn = ad.softmax(logits)

    # one scalar per period: column means of the attention matrix
    col_mean = ad.tmean(attn, axis=1)
    norm = ad.broadcast_to(ad.tsum(col_mean, axis=1, keepdims=True), (b, k))
    a_p = col_mean / norm

    w_hat = ad.softmax(pyramid.weights)
    combined = w_hat * a_p
    total = ad.broadcast_to(ad.tsum(combined, axis=1, keepdims=True), (b, k))
    u = combined / total

    stacked = ad.reshape(pyramid.factors, (b, k, n * dh))
    u_wide = ad.broadcast_to(ad.reshape(u, (b, k, 1)), (b, k, n * dh))
    fused = ad.reshape(ad.tsum(stacked * u_wide, axis=1), (b, n, dh))
    return FusedRepresentation(fused, a_p, w_hat)
