"""Consistency and independence losses over fused representations.

`training.total_loss` encodes a batch and its band-noise-augmented twin
with shared parameters. The consistency loss here pulls the two
representations together; their average is the conditioning
representation, and the independence loss, an orthogonality penalty on
its factor rows, discourages redundant factors.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def similarity_loss(a: Tensor, b: Tensor) -> Tensor:
    """1 - cosine similarity between flattened representations, averaged
    over a (B, N, D_h) batch. Zero iff the two are positive scalar multiples.

    A window whose clean or augmented representation has norm below 1e-12
    (an all-zero window at the identity start) has no direction to compare
    and is left out of the mean; a batch of only such windows gives 0."""
    if a.ndim != 3 or a.shape != b.shape:
        raise ValueError(f"similarity_loss expects two (B, N, D_h) batches of "
                         f"one shape, got {a.shape} and {b.shape}")
    bsz = a.shape[0]
    flat_a = ad.reshape(a, (bsz, a.shape[1] * a.shape[2]))
    flat_b = ad.reshape(b, (bsz, b.shape[1] * b.shape[2]))
    norm_a = np.sqrt(np.sum(flat_a.data ** 2, axis=1))
    norm_b = np.sqrt(np.sum(flat_b.data ** 2, axis=1))
    # negated so a NaN norm stays in and a diverged batch still reads NaN
    keep = np.flatnonzero(~((norm_a < 1e-12) | (norm_b < 1e-12)))
    if keep.size == 0:
        return Tensor(0.0)
    if keep.size < bsz:
        flat_a, flat_b = ad.take(flat_a, keep), ad.take(flat_b, keep)
    dot = ad.tsum(flat_a * flat_b, axis=1)
    na = ad.sqrt(ad.tsum(flat_a * flat_a, axis=1))
    nb = ad.sqrt(ad.tsum(flat_b * flat_b, axis=1))
    cos = dot / (na * nb)
    return ad.tmean(Tensor(np.ones(keep.size)) - cos)


def independence_loss(c: Tensor) -> Tensor:
    """Squared Frobenius distance between the factor-row Gram matrix and
    the identity, averaged over a (B, N, D_h) batch. Zero iff rows are
    orthonormal."""
    if c.ndim != 3:
        raise ValueError(f"independence_loss expects (B, N, D_h), got shape {c.shape}")
    bsz, n, _ = c.shape
    gram = ad.bmm(c, ad.transpose(c, (0, 2, 1)))
    eye = Tensor(np.broadcast_to(np.eye(n), (bsz, n, n)).copy())
    diff = gram - eye
    return ad.tmean(ad.tsum(diff * diff, axis=(1, 2)))
