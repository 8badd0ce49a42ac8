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


def _as_batch(x) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    return ad.reshape(t, (1,) + t.shape) if t.ndim == 2 else t


def similarity_loss(a, b) -> Tensor:
    """1 - cosine similarity between flattened representations, averaged
    over the batch. Zero iff the two are positive scalar multiples."""
    at, bt = _as_batch(a), _as_batch(b)
    if at.shape != bt.shape:
        raise ValueError(f"similarity_loss: shapes differ, {at.shape} vs {bt.shape}")
    bsz = at.shape[0]
    flat_a = ad.reshape(at, (bsz, at.shape[1] * at.shape[2]))
    flat_b = ad.reshape(bt, (bsz, bt.shape[1] * bt.shape[2]))
    norm_a = np.sqrt(np.sum(flat_a.data ** 2, axis=1))
    norm_b = np.sqrt(np.sum(flat_b.data ** 2, axis=1))
    if np.any(norm_a < 1e-12) or np.any(norm_b < 1e-12):
        raise ValueError("similarity_loss: representation norm below 1e-12")
    dot = ad.tsum(flat_a * flat_b, axis=1)
    na = ad.sqrt(ad.tsum(flat_a * flat_a, axis=1))
    nb = ad.sqrt(ad.tsum(flat_b * flat_b, axis=1))
    cos = dot / (na * nb)
    return ad.tmean(Tensor(np.ones(bsz)) - cos)


def independence_loss(c) -> Tensor:
    """Squared Frobenius distance between the factor-row Gram matrix and
    the identity, averaged over the batch. Zero iff rows are orthonormal."""
    ct = _as_batch(c)
    bsz, n, _ = ct.shape
    gram = ad.bmm(ct, ad.transpose(ct, (0, 2, 1)))
    eye = Tensor(np.broadcast_to(np.eye(n), (bsz, n, n)).copy())
    diff = gram - eye
    return ad.tmean(ad.tsum(diff * diff, axis=(1, 2)))
