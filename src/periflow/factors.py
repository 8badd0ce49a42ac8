"""Per-period latent factor extraction.

A window is embedded per timestep and folded into a cycle-by-phase grid
for each of its k strongest periods. A shared residual transform lets
every grid cell see its phase-column and cycle-row means, the grid is
mean-pooled, and the result is projected onto N latent factor slots.
Fold, transform and pool are one autodiff node (`ad.period_pool`), and a
batch's pyramid is one (B, k, N, D_h) tensor: every (window, slot) pair
that picked the same period is folded in one pass. Amplitudes of the
selected bins are carried along (differentiably) as period weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericOverflow, Tensor


@dataclass
class MinerParams:
    """Embedding, shared grid transform and slot projection weights."""

    embed_w: Tensor
    embed_b: Tensor
    grid_w: Tensor
    grid_b: Tensor
    slot_w: Tensor
    slot_b: Tensor
    n_factors: int
    hidden: int

    def named(self, prefix: str = "miner") -> dict[str, Tensor]:
        return {
            f"{prefix}.embed_w": self.embed_w,
            f"{prefix}.embed_b": self.embed_b,
            f"{prefix}.grid_w": self.grid_w,
            f"{prefix}.grid_b": self.grid_b,
            f"{prefix}.slot_w": self.slot_w,
            f"{prefix}.slot_b": self.slot_b,
        }


@dataclass
class CausalPyramid:
    """Per-period factor blocks (B, k, N, D_h) and amplitude weights (B, k)."""

    factors: Tensor
    weights: Tensor

    def __post_init__(self):
        if not np.all(np.isfinite(self.factors.data)):
            raise NumericOverflow("non-finite factor block")
        if not np.all(np.isfinite(self.weights.data)):
            raise NumericOverflow("non-finite period weights")


def init_miner(d_in: int, hidden: int, n_factors: int,
               rng: np.random.Generator) -> MinerParams:
    def dense(fan_in, fan_out):
        return Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)),
                      requires_grad=True)

    return MinerParams(
        embed_w=dense(d_in, hidden),
        embed_b=Tensor(np.zeros(hidden), requires_grad=True),
        # grid transform input: cell value, its phase-column mean, its
        # cycle-row mean
        grid_w=dense(3 * hidden, hidden),
        grid_b=Tensor(np.zeros(hidden), requires_grad=True),
        slot_w=dense(hidden, n_factors * hidden),
        slot_b=Tensor(np.zeros(n_factors * hidden), requires_grad=True),
        n_factors=n_factors,
        hidden=hidden,
    )


def embed(x, params: MinerParams) -> Tensor:
    """Per-timestep linear map (B, T, D) -> (B, T, D_h)."""
    h = x if isinstance(x, Tensor) else Tensor(x)
    if h.ndim != 3:
        raise ValueError(f"embed expects (B, T, D) windows, got shape {h.shape}")
    b, t, d = h.shape
    if d != params.embed_w.shape[0]:
        raise ValueError(f"embed: input dim {d} does not match weights "
                         f"{params.embed_w.shape}")
    out = ad.affine(ad.reshape(h, (b * t, d)), params.embed_w, params.embed_b)
    return ad.reshape(out, (b, t, params.hidden))


def bin_amplitudes(h: Tensor, frequencies: np.ndarray) -> Tensor:
    """Channel-averaged sinusoid amplitude at chosen bins, differentiably.

    h is (B, T, C) and frequencies (B, k); returns (B, k). Uses an explicit
    cosine/sine projection so gradients flow into the embedding. Scaled by
    2/T so a unit-amplitude sinusoid sitting exactly on a bin scores ~1;
    raw transform magnitudes grow with T and would saturate the downstream
    softmax.
    """
    t = h.shape[1]
    grid = 2.0 * np.pi * np.asarray(frequencies)[..., None] * np.arange(t) / t
    re = ad.bmm(Tensor(np.cos(grid).astype(h.data.dtype, copy=False)), h)
    im = ad.bmm(Tensor((-np.sin(grid)).astype(h.data.dtype, copy=False)), h)
    return ad.tmean(ad.sqrt(re * re + im * im) * (2.0 / t), axis=2)


def extract_pyramid(h, params: MinerParams, frequencies) -> CausalPyramid:
    """Fold embedded windows into per-period grids and project to slots.

    `frequencies` holds each window's k picked bins, shape (B, k), and
    each pick folds its window at period p = ceil(T/f): zero-padded to
    ceil(T/p)*p steps and reshaped to a cycles-by-phase grid. The shared
    residual transform feeds every cell its own value together with its
    phase-column mean and cycle-row mean (the per-period seasonal
    profile), so grids folded at different periods genuinely differ. Fold,
    transform and mean-pool are one autodiff node, `ad.period_pool`, which
    handles every (window, slot) pair of a period in one pass. The pooled
    grids are projected onto N factor slots; factors are (B, k, N, D_h).
    """
    if h.ndim != 3:
        raise ValueError(f"extract_pyramid expects (B, T, D_h), got shape {h.shape}")
    b, t, c = h.shape
    if c != params.hidden:
        raise ValueError(f"extract_pyramid: channel dim {c} != hidden {params.hidden}")
    frequencies = np.asarray(frequencies)
    if frequencies.ndim != 2 or frequencies.shape[0] != b:
        raise ValueError(f"extract_pyramid expects ({b}, k) frequencies, "
                         f"got shape {frequencies.shape}")
    k = frequencies.shape[1]
    pooled = ad.period_pool(h, params.grid_w, params.grid_b, -(-t // frequencies))
    slots = ad.affine(pooled, params.slot_w, params.slot_b)
    factors = ad.reshape(slots, (b, k, params.n_factors, params.hidden))
    return CausalPyramid(factors, bin_amplitudes(h, frequencies))
