"""Per-period latent factor extraction.

A window is embedded per timestep and folded into a cycle-by-phase grid
for each of its k strongest periods. A shared residual transform lets
every grid cell see its phase-column and cycle-row means, the grid is
mean-pooled, and the result is projected onto N latent factor slots.
Amplitudes of the selected bins are carried along (differentiably) as
period weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericOverflow, Tensor
from .spectral import PeriodSet


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
    """k per-period factor blocks (B, N, D_h) plus their amplitude weights."""

    factors: list[Tensor]
    weights: Tensor
    periods: PeriodSet

    def __post_init__(self):
        if len(self.factors) != self.periods.k:
            raise ValueError("factor count must match the period set")
        for f in self.factors:
            if not np.all(np.isfinite(f.data)):
                raise NumericOverflow("non-finite factor block")
        if not np.all(np.isfinite(self.weights.data)):
            raise NumericOverflow("non-finite period weights")

    @property
    def k(self) -> int:
        return self.periods.k


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


def grid_shape(window_length: int, period: int) -> tuple[int, int]:
    rows = int(np.ceil(window_length / period))
    return rows, period


def bin_amplitudes(h: Tensor, frequencies: tuple[int, ...]) -> Tensor:
    """Channel-averaged sinusoid amplitude at chosen bins, differentiably.

    h is (B, T, C); returns (B, k). Uses an explicit cosine/sine projection
    so gradients flow into the embedding. Scaled by 2/T so a unit-amplitude
    sinusoid sitting exactly on a bin scores ~1; raw transform magnitudes
    grow with T and would saturate the downstream softmax.
    """
    b, t, c = h.shape
    grid = 2.0 * np.pi * np.outer(np.asarray(frequencies), np.arange(t)) / t
    cos_m = Tensor(np.cos(grid))
    sin_m = Tensor(-np.sin(grid))
    flat = ad.reshape(ad.transpose(h, (1, 0, 2)), (t, b * c))
    re = ad.reshape(ad.matmul(cos_m, flat), (len(frequencies), b, c))
    im = ad.reshape(ad.matmul(sin_m, flat), (len(frequencies), b, c))
    amp = ad.sqrt(re * re + im * im) * (2.0 / t)
    return ad.transpose(ad.tmean(amp, axis=2), (1, 0))


def extract_pyramid(h, params: MinerParams, periods: PeriodSet) -> CausalPyramid:
    """Fold embedded windows into per-period grids and project to slots.

    Every window of the batch shares `periods` (`training.encode_batch`
    groups windows by their picks). For each period p the window is
    zero-padded to ceil(T/p)*p and reshaped to a cycles-by-phase grid. The
    shared residual transform feeds every cell its own value together with
    its phase-column mean and cycle-row mean (the per-period seasonal
    profile), so grids folded at different periods genuinely differ. The
    transformed grid is mean-pooled and projected onto N factor slots;
    blocks are (B, N, D_h).
    """
    if h.ndim != 3:
        raise ValueError(f"extract_pyramid expects (B, T, D_h), got shape {h.shape}")
    b, t, c = h.shape
    if c != params.hidden:
        raise ValueError(f"extract_pyramid: channel dim {c} != hidden {params.hidden}")
    n = params.n_factors
    blocks: list[Tensor] = []
    for p in periods.periods:
        rows, cols = grid_shape(t, p)
        pad = rows * cols - t
        padded = h if pad == 0 else ad.concat(
            [h, Tensor(np.zeros((b, pad, c)))], axis=1)
        grid = ad.reshape(padded, (b, rows, cols, c))
        col_mean = ad.broadcast_to(ad.tmean(grid, axis=1, keepdims=True),
                                   (b, rows, cols, c))
        row_mean = ad.broadcast_to(ad.tmean(grid, axis=2, keepdims=True),
                                   (b, rows, cols, c))
        cells = ad.reshape(ad.concat([grid, col_mean, row_mean], axis=3),
                           (b * rows * cols, 3 * c))
        bump = ad.tanh(ad.affine(cells, params.grid_w, params.grid_b))
        transformed = ad.reshape(padded, (b * rows * cols, c)) + bump
        pooled = ad.tmean(ad.reshape(transformed, (b, rows * cols, c)), axis=1)
        slots = ad.affine(pooled, params.slot_w, params.slot_b)
        blocks.append(ad.reshape(slots, (b, n, params.hidden)))

    weights = bin_amplitudes(h, periods.frequencies)
    return CausalPyramid(blocks, weights, periods)
