"""Per-period latent factor extraction.

A window is embedded per timestep and folded into a cycle-by-phase grid
for each of its k strongest periods. A shared residual transform lets
every grid cell see its phase-column and cycle-row means, the grid is
mean-pooled, and the result is projected onto N latent factor slots.
Amplitudes of the selected bins are carried along (differentiably) as
period weights.

The embedding is linear per step, so the miner works in input space:
the picker ranks the embedded spectrum as the input's spectrum mapped
through the embedding weights (`spectral.top_k_periods`), the amplitude
weights are one node on the input's spectrum at the picks
(`bin_amplitudes`), and embedding, fold, transform and pool are one node
(`ad.period_pool`) that takes every mean of the D input channels and maps
it, leaving only the cell tanh and its mean to the D_h embedded channels.
A batch's pyramid is one (B, k, N, D_h) tensor: every (window, slot) pair
that picked the same period is folded in one pass. `embed` itself is the
reference the tests hold the miner to.
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
    """Per-timestep linear map (B, T, D) -> (B, T, D_h). The miner folds
    it into its nodes and never calls it."""
    h = x if isinstance(x, Tensor) else Tensor(x)
    if h.ndim != 3:
        raise ValueError(f"embed expects (B, T, D) windows, got shape {h.shape}")
    b, t, d = h.shape
    if d != params.embed_w.shape[0]:
        raise ValueError(f"embed: input dim {d} does not match weights "
                         f"{params.embed_w.shape}")
    out = ad.affine(ad.reshape(h, (b * t, d)), params.embed_w, params.embed_b)
    return ad.reshape(out, (b, t, params.hidden))


def bin_amplitudes(spectrum: np.ndarray, embed_w: Tensor, t: int) -> Tensor:
    """Channel-averaged sinusoid amplitude of the embedded windows at their
    picked bins, as one node whose gradient reaches `embed_w`.

    `spectrum` is the (B, k, D) rfft of the T-step input windows at the
    picks (`top_k_periods`); the embedded windows' spectrum there is
    spectrum @ embed_w, since the bias only reaches the DC bin, which is
    never picked. Returns (B, k), scaled by 2/T so a unit-amplitude
    sinusoid sitting exactly on a bin scores ~1; raw transform magnitudes
    grow with T and would saturate the downstream softmax.
    """
    b, k, d = spectrum.shape
    w = embed_w.data
    # real parts above imaginary ones: one product of at least two rows
    parts = np.concatenate([spectrum.real.reshape(b * k, d),
                            spectrum.imag.reshape(b * k, d)]).astype(w.dtype, copy=False)
    z = parts @ w
    re, im = z[:b * k], z[b * k:]
    amp = np.sqrt(re * re + im * im)
    scale = 2.0 / t
    out = ad.array_mean(amp * scale, 1).reshape(b, k)

    def backward(g: np.ndarray):
        # where the amplitude is 0 the gradient reads 0, as `ad.sqrt`'s
        ga = np.divide(g.reshape(b * k, 1) * (scale / w.shape[1]), amp,
                       out=np.zeros_like(amp), where=amp != 0.0)
        return (parts.T @ np.concatenate([ga * re, ga * im]),)

    return ad.node(out, (embed_w,), backward)


def extract_pyramid(x: np.ndarray, params: MinerParams, frequencies,
                    spectrum: np.ndarray) -> CausalPyramid:
    """Fold embedded windows into per-period grids and project to slots.

    `x` holds the (B, T, D) input windows, `frequencies` each window's k
    picked bins, shape (B, k), and `spectrum` the input's rfft at them,
    (B, k, D), as `top_k_periods` returns them. Each pick folds its
    embedded window at period p = ceil(T/f): zero-padded to ceil(T/p)*p
    steps and reshaped to a cycles-by-phase grid. The shared residual
    transform feeds every cell its own value together with its
    phase-column mean and cycle-row mean (the per-period seasonal
    profile), so grids folded at different periods genuinely differ.
    Embedding, fold, transform and mean-pool are one autodiff node,
    `ad.period_pool`, which handles every (window, slot) pair of a period
    in one pass. The pooled grids are projected onto N factor slots;
    factors are (B, k, N, D_h).
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"extract_pyramid expects (B, T, D) windows, got shape {x.shape}")
    b, t, d = x.shape
    if d != params.embed_w.shape[0]:
        raise ValueError(f"extract_pyramid: input dim {d} does not match weights "
                         f"{params.embed_w.shape}")
    frequencies = np.asarray(frequencies)
    if frequencies.ndim != 2 or frequencies.shape[0] != b:
        raise ValueError(f"extract_pyramid expects ({b}, k) frequencies, "
                         f"got shape {frequencies.shape}")
    k = frequencies.shape[1]
    if spectrum.shape != (b, k, d):
        raise ValueError(f"extract_pyramid expects a ({b}, {k}, {d}) spectrum, "
                         f"got shape {spectrum.shape}")
    pooled = ad.period_pool(x, params.embed_w, params.embed_b, params.grid_w,
                            params.grid_b, -(-t // frequencies))
    slots = ad.affine(pooled, params.slot_w, params.slot_b)
    factors = ad.reshape(slots, (b, k, params.n_factors, params.hidden))
    return CausalPyramid(factors, bin_amplitudes(spectrum, params.embed_w, t))
