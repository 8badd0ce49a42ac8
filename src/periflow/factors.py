"""Per-period latent factor extraction.

A window is embedded per timestep and folded into a cycle-by-phase grid
for each of its k strongest periods; a shared residual transform lets
every grid cell see its phase-column and cycle-row means, the grid is
mean-pooled (`period_pool`), and the result is projected onto N latent
factor slots. Amplitudes of the selected bins are carried along
(differentiably) as period weights (`bin_amplitudes`).

The embedding is linear per step, so the miner works in input space: the
picker ranks the input's spectrum mapped through the embedding weights
(`spectral.top_k_periods`), and both nodes take their means and spectra
of the D input channels and map them. A batch's pyramid is one
(B, k, N, D_h) tensor. `embed` itself is the reference the tests hold
the miner to.
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


def embed(x: Tensor, params: MinerParams) -> Tensor:
    """Per-timestep linear map (B, T, D) -> (B, T, D_h). The miner folds
    it into its nodes and never calls it."""
    if x.ndim != 3:
        raise ValueError(f"embed expects (B, T, D) windows, got shape {x.shape}")
    b, t, d = x.shape
    if d != params.embed_w.shape[0]:
        raise ValueError(f"embed: input dim {d} does not match weights "
                         f"{params.embed_w.shape}")
    out = ad.affine(ad.reshape(x, (b * t, d)), params.embed_w, params.embed_b)
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
    parts = np.concatenate([spectrum.real.reshape(b * k, d),
                            spectrum.imag.reshape(b * k, d)]).astype(w.dtype, copy=False)
    z = ad.dense(parts, w)
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


# (window, slot) pairs per pass of `period_pool`: a pass's buffers then stay
# in the core's cache (at T=60, C=32 each pair's grid is 16 KB)
_POOL_BLOCK = 32


def _period_blocks(periods: np.ndarray) -> list:
    """(period, pairs) for the (window, slot) pairs that picked each period,
    pair i*k + j for window i's slot j, in blocks of at most _POOL_BLOCK
    pairs; within a period the pairs keep their order."""
    flat = periods.ravel()
    order = flat.argsort(kind="stable")
    ranked = flat[order]
    edges = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), flat.size]
    return [(int(ranked[lo]), order[at:min(at + _POOL_BLOCK, hi)])
            for lo, hi in zip(edges[:-1], edges[1:])
            for at in range(lo, hi, _POOL_BLOCK)]


def period_pool(x: np.ndarray, embed_w: Tensor, embed_b: Tensor, grid_w: Tensor,
                grid_b: Tensor, periods) -> Tensor:
    """Embed each window of a (B, T, D) array, fold it at each of its k
    periods, transform every grid cell and mean-pool: output (B*k, C), row
    i*k + j for window i's slot j.

    A step embeds to h = x @ embed_w + embed_b. Period p zero-pads a
    window's h to R = ceil(T/p) cycles of p steps. Each cell gets
    tanh(cell @ W_cell + b + colmean @ W_col + rowmean @ W_row), with
    W_cell, W_col, W_row the three C-row blocks of `grid_w`, `b` the
    `grid_b`, and colmean and rowmean the cell's phase-column and
    cycle-row means; the pooled value is mean(grid) + mean(tanh(...)) over
    the R*p cells.

    The embedding is linear, so every mean is taken of the input and then
    mapped: a real step is [x, 1] and a pad step 0 in D+1 channels, whose
    means times E = [embed_w; embed_b] are the means of h, and whose cell
    projection is [x, 1] @ (E @ W_cell). Only the tanh and its mean run on
    the C channels. The (window, slot) pairs that picked the same period
    are gathered and transformed together, step-major, in blocks small
    enough to stay in cache. `x` is a constant: no gradient reaches it.
    """
    b, t, d = x.shape
    c = embed_w.shape[1]
    periods = np.asarray(periods, dtype=np.intp)
    k = periods.shape[1]
    dtype = embed_w.data.dtype
    record = ad.records((embed_w, embed_b, grid_w, grid_b))
    e = np.concatenate([embed_w.data, embed_b.data[None]])
    w_cell, w_col, w_row = grid_w.data.reshape(3, c, c)
    a_col, a_row = e @ w_col, e @ w_row
    # a real cell's b rides on its 1 channel; pad cells add it apart
    a_cell = e @ w_cell
    a_cell[d] += grid_b.data
    blocks = _period_blocks(periods)
    # step-major, every window zero-padded to the longest fold: a block
    # is a take along axis 1, and its means and pools reduce over leading
    # axes, in an order that does not depend on the block's size
    span = max(-(-t // p) * p for p, _ in blocks)
    xs = np.zeros((span, b, d + 1), dtype=dtype)
    xs[:t, :, :d] = x.transpose(1, 0, 2)
    xs[:t, :, d] = 1.0
    # the grid mean of a pair is its window's step sum over its R*p cells
    fold_cells = (-(-t // periods) * periods).reshape(b * k, 1)
    grid_means = np.repeat(np.add.reduce(xs, 0), k, axis=0) / fold_cells.astype(dtype)
    out_data = ad.dense(grid_means, e)
    kept = []
    for p, pos in blocks:
        m, rows = pos.size, -(-t // p)
        n = rows * p
        xb = xs[:n].take(pos // k, axis=1)
        grid = xb.reshape(rows, p, m, d + 1)
        col = np.multiply(np.add.reduce(grid, 0), 1.0 / rows).reshape(p * m, d + 1)
        row = np.multiply(np.add.reduce(grid, 1), 1.0 / p).reshape(rows * m, d + 1)
        y = ad.dense(xb.reshape(n * m, d + 1), a_cell).reshape(rows, p, m, c)
        if n > t:
            y.reshape(n, m, c)[t:] += grid_b.data
        y += ad.dense(col, a_col).reshape(p, m, c)
        y += ad.dense(row, a_row).reshape(rows, 1, m, c)
        np.tanh(y, out=y)
        y = y.reshape(n, m, c)
        out_data[pos] += np.multiply(np.add.reduce(y, 0), 1.0 / n)
        if record:  # under no_grad each block's buffers go at once
            kept.append((p, pos, xb, col, row, y))

    def backward(g: np.ndarray):
        g_cell, g_col, g_row = np.zeros((3, d + 1, c), dtype=g.dtype)
        g_b = np.zeros(c, dtype=g.dtype)
        # one scratch buffer for every block's dy: a fresh one per block
        # costs more to first touch than to fill
        scratch = np.empty(max(blk[-1].size for blk in kept), dtype=g.dtype)
        for p, pos, xb, col, row, y in kept:
            n, m = y.shape[:2]
            rows = n // p
            dy = np.multiply(y, y, out=scratch[:y.size].reshape(y.shape))
            np.subtract(1.0, dy, out=dy)
            dy *= g[pos] / n
            g_cell += xb.reshape(n * m, d + 1).T @ dy.reshape(n * m, c)
            if n > t:
                g_b += dy[t:].reshape((n - t) * m, c).sum(axis=0)
            grid = dy.reshape(rows, p, m, c)
            g_col += col.T @ grid.sum(axis=0).reshape(p * m, c)
            g_row += row.T @ grid.sum(axis=1).reshape(rows * m, c)
        g_e = g_cell @ w_cell.T + g_col @ w_col.T + g_row @ w_row.T + grid_means.T @ g
        g_grid = np.concatenate([e.T @ g_cell, e.T @ g_col, e.T @ g_row])
        return g_e[:d], g_e[d], g_grid, g_b + g_cell[d]

    return ad.node(out_data, (embed_w, embed_b, grid_w, grid_b), backward)


def extract_pyramid(x: np.ndarray, params: MinerParams, periods: np.ndarray,
                    spectrum: np.ndarray) -> CausalPyramid:
    """Fold embedded windows into per-period grids and project to slots.

    `x` holds the (B, T, D) input windows, `periods` each window's k
    picked periods, shape (B, k), and `spectrum` the input's rfft at the
    picked bins, (B, k, D), as `top_k_periods` returns them. One
    `period_pool` node embeds, folds, transforms and pools every pick,
    and the pooled grids are projected onto N factor slots; factors are
    (B, k, N, D_h).
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"extract_pyramid expects (B, T, D) windows, got shape {x.shape}")
    b, t, d = x.shape
    if d != params.embed_w.shape[0]:
        raise ValueError(f"extract_pyramid: input dim {d} does not match weights "
                         f"{params.embed_w.shape}")
    periods = np.asarray(periods)
    if periods.ndim != 2 or periods.shape[0] != b:
        raise ValueError(f"extract_pyramid expects ({b}, k) periods, "
                         f"got shape {periods.shape}")
    k = periods.shape[1]
    if spectrum.shape != (b, k, d):
        raise ValueError(f"extract_pyramid expects a ({b}, {k}, {d}) spectrum, "
                         f"got shape {spectrum.shape}")
    pooled = period_pool(x, params.embed_w, params.embed_b, params.grid_w,
                         params.grid_b, periods)
    slots = ad.affine(pooled, params.slot_w, params.slot_b)
    factors = ad.reshape(slots, (b, k, params.n_factors, params.hidden))
    return CausalPyramid(factors, bin_amplitudes(spectrum, params.embed_w, t))
