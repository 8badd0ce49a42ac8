"""Conditional coupling flow with checkerboard-in-time partitioning.

Each layer keeps the timesteps of one value of the periodic mask unchanged
and applies an affine map z = (x - t) * exp(-s) to the others, its moved
rows. The scale and translation networks run on the moved rows only: each
sees the kept values inside a temporal context window around its timestep,
concatenated with the per-window conditioning vector, so the Jacobian
stays block-triangular and the log-determinant is exactly -sum(s).
Consecutive layers move the two mask values in turn, covering every entry.
`forward` and `inverse` compute each layer's (s, t) with the same helper;
`inverse` records no graph.

Zero-initialised output layers make the whole flow start as the identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericOverflow, Tensor
from .masks import PeriodicMask, build_mask

LOG_2PI = float(np.log(2.0 * np.pi))
SCALE_CLAMP = 5.0


class FlowError(RuntimeError):
    pass


@dataclass
class Mlp:
    """Dense net: tanh hidden layers, linear output."""

    layers: list[tuple[Tensor, Tensor]]

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        for i, (w, b) in enumerate(self.layers):
            h = ad.affine(h, w, b)
            if i < len(self.layers) - 1:
                h = ad.tanh(h)
        return h


@dataclass
class CouplingLayer:
    s_net: Mlp
    t_net: Mlp


@dataclass
class FlowModel:
    """L coupling layers, a conditioner, and the mask period they share."""

    layers: list[CouplingLayer]
    cond_w: Tensor
    cond_b: Tensor
    mask: PeriodicMask
    d_in: int
    hidden: int
    context_radius: int

    def named(self, prefix: str = "flow") -> dict[str, Tensor]:
        out = {f"{prefix}.cond_w": self.cond_w, f"{prefix}.cond_b": self.cond_b}
        for li, layer in enumerate(self.layers):
            for net_name, net in (("s", layer.s_net), ("t", layer.t_net)):
                for wi, (w, b) in enumerate(net.layers):
                    out[f"{prefix}.layer{li}.{net_name}{wi}.w"] = w
                    out[f"{prefix}.layer{li}.{net_name}{wi}.b"] = b
        return out


def _make_mlp(f_in: int, hidden: int, f_out: int, num_blocks: int,
              rng: np.random.Generator) -> Mlp:
    layers: list[tuple[Tensor, Tensor]] = []
    prev = f_in
    for _ in range(num_blocks):
        w = Tensor(rng.normal(0.0, 1.0 / np.sqrt(prev), size=(prev, hidden)),
                   requires_grad=True)
        layers.append((w, Tensor(np.zeros(hidden), requires_grad=True)))
        prev = hidden
    # zero-initialised head: the flow starts as the identity map
    layers.append((Tensor(np.zeros((prev, f_out)), requires_grad=True),
                   Tensor(np.zeros(f_out), requires_grad=True)))
    return Mlp(layers)


def init_flow(d_in: int, hidden: int, n_factors: int, period: int,
              window_length: int, num_layers: int, num_blocks: int,
              rng: np.random.Generator,
              context_radius: int | None = None) -> FlowModel:
    mask = build_mask(period, window_length)
    radius = mask.period if context_radius is None else int(context_radius)
    f_in = (2 * radius + 1) * d_in + hidden
    layers = [CouplingLayer(_make_mlp(f_in, hidden, d_in, num_blocks, rng),
                            _make_mlp(f_in, hidden, d_in, num_blocks, rng))
              for _ in range(num_layers)]
    scale = 1.0 / np.sqrt(n_factors * hidden)
    cond_w = Tensor(rng.normal(0.0, scale, size=(n_factors * hidden, hidden)),
                    requires_grad=True)
    cond_b = Tensor(np.zeros(hidden), requires_grad=True)
    return FlowModel(layers, cond_w, cond_b, mask, d_in, hidden, radius)


def condition(c_ind, model: FlowModel) -> Tensor:
    """Flatten the conditioning representation and map it to one hidden
    vector per window: (B, N, D_h) -> (B, D_h)."""
    c = c_ind if isinstance(c_ind, Tensor) else Tensor(c_ind)
    if c.ndim != 3:
        raise FlowError(f"condition expects (B, N, D_h) factors, got shape {c.shape}")
    b, n, dh = c.shape
    if n * dh != model.cond_w.shape[0]:
        raise FlowError(f"condition: got {n}x{dh} factors, conditioner expects "
                        f"{model.cond_w.shape[0]} inputs")
    return ad.affine(ad.reshape(c, (b, n * dh)), model.cond_w, model.cond_b)


def _moved_rows(model: FlowModel, t: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, the time indices it moves and a merge index over
    concat([h, moved], axis=1) that puts them back in place. Even layers
    move the steps where the `build_mask` pattern is 0, odd layers the
    others. A one-step window is cut from a two-step mask so it can still
    be scored (the flow is the identity there anyway when nets are zero)."""
    pattern = build_mask(model.mask.period, max(t, 2)).time_pattern[:t]
    pair = [(np.flatnonzero(moved), np.where(moved, t - 1 + np.cumsum(moved), np.arange(t)))
            for moved in (pattern == 0.0, pattern == 1.0)]
    return [pair[li % 2] for li in range(len(model.layers))]


def _conditioning(h_c, b: int, model: FlowModel) -> Tensor:
    hc = h_c if isinstance(h_c, Tensor) else Tensor(h_c)
    if hc.shape != (b, model.hidden):
        raise FlowError(f"conditioning shape {hc.shape} != ({b}, {model.hidden})")
    return hc


def _scale_shift(layer: CouplingLayer, h: Tensor, rows: np.ndarray, hc: Tensor,
                 model: FlowModel) -> tuple[Tensor, Tensor]:
    """(s, t) of one coupling layer at its moved rows, each (B, M, D), from
    the kept steps of h (B, T, D) and the conditioning (B, D_h); s is
    soft-clamped to (-SCALE_CLAMP, SCALE_CLAMP)."""
    b, _, d = h.shape
    ctx = ad.time_context(h, model.context_radius, rows, hc)
    inp = ad.reshape(ctx, (-1, ctx.shape[2]))
    s_raw = ad.reshape(layer.s_net(inp), (b, rows.size, d))
    s = ad.tanh(s_raw * (1.0 / SCALE_CLAMP)) * SCALE_CLAMP
    return s, ad.reshape(layer.t_net(inp), (b, rows.size, d))


def forward(x, h_c, model: FlowModel, want_timestep_logdet: bool = False):
    """Map windows to latent space.

    x: (B, T, D) windows, B >= 1; h_c: (B, D_h) conditioning vectors.
    Returns (z, logdet) Tensors, plus a (B, T) per-timestep log-det array
    when requested (used for score decomposition, not differentiated).
    """
    h = x if isinstance(x, Tensor) else Tensor(x)
    if h.ndim != 3:
        raise FlowError(f"forward expects (B, T, D) windows, got shape {h.shape}")
    b, t, d = h.shape
    if b == 0:
        raise FlowError("empty batch")
    if d != model.d_in:
        raise FlowError(f"forward: input dim {d} != model dim {model.d_in}")
    hc = _conditioning(h_c, b, model)

    logdet = Tensor(np.zeros(b))
    logdet_t = np.zeros((b, t)) if want_timestep_logdet else None
    for li, (layer, (rows, merge)) in enumerate(zip(model.layers, _moved_rows(model, t))):
        s, t_out = _scale_shift(layer, h, rows, hc, model)
        moved = (ad.take(h, rows, axis=1) - t_out) * ad.exp(ad.neg(s))
        h = ad.take(ad.concat([h, moved], axis=1), merge, axis=1)
        if not np.all(np.isfinite(h.data)):
            raise NumericOverflow(f"non-finite values after coupling layer {li}")
        logdet = logdet - ad.tsum(s, axis=(1, 2))
        if logdet_t is not None:
            logdet_t[:, rows] -= s.data.sum(axis=2)
    if want_timestep_logdet:
        return h, logdet, logdet_t
    return h, logdet


def inverse(z, h_c, model: FlowModel) -> np.ndarray:
    """Exact inverse of `forward` for (B, T, D) latents, as a numpy array
    (no gradients)."""
    h = np.array(z.data if isinstance(z, Tensor) else z, dtype=np.float64)
    if h.ndim != 3:
        raise FlowError(f"inverse expects (B, T, D) latents, got shape {h.shape}")
    with ad.no_grad():
        hc = _conditioning(h_c, h.shape[0], model)
        for layer, (rows, _) in zip(reversed(model.layers),
                                    reversed(_moved_rows(model, h.shape[1]))):
            s, t_out = _scale_shift(layer, Tensor(h), rows, hc, model)
            h[:, rows] = h[:, rows] * np.exp(s.data) + t_out.data
            if not np.all(np.isfinite(h)):
                raise NumericOverflow("non-finite values while inverting")
    return h


def log_prob(x, h_c, model: FlowModel) -> Tensor:
    """Exact conditional log-density per window: standard-normal base plus
    the accumulated log-determinant. Returns a (B,) tensor."""
    z, logdet = forward(x, h_c, model)
    b, t, d = z.shape
    quad = ad.tsum(z * z, axis=(1, 2)) * 0.5
    const = Tensor(np.full(b, 0.5 * t * d * LOG_2PI))
    return logdet - quad - const


def nll_loss(x, h_c, model: FlowModel) -> Tensor:
    """Mean negative log-likelihood over the batch."""
    return ad.tmean(ad.neg(log_prob(x, h_c, model)))


def anomaly_score(x, h_c, model: FlowModel) -> tuple[np.ndarray, np.ndarray]:
    """Negative log-likelihood per window plus its exact additive
    decomposition over timesteps; higher means more anomalous."""
    z, logdet, logdet_t = forward(x, h_c, model, want_timestep_logdet=True)
    d = z.shape[2]
    z_np = z.data
    tau_t = 0.5 * np.sum(z_np * z_np, axis=2) + 0.5 * d * LOG_2PI - logdet_t
    tau = tau_t.sum(axis=1)
    return tau, tau_t
