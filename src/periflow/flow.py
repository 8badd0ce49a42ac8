"""Conditional coupling flow with checkerboard-in-time partitioning.

Each layer keeps the timesteps selected by the periodic mask unchanged and
applies an affine map z = (x - t) * exp(-s) to the rest. The scale and
translation networks see the masked values inside a temporal context
window around each timestep, concatenated with the per-window conditioning
vector, so the Jacobian stays block-triangular and the log-determinant is
exactly -sum(s) over transformed entries. Masks alternate with their
complement across layers, covering every entry. `forward` and `inverse`
compute each layer's (s, t) with the same helper; `inverse` records no
graph.

Zero-initialised output layers make the whole flow start as the identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericOverflow, Tensor
from .masks import PeriodicMask, build_mask, complement

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
    n_factors: int
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
    return FlowModel(layers, cond_w, cond_b, mask, d_in, hidden, n_factors,
                     radius)


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


def _layer_masks(model: FlowModel, t: int) -> list[np.ndarray]:
    """(1, T, 1) keep-masks per layer, alternating with their complement;
    callers broadcast them over batch and channels. A one-step window is
    cut from a two-step mask so it can still be scored (the flow is the
    identity there anyway when nets are zero)."""
    even = build_mask(model.mask.period, max(t, 2))
    pair = [m.time_pattern[None, :t, None] for m in (even, complement(even))]
    return [pair[li % 2] for li in range(len(model.layers))]


def _cond_per_step(h_c, b: int, t: int, model: FlowModel) -> Tensor:
    """Conditioning vectors (B, D_h), repeated over the T timesteps once for
    all layers."""
    hc = h_c if isinstance(h_c, Tensor) else Tensor(h_c)
    if hc.shape != (b, model.hidden):
        raise FlowError(f"conditioning shape {hc.shape} != ({b}, {model.hidden})")
    return ad.broadcast_to(ad.reshape(hc, (b, 1, model.hidden)),
                           (b, t, model.hidden))


def _scale_shift(layer: CouplingLayer, kept: Tensor, hc_wide: Tensor,
                 model: FlowModel) -> tuple[Tensor, Tensor]:
    """(s, t) of one coupling layer from the kept entries (B, T, D) and the
    per-step conditioning (B, T, D_h); s is soft-clamped to
    (-SCALE_CLAMP, SCALE_CLAMP)."""
    b, t, d = kept.shape
    inp = ad.reshape(ad.time_context(kept, model.context_radius, hc_wide), (b * t, -1))
    s_raw = ad.reshape(layer.s_net(inp), (b, t, d))
    s = ad.tanh(s_raw * (1.0 / SCALE_CLAMP)) * SCALE_CLAMP
    return s, ad.reshape(layer.t_net(inp), (b, t, d))


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
    hc_wide = _cond_per_step(h_c, b, t, model)

    logdet = Tensor(np.zeros(b))
    logdet_t = np.zeros((b, t)) if want_timestep_logdet else None
    for li, (layer, mask_np) in enumerate(zip(model.layers, _layer_masks(model, t))):
        keep = Tensor(np.broadcast_to(mask_np, (b, t, d)).copy())
        move = Tensor(np.broadcast_to(1.0 - mask_np, (b, t, d)).copy())
        s, t_out = _scale_shift(layer, h * keep, hc_wide, model)
        h = h * keep + ((h - t_out) * ad.exp(ad.neg(s))) * move
        if not np.all(np.isfinite(h.data)):
            raise NumericOverflow(f"non-finite values after coupling layer {li}")
        s_used = s * move
        logdet = logdet - ad.tsum(s_used, axis=(1, 2))
        if logdet_t is not None:
            logdet_t -= s_used.data.sum(axis=2)
    if want_timestep_logdet:
        return h, logdet, logdet_t
    return h, logdet


def inverse(z, h_c, model: FlowModel) -> np.ndarray:
    """Exact inverse of `forward` for (B, T, D) latents, as a numpy array
    (no gradients)."""
    h = np.asarray(z.data if isinstance(z, Tensor) else z, dtype=np.float64)
    if h.ndim != 3:
        raise FlowError(f"inverse expects (B, T, D) latents, got shape {h.shape}")
    b, t, d = h.shape
    with ad.no_grad():
        hc_wide = _cond_per_step(h_c, b, t, model)
        for layer, mask_np in zip(reversed(model.layers),
                                  reversed(_layer_masks(model, t))):
            keep = np.broadcast_to(mask_np, (b, t, d))
            s, t_out = _scale_shift(layer, Tensor(h * keep), hc_wide, model)
            h = h * keep + (h * np.exp(s.data) + t_out.data) * (1.0 - keep)
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
