"""Conditional coupling flow with checkerboard-in-time partitioning.

Each layer keeps the timesteps of one value of the periodic mask unchanged
and applies an affine map z = (x - t) * exp(-s) to the others, its moved
rows. The scale and translation networks run on the moved rows only: each
sees the kept values inside a temporal context window around its timestep,
concatenated with the per-window conditioning vector, so the Jacobian
stays block-triangular and the log-determinant is exactly -sum(s).
Consecutive layers move the two mask values in turn, covering every entry.
`forward` and `inverse` compute each layer's (s, t) with the same helper.
A pass that records builds each layer's context for the whole batch as one
`ad.time_context` node; a pass that records nothing, and `inverse`, build
it for at most `_CONTEXT_BLOCK` windows at a time in one reused buffer, so
no batch-sized context is held. Scores are bitwise the same either way.

Zero-initialised output layers make the whole flow start as the identity.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericOverflow, Tensor
from .masks import PeriodicMask, build_mask

LOG_2PI = float(np.log(2.0 * np.pi))
SCALE_CLAMP = 5.0
# windows per block of a coupling layer's context in a pass that records
# nothing; a 256-window float32 chunk's whole context is 6.3 MB at D=3 and
# 65 MB at D=38. 16, 32 and 64 take the same CPU time, and 16 saves little
# more memory than 32. Freeing the whole context had lifted glibc's dynamic
# trim threshold, so training's backward did not fault its memory back in
# at every step; 64 would lift it again but makes float32 scoring fault
# more than 32 does
_CONTEXT_BLOCK = 32


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


@functools.lru_cache(maxsize=16)
def _mask_rows(period: int, t: int) -> tuple[tuple, tuple]:
    """For the steps where the `build_mask` pattern is 0, then for the
    others: the moved time indices and their `ad.row_runs`. Cached per
    mask, so the index arrays are read-only. A one-step window is cut from
    a two-step mask so it can still be scored (the flow is the identity
    there anyway when nets are zero)."""
    pattern = build_mask(period, max(t, 2)).time_pattern[:t]
    out = []
    for value in (0.0, 1.0):
        rows = np.flatnonzero(pattern == value)
        rows.flags.writeable = False
        out.append((rows, ad.row_runs(rows)))
    return tuple(out)


def _moved_rows(model: FlowModel, t: int) -> list[tuple[np.ndarray, tuple]]:
    """Per layer, the rows and row runs of `_mask_rows`: even layers move
    the steps where the mask pattern is 0, odd layers the others."""
    pair = _mask_rows(model.mask.period, t)
    return [pair[li % 2] for li in range(len(model.layers))]


def _conditioning(h_c, b: int, model: FlowModel) -> Tensor:
    hc = h_c if isinstance(h_c, Tensor) else Tensor(h_c)
    if hc.shape != (b, model.hidden):
        raise FlowError(f"conditioning shape {hc.shape} != ({b}, {model.hidden})")
    return hc


def _run_net(net: Mlp, x: np.ndarray, inputs: list | None) -> np.ndarray:
    """`net` on an array, by the numpy operations of `Mlp.__call__`; each
    layer's input is appended to `inputs` when it is a list."""
    last = len(net.layers) - 1
    for i, (w, b) in enumerate(net.layers):
        if inputs is not None:
            inputs.append(x)
        x = ad.dense(x, w.data, b.data)
        if i < last:
            np.tanh(x, out=x)
    return x


def _net_grads(net: Mlp, inputs: list, g: np.ndarray) -> tuple[np.ndarray, list]:
    """The gradients of `_run_net` at its input and at each (w, b), given
    the output's gradient `g` and the layer inputs it kept."""
    grads = []
    for i in range(len(net.layers) - 1, -1, -1):
        x = inputs[i]
        grads += [g.sum(axis=0), x.T @ g]
        g = g @ net.layers[i][0].data.T
        if i > 0:  # x is the previous layer's tanh output
            g = g * (1.0 - x * x)
    return g, grads[::-1]


def _scale_shift(layer: CouplingLayer, ctx: np.ndarray, saved: list | None = None):
    """(s, t) of one coupling layer at its moved rows, each (B, M, D), from
    the (B, M, W) `time_context` of those rows; s is soft-clamped to
    (-SCALE_CLAMP, SCALE_CLAMP). With a `saved` list, appends to it what
    the backward of `_couple` needs: the layer inputs of the s net and of
    the t net, and the clamp's tanh."""
    b, m, width = ctx.shape
    flat = ctx.reshape(b * m, width)
    s_in, t_in = ([], []) if saved is not None else (None, None)
    s_raw = _run_net(layer.s_net, flat, s_in)
    th = np.tanh(s_raw.reshape(b, m, s_raw.shape[1])
                 * np.asarray(1.0 / SCALE_CLAMP, dtype=ctx.dtype))
    s = th * np.asarray(SCALE_CLAMP, dtype=ctx.dtype)
    t_out = _run_net(layer.t_net, flat, t_in).reshape(s.shape)
    if saved is not None:
        saved += [s_in, t_in, th]
    return s, t_out


def _context_buffer(model: FlowModel, b: int, moved: list, dtype) -> np.ndarray:
    """A flat buffer that holds the context of one block of at most
    _CONTEXT_BLOCK of b windows, for any layer of `moved` (`_moved_rows`)."""
    width = (2 * model.context_radius + 1) * model.d_in + model.hidden
    m = max(rows.size for rows, _ in moved)
    return np.empty(min(b, _CONTEXT_BLOCK) * m * width, dtype=dtype)


def _blocked_scale_shift(layer: CouplingLayer, x: np.ndarray, cond: np.ndarray,
                         radius: int, rows: np.ndarray, runs: tuple, buf: np.ndarray):
    """(s, t) of `_scale_shift` on the layer's whole `time_context` of the
    (B, T, D) array x, without that context: the context of at most
    _CONTEXT_BLOCK windows at a time is built in `buf` and run through the
    nets, and each block's (s, t) is written into the (B, M, D) outputs.
    Every output row of the nets' products is bitwise the same at any row
    count (`ad.dense`), so the outputs are those of one whole block."""
    b, _, d = x.shape
    m = rows.size
    width = (2 * radius + 1) * d + cond.shape[1]
    s = np.empty((b, m, d), dtype=x.dtype)
    t_out = np.empty((b, m, d), dtype=x.dtype)
    for lo in range(0, b, _CONTEXT_BLOCK):
        hi = min(lo + _CONTEXT_BLOCK, b)
        ctx = buf[:(hi - lo) * m * width].reshape(hi - lo, m, width)
        ad.fill_context(ctx, x[lo:hi], radius, rows, cond[lo:hi], runs)
        s[lo:hi], t_out[lo:hi] = _scale_shift(layer, ctx)
    return s, t_out


def _layer_params(layer: CouplingLayer) -> list[Tensor]:
    return [p for net in (layer.s_net, layer.t_net) for pair in net.layers for p in pair]


def _couple(layer: CouplingLayer, h: Tensor, ctx: Tensor | None, logdet: Tensor,
            rows: np.ndarray, s_t: tuple | None = None) -> tuple[Tensor, Tensor, np.ndarray]:
    """One coupling layer as one autodiff node: the moved `rows` of h
    become (h - t) * exp(-s), with (s, t) from the layer's `time_context`
    `ctx`, and s is summed out of `logdet`. Returns the new h and logdet
    tensors and s as an array. A pass that records nothing may pass no
    `ctx` and the layer's (s, t) arrays as `s_t` instead
    (`_blocked_scale_shift`).

    Forward and backward run, array for array, the numpy operations that
    the generic ops would run for the same layer (`Mlp.__call__`, the
    clamp, then take, sub, neg, exp, mul, concat, take, tsum and sub), so
    values and gradients are bitwise theirs. Under no_grad nothing is kept
    for the backward."""
    params = saved = None
    if s_t is None:
        params = _layer_params(layer)
        saved = [] if ad.records((h, ctx, logdet, *params)) else None
        s_t = _scale_shift(layer, ctx.data, saved)
    s, t_out = s_t
    diff = h.data[:, rows] - t_out
    e = np.exp(-s)
    b, t, d = h.shape
    # time-major, as a fancy index along axis 1 lays out its result, so
    # that sums over z round as they do through the generic ops
    h_out = np.empty((t, b, d), dtype=h.data.dtype).transpose(1, 0, 2)
    h_out[...] = h.data
    h_out[:, rows] = diff * e
    logdet_out = logdet.data - np.sum(s, axis=(1, 2))
    if saved is None:
        return Tensor(h_out), Tensor(logdet_out), s

    def backward(g_h, g_logdet):
        s_in, t_in, th = saved
        m = rows.size
        g_moved = g_h[:, rows]
        g_diff = g_moved * e
        g_hin = g_h.copy()
        g_hin[:, rows] = g_diff
        g_s = -((g_moved * diff) * e) + np.broadcast_to((-g_logdet).reshape(b, 1, 1), s.shape)
        g_raw = (g_s * np.asarray(SCALE_CLAMP, dtype=s.dtype)) * (1.0 - th * th)
        g_raw = (g_raw * np.asarray(1.0 / SCALE_CLAMP, dtype=s.dtype)).reshape(b * m, d)
        g_ctx, s_grads = _net_grads(layer.s_net, s_in, g_raw)
        g_ctx_t, t_grads = _net_grads(layer.t_net, t_in, (-g_diff).reshape(b * m, d))
        g_ctx += g_ctx_t  # a product's fresh output: no input is written
        return g_hin, g_ctx.reshape(ctx.shape), g_logdet, *s_grads, *t_grads

    h_new, logdet_new = ad.multi_node((h_out, logdet_out), (h, ctx, logdet, *params), backward)
    return h_new, logdet_new, s


def forward(x, h_c, model: FlowModel, want_timestep_logdet: bool = False):
    """Map windows to latent space.

    x: (B, T, D) windows, B >= 1; h_c: (B, D_h) conditioning vectors.
    Returns (z, logdet) Tensors in the dtype of x, plus a (B, T) float64
    per-timestep log-det array when requested (used for score
    decomposition, not differentiated). When the pass records, each
    coupling layer is one `time_context` node and one `_couple` node; when
    it records nothing, the layers share one context buffer of
    `_CONTEXT_BLOCK` windows (`_blocked_scale_shift`), the affine update,
    log-det and finiteness check still run once per layer, and no tensor
    is made per block.
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

    logdet = Tensor(np.zeros(b, dtype=h.data.dtype))
    logdet_t = np.zeros((b, t)) if want_timestep_logdet else None
    moved = _moved_rows(model, t)
    radius = model.context_radius
    buf = None  # a pass that records builds each layer's context in one block
    if not ad.records((h, hc, *(p for layer in model.layers for p in _layer_params(layer)))):
        buf = _context_buffer(model, b, moved, h.data.dtype)
    for li, (layer, (rows, runs)) in enumerate(zip(model.layers, moved)):
        if buf is None:
            # the context goes with `_couple`'s frame; held here, it would
            # still be alive when the next layer builds its own
            h, logdet, s = _couple(
                layer, h, ad.time_context(h, radius, rows, hc, runs), logdet, rows)
        else:
            h, logdet, s = _couple(layer, h, None, logdet, rows, _blocked_scale_shift(
                layer, h.data, hc.data, radius, rows, runs, buf))
        if not np.all(np.isfinite(h.data)):
            raise NumericOverflow(f"non-finite values after coupling layer {li}")
        if logdet_t is not None:
            logdet_t[:, rows] -= s.sum(axis=2, dtype=np.float64)
    if want_timestep_logdet:
        return h, logdet, logdet_t
    return h, logdet


def inverse(z, h_c, model: FlowModel) -> np.ndarray:
    """Exact inverse of `forward` for (B, T, D) latents, as a numpy array
    (no gradients)."""
    h = np.array(z.data if isinstance(z, Tensor) else z, dtype=np.float64)
    if h.ndim != 3:
        raise FlowError(f"inverse expects (B, T, D) latents, got shape {h.shape}")
    if h.shape[2] != model.d_in:
        raise FlowError(f"inverse: latent dim {h.shape[2]} != model dim {model.d_in}")
    hc = _conditioning(h_c, h.shape[0], model).data
    moved = _moved_rows(model, h.shape[1])
    buf = _context_buffer(model, h.shape[0], moved, h.dtype)
    for layer, (rows, runs) in zip(reversed(model.layers), reversed(moved)):
        s, t_out = _blocked_scale_shift(layer, h, hc, model.context_radius, rows, runs, buf)
        h[:, rows] = h[:, rows] * np.exp(s) + t_out
        if not np.all(np.isfinite(h)):
            raise NumericOverflow("non-finite values while inverting")
    return h


def log_prob(x, h_c, model: FlowModel) -> Tensor:
    """Exact conditional log-density per window: standard-normal base plus
    the accumulated log-determinant. Returns a (B,) tensor."""
    z, logdet = forward(x, h_c, model)
    b, t, d = z.shape
    quad = ad.tsum(z * z, axis=(1, 2)) * 0.5
    const = Tensor(np.full(b, 0.5 * t * d * LOG_2PI, dtype=z.data.dtype))
    return logdet - quad - const


def nll_loss(x, h_c, model: FlowModel) -> Tensor:
    """Mean negative log-likelihood over the batch."""
    return ad.tmean(ad.neg(log_prob(x, h_c, model)))


def anomaly_score(x, h_c, model: FlowModel) -> tuple[np.ndarray, np.ndarray]:
    """Negative log-likelihood per window plus its exact additive
    decomposition over timesteps; higher means more anomalous. Both are
    float64, summed from z and s in whatever dtype the flow ran."""
    z, logdet, logdet_t = forward(x, h_c, model, want_timestep_logdet=True)
    d = z.shape[2]
    z_np = z.data.astype(np.float64, copy=False)
    tau_t = 0.5 * np.sum(z_np * z_np, axis=2) + 0.5 * d * LOG_2PI - logdet_t
    tau = tau_t.sum(axis=1)
    return tau, tau_t
