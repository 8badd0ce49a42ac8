"""Conditional coupling flow with checkerboard-in-time partitioning.

The mask is a time pattern: step t reads (t // p) mod 2 for the mask
period p (`mask_law`), and every channel shares it. Each layer keeps the
timesteps of one mask value unchanged and applies an affine map
z = (x - t) * exp(-s) to the others, its moved rows. The scale and
translation networks run on the moved rows only: each sees the kept
values inside a temporal context window around its timestep,
concatenated with the per-window conditioning vector, so the Jacobian
stays block-triangular and the log-determinant is exactly -sum(s).
Consecutive layers move the two mask values in turn, covering every entry.
`forward` and `inverse` compute each layer's (s, t) with the same helper,
which builds the context for at most `_CONTEXT_BLOCK` windows at a time in
one buffer that a pass's layers share, so no batch-sized context is made.
They and `anomaly_score` take and return numpy arrays; `condition` and
`log_prob` take the `Tensor` they differentiate. `log_prob` is the flow's
one autodiff node, over the conditioning and every net weight; its tape
keeps no context either: the backward builds each block's again in the
same buffer. The windows are a constant, so the lowest layer's backward
forms no gradient at them, only the context gradient's conditioning
columns.

Zero-initialised output layers make the whole flow start as the identity.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericOverflow, Tensor

LOG_2PI = float(np.log(2.0 * np.pi))
SCALE_CLAMP = 5.0
# windows per block of a coupling layer's context, forward and backward; a
# 256-window float32 chunk's whole context is 6.3 MB at D=3 and 65 MB at
# D=38. 16, 32 and 64 take the same CPU time, and 16 saves little more
# memory than 32. Freeing the whole context had lifted glibc's dynamic
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
    mask_period: int
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


def mask_law(period: int, t: int) -> tuple[int, np.ndarray]:
    """The checkerboard in time of a T-step window: the mask period p, the
    given period clamped to ceil(T/2) when it is at least T so that both
    values occur, and the (T,) pattern whose entry i is (i // p) mod 2."""
    p = period if period < t else -(-t // 2)
    return p, np.arange(t) // p % 2


def init_flow(d_in: int, hidden: int, n_factors: int, mask_period: int,
              num_layers: int, num_blocks: int, rng: np.random.Generator,
              context_radius: int) -> FlowModel:
    f_in = (2 * context_radius + 1) * d_in + hidden
    layers = [CouplingLayer(_make_mlp(f_in, hidden, d_in, num_blocks, rng),
                            _make_mlp(f_in, hidden, d_in, num_blocks, rng))
              for _ in range(num_layers)]
    scale = 1.0 / np.sqrt(n_factors * hidden)
    cond_w = Tensor(rng.normal(0.0, scale, size=(n_factors * hidden, hidden)),
                    requires_grad=True)
    cond_b = Tensor(np.zeros(hidden), requires_grad=True)
    return FlowModel(layers, cond_w, cond_b, mask_period, d_in, hidden, context_radius)


def condition(c: Tensor, model: FlowModel) -> Tensor:
    """Flatten the conditioning representation and map it to one hidden
    vector per window: (B, N, D_h) -> (B, D_h)."""
    if c.ndim != 3:
        raise FlowError(f"condition expects (B, N, D_h) factors, got shape {c.shape}")
    b, n, dh = c.shape
    if n * dh != model.cond_w.shape[0]:
        raise FlowError(f"condition: got {n}x{dh} factors, conditioner expects "
                        f"{model.cond_w.shape[0]} inputs")
    return ad.affine(ad.reshape(c, (b, n * dh)), model.cond_w, model.cond_b)


@functools.lru_cache(maxsize=16)
def _mask_rows(period: int, t: int) -> tuple[tuple, tuple]:
    """For the steps where the `mask_law` pattern is 0, then for the
    others: the moved time indices and their `ad.row_runs`. Cached per
    (period, T), so the index arrays are read-only. A one-step window
    moves its step in even layers only."""
    pattern = mask_law(period, t)[1]
    out = []
    for value in (0, 1):
        rows = np.flatnonzero(pattern == value)
        rows.flags.writeable = False
        out.append((rows, ad.row_runs(rows)))
    return tuple(out)


def _moved_rows(model: FlowModel, t: int) -> list[tuple[np.ndarray, tuple]]:
    """Per layer, the rows and row runs of `_mask_rows`: even layers move
    the steps where the mask pattern is 0, odd layers the others."""
    pair = _mask_rows(model.mask_period, t)
    return [pair[li % 2] for li in range(len(model.layers))]


def _conditioning(hc: np.ndarray, b: int, model: FlowModel) -> np.ndarray:
    if hc.shape != (b, model.hidden):
        raise FlowError(f"conditioning shape {hc.shape} != ({b}, {model.hidden})")
    return hc


def _run_net(net: Mlp, x: np.ndarray, inputs: list | None) -> np.ndarray:
    """`net` on an array, by the numpy operations of `Mlp.__call__`; each
    later layer's input is appended to `inputs` when it is a list."""
    last = len(net.layers) - 1
    for i, (w, b) in enumerate(net.layers):
        if inputs is not None and i > 0:
            inputs.append(x)
        x = ad.dense(x, w.data, b.data)
        if i < last:
            np.tanh(x, out=x)
    return x


def _net_grads(net: Mlp, inputs: list, g: np.ndarray, cols: slice) -> tuple[np.ndarray, list]:
    """The gradients of `_run_net` at the `cols` columns of its input and
    at each (w, b), given the output's gradient `g` and its layers'
    inputs."""
    grads = []
    for i in range(len(net.layers) - 1, -1, -1):
        x = inputs[i]
        grads += [g.sum(axis=0), x.T @ g]
        w = net.layers[i][0].data
        g = g @ (w if i > 0 else w[cols]).T
        if i > 0:  # x is the previous layer's tanh output
            g = g * (1.0 - x * x)
    return g, grads[::-1]


def _contexts(x: np.ndarray, cond: np.ndarray, radius: int, rows: np.ndarray,
              runs: tuple, buf: np.ndarray):
    """Per block of at most _CONTEXT_BLOCK windows of the (B, T, D) array
    x: the block's slice and its (n, M, W) `ad.time_context` at `rows`,
    built in `buf`, which each block overwrites."""
    m = rows.size
    width = (2 * radius + 1) * x.shape[2] + cond.shape[1]
    for lo in range(0, x.shape[0], _CONTEXT_BLOCK):
        at = slice(lo, min(lo + _CONTEXT_BLOCK, x.shape[0]))
        ctx = buf[:(at.stop - lo) * m * width].reshape(at.stop - lo, m, width)
        yield at, ad.fill_context(ctx, x[at], radius, rows, cond[at], runs)


def _scale_shift(layer: CouplingLayer, x: np.ndarray, cond: np.ndarray, radius: int,
                 rows: np.ndarray, runs: tuple, buf: np.ndarray, kept: list | None = None):
    """(s, t) of one coupling layer at the moved `rows` of the (B, T, D)
    array x, each (B, M, D), s soft-clamped to (-SCALE_CLAMP, SCALE_CLAMP),
    from the nets on one block of windows' context at a time (`_contexts`);
    their products are `ad.dense`'s fixed tiles, so each row is bitwise the
    same at any row count. With a `kept` list, appends per block what the
    backward of `_couple` needs: the s and t nets' later-layer inputs and
    the clamp's tanh."""
    b, _, d = x.shape
    s = np.empty((b, rows.size, d), dtype=x.dtype)
    t_out = np.empty_like(s)
    for at, ctx in _contexts(x, cond, radius, rows, runs, buf):
        n, m, width = ctx.shape
        flat = ctx.reshape(n * m, width)
        s_in, t_in = ([], []) if kept is not None else (None, None)
        s_raw = _run_net(layer.s_net, flat, s_in)
        th = np.tanh(s_raw.reshape(n, m, d) * np.asarray(1.0 / SCALE_CLAMP, dtype=x.dtype))
        s[at] = th * np.asarray(SCALE_CLAMP, dtype=x.dtype)
        t_out[at] = _run_net(layer.t_net, flat, t_in).reshape(n, m, d)
        if kept is not None:
            kept.append((s_in, t_in, th))
    return s, t_out


def _context_buffer(model: FlowModel, b: int, moved: list, dtype) -> np.ndarray:
    """A flat buffer that holds the context of one block of at most
    _CONTEXT_BLOCK of b windows, for any layer of `moved` (`_moved_rows`)."""
    width = (2 * model.context_radius + 1) * model.d_in + model.hidden
    m = max(rows.size for rows, _ in moved)
    return np.empty(min(b, _CONTEXT_BLOCK) * m * width, dtype=dtype)


def _couple(layer: CouplingLayer, h: np.ndarray, hc: np.ndarray, rows: np.ndarray,
            runs: tuple, radius: int, buf: np.ndarray,
            backwards: list | None) -> tuple[np.ndarray, np.ndarray]:
    """One coupling layer on the (B, T, D) array h: its moved `rows`
    become (h - t) * exp(-s), with (s, t) from `_scale_shift` on h and the
    (B, H) conditioning hc. Returns the new h and s, (B, M, D).

    With a `backwards` list, appends the layer's backward: from the
    gradients at the new h and at the log-det, it returns those at h, at
    hc and at the nets' weights, s net first; with `need_h` false it
    returns None at h and forms only the hc columns of the context's
    gradient, each product column as the whole product computes it. Forward
    and backward run, array for array, the numpy operations that the
    generic ops would run for the same layer (`ad.time_context`,
    `Mlp.__call__`, the clamp, then take, sub, neg, exp, mul, concat, take,
    tsum and sub), so in one block of windows values and gradients are
    bitwise theirs; over several, the weight gradients are summed block by
    block. The backward builds each block's context again in `buf`."""
    kept = [] if backwards is not None else None
    s, t_out = _scale_shift(layer, h, hc, radius, rows, runs, buf, kept)
    diff = h[:, rows] - t_out
    e = np.exp(-s)
    b, t, d = h.shape
    # time-major, as a fancy index along axis 1 lays out its result, so
    # that sums over z round as they do through the generic ops
    h_out = np.empty((t, b, d), dtype=h.dtype).transpose(1, 0, 2)
    h_out[...] = h
    h_out[:, rows] = diff * e
    if backwards is None:
        return h_out, s

    def backward(g_h, g_logdet, need_h):
        g_moved = g_h[:, rows]
        g_diff = g_moved * e
        g_hin = None
        if need_h:
            g_hin = g_h.copy()
            g_hin[:, rows] = g_diff
        g_s = -((g_moved * diff) * e) + np.broadcast_to((-g_logdet).reshape(b, 1, 1), s.shape)
        g_hc = np.empty(hc.shape, dtype=g_h.dtype)
        cols = slice(None) if need_h else slice((2 * radius + 1) * d, None)
        block_grads = []
        for (at, ctx), (s_in, t_in, th) in zip(_contexts(h, hc, radius, rows, runs, buf), kept):
            n, m, width = ctx.shape
            flat = ctx.reshape(n * m, width)
            g_raw = (g_s[at] * np.asarray(SCALE_CLAMP, dtype=s.dtype)) * (1.0 - th * th)
            g_raw = (g_raw * np.asarray(1.0 / SCALE_CLAMP, dtype=s.dtype)).reshape(n * m, d)
            g_ctx, s_grads = _net_grads(layer.s_net, [flat, *s_in], g_raw, cols)
            g_ctx_t, t_grads = _net_grads(layer.t_net, [flat, *t_in],
                                          (-g_diff[at]).reshape(n * m, d), cols)
            g_ctx += g_ctx_t  # a product's fresh output: no input is written
            if need_h:
                g_x, g_hc[at] = ad.context_grads(g_ctx.reshape(ctx.shape), t, d, radius, rows)
                g_hin[at] += g_x
            else:
                g_hc[at] = g_ctx.reshape(n, m, -1).sum(axis=1)
            block_grads.append(s_grads + t_grads)
        # one block's gradients are returned as they are
        return g_hin, g_hc, [sum(gs[1:], gs[0]) for gs in zip(*block_grads)]

    backwards.append(backward)
    return h_out, s


def forward(x: np.ndarray, hc: np.ndarray, model: FlowModel, *,
            backwards: list | None = None):
    """Map the (B, T, D) windows x, B >= 1, under the (B, D_h)
    conditioning hc to latent space. Returns z (B, T, D) and logdet (B,)
    in the dtype of x (float64 unless x is float32), and the (B, T)
    float64 per-timestep log-det that `anomaly_score` decomposes the
    score with. Nothing is recorded; `log_prob` passes a `backwards`
    list, to which each layer appends its backward (`_couple`). The
    layers share one context buffer of `_CONTEXT_BLOCK` windows, and the
    affine update, log-dets and finiteness check run once per layer."""
    h = x if x.dtype in (np.float32, np.float64) else x.astype(np.float64)
    if h.ndim != 3:
        raise FlowError(f"forward expects (B, T, D) windows, got shape {h.shape}")
    b, t, d = h.shape
    if b == 0:
        raise FlowError("empty batch")
    if d != model.d_in:
        raise FlowError(f"forward: input dim {d} != model dim {model.d_in}")
    hc = _conditioning(hc, b, model)

    logdet = np.zeros(b, dtype=h.dtype)
    logdet_t = np.zeros((b, t))
    moved = _moved_rows(model, t)
    buf = _context_buffer(model, b, moved, h.dtype)
    for li, (layer, (rows, runs)) in enumerate(zip(model.layers, moved)):
        h, s = _couple(layer, h, hc, rows, runs, model.context_radius, buf, backwards)
        if not np.all(np.isfinite(h)):
            raise NumericOverflow(f"non-finite values after coupling layer {li}")
        logdet = logdet - np.sum(s, axis=(1, 2))
        logdet_t[:, rows] -= s.sum(axis=2, dtype=np.float64)
    return h, logdet, logdet_t


def inverse(z: np.ndarray, hc: np.ndarray, model: FlowModel) -> np.ndarray:
    """Exact inverse of `forward`: the windows of the (B, T, D) latents z
    under the conditioning hc, as a new float64 array."""
    h = np.array(z, dtype=np.float64)
    if h.ndim != 3:
        raise FlowError(f"inverse expects (B, T, D) latents, got shape {h.shape}")
    if h.shape[2] != model.d_in:
        raise FlowError(f"inverse: latent dim {h.shape[2]} != model dim {model.d_in}")
    hc = _conditioning(hc, h.shape[0], model)
    moved = _moved_rows(model, h.shape[1])
    buf = _context_buffer(model, h.shape[0], moved, h.dtype)
    for layer, (rows, runs) in zip(reversed(model.layers), reversed(moved)):
        s, t_out = _scale_shift(layer, h, hc, model.context_radius, rows, runs, buf)
        h[:, rows] = h[:, rows] * np.exp(s) + t_out
        if not np.all(np.isfinite(h)):
            raise NumericOverflow("non-finite values while inverting")
    return h


def log_prob(x: np.ndarray, hc: Tensor, model: FlowModel) -> Tensor:
    """Exact conditional log-density per window of the (B, T, D) array x
    under the (B, D_h) conditioning tensor hc: standard-normal base plus
    the accumulated log-determinant. Returns a (B,) tensor, one node whose
    parents are hc and every coupling-net weight; the windows are a
    constant. The backward runs the numpy operations of the generic chain
    logdet - tsum(z * z) * 0.5 - const, then the layers' backwards, last
    layer first, summing hc's gradient in a tape sweep's order, so every
    value and gradient is bitwise the chain's. The lowest layer's input is
    x, so its backward takes no gradient at h (`_couple`'s `need_h`)."""
    params = [p for layer in model.layers for net in (layer.s_net, layer.t_net)
              for pair in net.layers for p in pair]
    backwards = [] if ad.records((hc, *params)) else None
    z, logdet, _ = forward(x, hc.data, model, backwards=backwards)
    b, t, d = z.shape
    half = np.asarray(0.5, dtype=z.dtype)
    quad = np.sum(z * z, axis=(1, 2)) * half
    const = np.full(b, 0.5 * t * d * LOG_2PI, dtype=z.dtype)

    def backward(g):
        g_zz = np.broadcast_to(((-g) * half).reshape(b, 1, 1), z.shape)
        g_h, g_hc, grads = g_zz * z + g_zz * z, None, []
        for li in range(len(backwards) - 1, -1, -1):
            g_h, g_layer_hc, layer_grads = backwards[li](g_h, g, li > 0)
            g_hc = g_layer_hc if g_hc is None else g_hc + g_layer_hc
            grads[:0] = layer_grads
        return g_hc, *grads

    return ad.node((logdet - quad) - const, (hc, *params), backward)


def nll_loss(x: np.ndarray, hc: Tensor, model: FlowModel) -> Tensor:
    """Mean negative log-likelihood over the batch."""
    return ad.tmean(ad.neg(log_prob(x, hc, model)))


def anomaly_score(x: np.ndarray, hc: np.ndarray,
                  model: FlowModel) -> tuple[np.ndarray, np.ndarray]:
    """Negative log-likelihood per window of x under hc, as `forward`
    takes them, plus its exact additive decomposition over timesteps;
    higher means more anomalous. Both are float64, summed from z and s in
    whatever dtype the flow ran."""
    z, _, logdet_t = forward(x, hc, model)
    d = z.shape[2]
    z_np = z.astype(np.float64, copy=False)
    tau_t = 0.5 * np.sum(z_np * z_np, axis=2) + 0.5 * d * LOG_2PI - logdet_t
    tau = tau_t.sum(axis=1)
    return tau, tau_t
