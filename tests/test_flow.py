"""Coupling flow: invertibility, exact Jacobians, densities, conditioning."""
import tracemalloc

import numpy as np
import pytest

from conftest import numeric_gradient, relative_error
from periflow import autodiff as ad
from periflow import flow
from periflow.autodiff import Tensor
from periflow.flow import (_CONTEXT_BLOCK, SCALE_CLAMP, _moved_rows, anomaly_score,
                           condition, forward, init_flow, inverse, log_prob, mask_law,
                           nll_loss)

LOG_2PI = np.log(2 * np.pi)


def _model(d=2, hidden=6, n=2, period=3, t=8, layers=2, blocks=2, seed=0,
           radius=None, out_scale=0.0):
    rng = np.random.default_rng(seed)
    # as `build_models` does: the mask period clamped for T-step windows,
    # and by default a context radius of one mask period
    p = mask_law(period, t)[0]
    model = init_flow(d, hidden, n, p, layers, blocks, rng,
                      context_radius=p if radius is None else radius)
    if out_scale:
        for layer in model.layers:
            for net in (layer.s_net, layer.t_net):
                w, b = net.layers[-1]
                w.data = rng.normal(0.0, out_scale, size=w.shape)
                b.data = rng.normal(0.0, out_scale, size=b.shape)
    return model


def _hc(model, b=1, seed=1, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.normal(size=(b, model.hidden)))


def test_identity_at_initialisation():
    model = _model()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 8, 2))
    z, logdet, _ = forward(x, _hc(model, 3).data, model)
    np.testing.assert_array_equal(z, x)
    np.testing.assert_array_equal(logdet, np.zeros(3))


def test_single_entry_closed_form():
    # one layer, T=2, D=1: the mask keeps t=1 and transforms t=0 with
    # constant nets -> z0 = (x0 - t) * exp(-s), logdet = -s
    model = _model(d=1, hidden=4, n=1, period=1, t=2, layers=1, blocks=1, seed=3)
    s_eff, t_eff = 0.3, 0.7
    model.layers[0].s_net.layers[-1][1].data = np.array(
        [SCALE_CLAMP * np.arctanh(s_eff / SCALE_CLAMP)])
    model.layers[0].t_net.layers[-1][1].data = np.array([t_eff])
    # zero other net weights so outputs are exactly the biases
    for net in (model.layers[0].s_net, model.layers[0].t_net):
        for w, b in net.layers[:-1]:
            w.data[:] = 0.0
            b.data[:] = 0.0
        net.layers[-1][0].data[:] = 0.0
    x = np.array([[[1.4], [-0.8]]])
    z, logdet, _ = forward(x, np.zeros((1, 4)), model)
    np.testing.assert_allclose(z[0, 0, 0], (1.4 - t_eff) * np.exp(-s_eff),
                               rtol=1e-12)
    np.testing.assert_allclose(z[0, 1, 0], -0.8)
    np.testing.assert_allclose(logdet[0], -s_eff, rtol=1e-12)
    # algebraic inversion: x = z * exp(s) + t reproduces the input
    back = inverse(z, np.zeros((1, 4)), model)
    np.testing.assert_allclose(back, x, atol=1e-12)


def test_roundtrip_random_models():
    rng = np.random.default_rng(4)
    worst = 0.0
    for seed in range(10):
        model = _model(d=3, t=12, period=4, seed=seed, out_scale=0.5)
        x = rng.normal(size=(10, 12, 3))
        hc = _hc(model, 10, seed=seed)
        z, _, _ = forward(x, hc.data, model)
        back = inverse(z, hc.data, model)
        worst = max(worst, float(np.max(np.abs(back - x))))
    assert worst < 1e-6


def test_identity_flow_inverse_is_identity():
    model = _model()
    z = np.random.default_rng(5).normal(size=(1, 8, 2))
    np.testing.assert_array_equal(inverse(z, np.zeros((1, 6)), model), z)


def test_jacobian_matches_finite_differences():
    # D=3, T=4: exp(logdet) against the numerically differentiated
    # 12x12 Jacobian determinant
    model = _model(d=3, t=4, period=1, seed=6, out_scale=0.4)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 4, 3))
    hc = _hc(model, 1, seed=8)

    def run(flat):
        z, _, _ = forward(flat.reshape(1, 4, 3), hc.data, model)
        return z.reshape(-1)

    flat0 = x.reshape(-1)
    n = flat0.size
    jac = np.zeros((n, n))
    eps = 1e-6
    for i in range(n):
        hi, lo = flat0.copy(), flat0.copy()
        hi[i] += eps
        lo[i] -= eps
        jac[:, i] = (run(hi) - run(lo)) / (2 * eps)
    _, logdet, _ = forward(x, hc.data, model)
    fd_det = abs(np.linalg.det(jac))
    assert abs(np.exp(logdet[0]) - fd_det) / fd_det < 1e-3


def test_log_prob_standard_normal_values():
    # identity flow: log p is the standard normal density of x itself
    # (the model was built for longer windows; a T=1 window still scores)
    model = _model(d=1, t=2, period=1, layers=2)
    lp = log_prob(np.zeros((1, 1, 1)), Tensor(np.zeros((1, 6))), model)
    np.testing.assert_allclose(lp.data[0], -0.5 * LOG_2PI, rtol=1e-12)

    model2 = _model(d=3, t=2, period=1, layers=2, hidden=6)
    lp2 = log_prob(np.zeros((1, 2, 3)), Tensor(np.zeros((1, 6))), model2)
    np.testing.assert_allclose(lp2.data[0], -3.0 * LOG_2PI, rtol=1e-12)


def test_density_integrates_to_one():
    # D=1, T=2 flow with mild random weights: trapezoid quadrature over
    # [-10, 10]^2 must recover total mass 1
    model = _model(d=1, hidden=4, n=1, period=1, t=2, layers=2, blocks=2,
                   seed=9, out_scale=0.3)
    hc = _hc(model, 1, seed=10, scale=0.5)
    axis = np.linspace(-10, 10, 400)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1)[:, :, None]
    dens = np.zeros(grid.shape[0])
    for start in range(0, grid.shape[0], 20000):
        chunk = grid[start:start + 20000]
        hc_rep = Tensor(np.repeat(hc.data, chunk.shape[0], axis=0))
        dens[start:start + 20000] = np.exp(log_prob(chunk, hc_rep, model).data)
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    mass = trapezoid(trapezoid(dens.reshape(400, 400), axis, axis=1), axis)
    assert abs(mass - 1.0) < 1e-2


def test_nll_identity_values():
    model = _model(d=3, t=2, period=1)
    hc = Tensor(np.zeros((1, 6)))
    nll = nll_loss(np.zeros((1, 2, 3)), hc, model)
    np.testing.assert_allclose(nll.item(), 3.0 * LOG_2PI, rtol=1e-12)
    # mean reduction: two identical windows give the same loss as one
    x = np.random.default_rng(11).normal(size=(2, 3))
    single = nll_loss(x[None], hc, model).item()
    double = nll_loss(np.stack([x, x]), Tensor(np.zeros((2, 6))), model).item()
    np.testing.assert_allclose(single, double, rtol=1e-12)


def test_nll_gradient_wrt_scale_weight():
    model = _model(d=2, t=6, period=2, seed=12, out_scale=0.3)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 6, 2))
    c_ind = rng.normal(size=(3, 2, 6))

    def scalar():
        hc = condition(Tensor(c_ind), model)
        return nll_loss(x, hc, model)

    probe = [model.layers[0].s_net.layers[0][0], model.layers[1].t_net.layers[-1][0],
             model.cond_w]
    for p in probe:
        p.grad = None
    scalar().backward()
    for p in probe:
        fd = numeric_gradient(lambda: scalar().data, p)
        assert relative_error(p.grad, fd) < 1e-4


def test_conditioning_changes_density():
    model = _model(seed=15, out_scale=0.4)
    x = np.random.default_rng(16).normal(size=(1, 8, 2))
    lp1 = log_prob(x, Tensor(np.full((1, 6), 0.5)), model).item()
    lp2 = log_prob(x, Tensor(np.full((1, 6), -0.5)), model).item()
    assert lp1 != lp2


def test_condition_contract():
    model = _model()
    c = np.zeros((1, 2, 6))
    model.cond_b.data[:] = 0.0
    np.testing.assert_array_equal(condition(Tensor(c), model).data, np.zeros((1, 6)))
    rng = np.random.default_rng(17)
    c2 = rng.normal(size=(1, 2, 6))
    h1, h2 = condition(Tensor(c2), model), condition(Tensor(c2), model)
    np.testing.assert_array_equal(h1.data, h2.data)
    with pytest.raises(Exception, match="conditioner expects"):
        condition(Tensor(np.zeros((1, 3, 7))), model)


def test_condition_gradient():
    model = _model(seed=18)
    c = Tensor(np.random.default_rng(19).normal(size=(1, 2, 6)), requires_grad=True)

    def scalar():
        return ad.tsum(ad.tanh(condition(c, model)))

    c.grad = None
    scalar().backward()
    fd = numeric_gradient(lambda: scalar().data, c)
    assert relative_error(c.grad, fd) < 1e-4


def test_mask_alternation_covers_everything():
    # consecutive layers move disjoint rows that together are range(T)
    model = _model(d=2, t=9, period=3, layers=3)
    for t in (1, 2, 5, 9, 14):
        layers = _moved_rows(model, t)
        for (rows_a, *_), (rows_b, *_) in zip(layers, layers[1:]):
            np.testing.assert_array_equal(np.sort(np.concatenate([rows_a, rows_b])),
                                          np.arange(t))


def test_anomaly_score_decomposition():
    model = _model(d=2, t=8, period=3, seed=20, out_scale=0.5)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(5, 8, 2))
    hc = _hc(model, 5, seed=22)
    tau, tau_t = anomaly_score(x, hc.data, model)
    np.testing.assert_allclose(tau_t.sum(axis=1), tau, atol=1e-9)
    lp = log_prob(x, hc, model)
    np.testing.assert_allclose(tau, -lp.data, atol=1e-9)


def test_anomaly_score_spike_dominates_identity_flow():
    model = _model(d=1, t=8, period=2)
    hc = Tensor(np.zeros((2, 6)))
    quiet = np.zeros((8, 1))
    spiky = np.zeros((8, 1))
    spiky[5, 0] = 5.0
    tau, tau_t = anomaly_score(np.stack([quiet, spiky]), hc.data, model)
    assert tau[1] > tau[0]
    assert np.argmax(tau_t[1]) == 5
    # identity flow: per-step score is 0.5*x^2 + 0.5*log(2*pi)
    np.testing.assert_allclose(tau_t[0], 0.5 * LOG_2PI, rtol=1e-12)
    np.testing.assert_allclose(tau_t[1, 5], 0.5 * 25 + 0.5 * LOG_2PI, rtol=1e-12)


def test_forward_rejects_wrong_dim():
    model = _model(d=2)
    with pytest.raises(Exception, match="input dim"):
        forward(np.zeros((1, 4, 3)), np.zeros((1, 6)), model)
    with pytest.raises(Exception, match="latent dim"):
        inverse(np.zeros((1, 4, 3)), np.zeros((1, 6)), model)


def test_moved_rows_follow_mask_law():
    model = _model(d=2, t=9, period=3, layers=3)
    pattern = mask_law(3, 9)[1]
    for li, (rows, runs) in enumerate(_moved_rows(model, 9)):
        np.testing.assert_array_equal(rows, np.flatnonzero(pattern == li % 2))
        assert runs == (((0, 0, 3), (3, 6, 3)), ((0, 3, 3),))[li % 2]
    one_step = _moved_rows(model, 1)
    assert [rows.tolist() for rows, _ in one_step] == [[0], [], [0]]
    assert [runs for _, runs in one_step] == [((0, 0, 1),), (), ((0, 0, 1),)]


def test_single_step_window_roundtrip():
    model = _model(d=2, t=8, period=3, seed=30, out_scale=0.5)
    x = np.random.default_rng(31).normal(size=(3, 1, 2))
    hc = _hc(model, 3, seed=32)
    z, _, _ = forward(x, hc.data, model)
    np.testing.assert_allclose(inverse(z, hc.data, model), x, atol=1e-10)


def test_forward_rejects_wrong_conditioning_shape():
    model = _model(d=2)
    with pytest.raises(Exception, match="conditioning shape"):
        forward(np.zeros((2, 8, 2)), np.zeros((1, 6)), model)


def test_no_grad_keeps_overflow_checks():
    model = _model(d=2)
    _, b = model.layers[0].t_net.layers[-1]
    b.data = np.full(b.shape, np.inf)
    with ad.no_grad(), np.errstate(all="ignore"), \
            pytest.raises(ad.NumericOverflow, match="coupling layer 0"):
        forward(np.zeros((1, 8, 2)), _hc(model).data, model)
    # a non-finite conditioning vector in the last, partial context block
    # only: the check after the layer still sees it
    model = _model(d=2)
    b = 2 * _CONTEXT_BLOCK + 3
    hc = _hc(model, b).data
    hc[-1, 0] = np.nan
    with ad.no_grad(), np.errstate(all="ignore"), \
            pytest.raises(ad.NumericOverflow, match="coupling layer 0"):
        forward(np.zeros((b, 8, 2)), hc, model)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("period", [20, 30, 25])
def test_anomaly_score_of_a_window_alone_is_its_score_in_a_batch(period, dtype):
    # a c09-sized flow (D=3, H=32, T=60, context radius the mask period)
    # over 101 windows, three full context blocks and a partial one: each
    # window scores bitwise alike alone; the layers move 40 and 20, 30 and
    # 30, or 35 and 25 rows
    model = _model(d=3, hidden=32, n=4, period=period, t=60, seed=40, out_scale=0.3)
    assert model.context_radius == period
    for p in model.named().values():
        p.data = p.data.astype(dtype)
    b = 3 * _CONTEXT_BLOCK + 5
    x = np.random.default_rng(41).normal(size=(b, 60, 3)).astype(dtype)
    hc = _hc(model, b, seed=42).data.astype(dtype)
    tau, tau_t = anomaly_score(x, hc, model)
    for i in range(b):
        one, one_t = anomaly_score(x[i:i + 1], hc[i:i + 1], model)
        np.testing.assert_array_equal(one, tau[i:i + 1], err_msg=f"window {i}")
        np.testing.assert_array_equal(one_t, tau_t[i:i + 1], err_msg=f"window {i}")


def test_recording_forward_keeps_no_whole_context():
    # a recording float64 log_prob on a training-sized batch (B=32, T=60,
    # context radius 20) at D=38: the tape keeps per layer the nets'
    # later-layer inputs and the clamp's tanh, and the pass one shared
    # context block, not each layer's (B, M, 41 D + H) context (16.3 and
    # 8.1 MB here); 21.8 MB was measured, 29.9 MB when each layer kept its
    # context
    rng = np.random.default_rng(70)
    model = init_flow(38, 32, 2, 20, 2, 2, rng, context_radius=20)
    x = rng.normal(size=(32, 60, 38))
    hc = Tensor(rng.normal(size=(32, 32)), requires_grad=True)
    log_prob(x, hc, model)  # warm the caches of the mask rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lp = log_prob(x, hc, model)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert lp.requires_grad
    assert grown < 25e6, f"tape {grown / 1e6:.1f} MB"


def test_backward_takes_no_gradient_at_the_windows(monkeypatch):
    # the lowest layer's input is the windows, a constant: its backward
    # forms only the conditioning's columns of the context gradient, so
    # no (B*M, 41 D + H) array is made and only the upper layer scatters
    # into h. Float64, B=32, T=60, radius 20, D=38: 20.3 MB was measured,
    # 38.2 MB when the lowest layer formed the whole context gradient
    rng = np.random.default_rng(74)
    model = init_flow(38, 32, 2, 20, 2, 2, rng, context_radius=20)
    for layer in model.layers:
        for net in (layer.s_net, layer.t_net):
            for p in net.layers[-1]:
                p.data = rng.normal(0.0, 0.05, size=p.shape)
    x = rng.normal(size=(32, 60, 38))
    hc = Tensor(rng.normal(size=(32, 32)), requires_grad=True)
    ad.tsum(log_prob(x, hc, model)).backward()  # warm the caches of the mask rows
    calls = []
    context_grads = ad.context_grads
    monkeypatch.setattr(ad, "context_grads", lambda *a: calls.append(a) or context_grads(*a))
    loss = ad.tsum(log_prob(x, hc, model))
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 1
    assert np.all(np.isfinite(hc.grad)) and np.any(hc.grad != 0.0)
    assert peak < 28e6, f"backward peak {peak / 1e6:.1f} MB"


def test_forward_records_nothing(monkeypatch):
    # log_prob is the flow's one node: forward makes no tensor and no
    # node, even when every net weight requires gradients, and returns
    # z, the log-det and the per-step log-det as arrays
    model = _model(d=2, seed=71, out_scale=0.4)
    assert all(p.requires_grad for p in model.named().values())
    hc = _hc(model, 3, seed=72).data
    x = np.random.default_rng(73).normal(size=(3, 8, 2))
    made = []
    init = Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__",
                        lambda self, *a, **k: made.append(a) or init(self, *a, **k))
    monkeypatch.setattr(ad, "node", lambda *a: made.append(a))
    outs = forward(x, hc, model)
    assert made == []
    assert [type(out) for out in outs] == [np.ndarray] * 3


def test_forward_casts_integer_windows_to_float64():
    model = _model(d=2, seed=78, out_scale=0.4)
    x = np.arange(48).reshape(3, 8, 2) % 5
    hc = _hc(model, 3, seed=79).data
    for out, expected in zip(forward(x, hc, model), forward(x.astype(np.float64), hc, model)):
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expected)


def test_recording_forward_returns_the_per_step_logdet(monkeypatch):
    # the forward that a recording log_prob runs, with a backwards list,
    # returns the per-step log-det of a pass that records nothing, bitwise;
    # its rows sum to the log-det
    model = _model(d=3, t=12, period=4, layers=3, seed=75, out_scale=0.5)
    rng = np.random.default_rng(76)
    x = rng.normal(size=(2 * _CONTEXT_BLOCK + 3, 12, 3))
    hc = Tensor(_hc(model, x.shape[0], seed=77).data, requires_grad=True)
    runs = []

    def recorded(*args, **kwargs):
        runs.append((kwargs, forward(*args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(flow, "forward", recorded)
    assert log_prob(x, hc, model).requires_grad
    (kwargs, (_, logdet, logdet_t)), = runs
    assert len(kwargs["backwards"]) == 3
    assert logdet_t.dtype == logdet.dtype == np.float64
    assert logdet_t.tobytes() == forward(x, hc.data, model)[2].tobytes()
    np.testing.assert_allclose(logdet_t.sum(axis=1), logdet, rtol=1e-12)


def test_flow_rejects_unbatched_input():
    model = _model(d=2)
    hc = np.zeros((1, 6))
    with pytest.raises(Exception, match=r"forward expects \(B, T, D\)"):
        forward(np.zeros((8, 2)), hc, model)
    with pytest.raises(Exception, match=r"inverse expects \(B, T, D\)"):
        inverse(np.zeros((8, 2)), hc, model)
    with pytest.raises(Exception, match=r"condition expects \(B, N, D_h\)"):
        condition(Tensor(np.zeros((2, 6))), model)
    with pytest.raises(Exception, match="conditioning shape"):
        forward(np.zeros((1, 8, 2)), np.zeros(6), model)
    with pytest.raises(Exception, match="empty batch"):
        nll_loss(np.zeros((0, 8, 2)), Tensor(np.zeros((0, 6))), model)


def _dense_keep_masks(model, t):
    """(1, T, 1) keep-masks per layer as the dense coupling used them: the
    `mask_law` pattern on even layers, its complement on odd ones."""
    pattern = mask_law(model.mask_period, t)[1][None, :, None].astype(np.float64)
    return [pattern if li % 2 == 0 else 1.0 - pattern for li in range(len(model.layers))]


def _dense_scale_shift(layer, kept, hc, model):
    """(s, t) at every timestep from a zero-padded context of the kept
    entries, built from slices, with the conditioning repeated per step."""
    b, t, d = kept.shape
    r = model.context_radius
    pad = Tensor(np.zeros((b, r, d)))
    padded = ad.concat([pad, kept, pad], axis=1)
    cols = [ad.take(padded, np.arange(j, j + t), axis=1) for j in range(2 * r + 1)]
    cols.append(ad.broadcast_to(ad.reshape(hc, (b, 1, model.hidden)), (b, t, model.hidden)))
    inp = ad.reshape(ad.concat(cols, axis=2), (b * t, -1))
    s_raw = ad.reshape(layer.s_net(inp), (b, t, d))
    s = ad.tanh(s_raw * (1.0 / SCALE_CLAMP)) * SCALE_CLAMP
    return s, ad.reshape(layer.t_net(inp), (b, t, d))


def _dense_forward(x, hc, model):
    """Oracle: the coupling computed at every timestep and masked with
    dense keep/move tensors."""
    h = x
    b, t, d = x.shape
    logdet = Tensor(np.zeros(b))
    logdet_t = np.zeros((b, t))
    for layer, mask in zip(model.layers, _dense_keep_masks(model, t)):
        keep = Tensor(np.broadcast_to(mask, (b, t, d)).copy())
        move = Tensor(np.broadcast_to(1.0 - mask, (b, t, d)).copy())
        s, t_out = _dense_scale_shift(layer, h * keep, hc, model)
        h = h * keep + ((h - t_out) * ad.exp(ad.neg(s))) * move
        s_used = s * move
        logdet = logdet - ad.tsum(s_used, axis=(1, 2))
        logdet_t -= s_used.data.sum(axis=2)
    return h, logdet, logdet_t


def _dense_inverse(z, hc, model):
    h = z.copy()
    b, t, d = h.shape
    with ad.no_grad():
        for layer, mask in zip(reversed(model.layers),
                               reversed(_dense_keep_masks(model, t))):
            keep = np.broadcast_to(mask, (b, t, d))
            s, t_out = _dense_scale_shift(layer, Tensor(h * keep), hc, model)
            h = h * keep + (h * np.exp(s.data) + t_out.data) * (1.0 - keep)
    return h


def _assert_close(actual, expected, rtol=1e-12):
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert actual.shape == expected.shape
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= rtol * scale


def _base(z, logdet):
    """The base term through generic ops: logdet - tsum(z * z) * 0.5 -
    const, the chain whose numpy operations `log_prob`'s node runs."""
    b, t, d = z.shape
    const = Tensor(np.full(b, 0.5 * t * d * LOG_2PI, dtype=z.data.dtype))
    return logdet - ad.tsum(z * z, axis=(1, 2)) * 0.5 - const


@pytest.mark.parametrize("t_model, t, period, radius, layers", [
    (8, 1, 3, None, 2), (8, 1, 3, 0, 3), (2, 2, 1, None, 1), (9, 9, 3, 0, 3),
    (9, 9, 2, 12, 2), (60, 60, 7, None, 2), (60, 61, 20, 0, 1), (61, 61, 9, 70, 3),
])
def test_moved_rows_match_dense_oracle(t_model, t, period, radius, layers):
    # values, log-dets, log-density, inverse and every gradient equal the
    # dense coupling, in one context block and over two full blocks and a
    # partial one, where the backward sums the weight gradients block by
    # block
    model = _model(d=2, hidden=5, n=2, period=period, t=t_model, layers=layers,
                   seed=50 + t, radius=radius, out_scale=0.4)
    rng = np.random.default_rng(51 + t)
    for b in (3, 2 * _CONTEXT_BLOCK + 3):
        x = Tensor(rng.normal(size=(b, t, 2)))
        hc = Tensor(rng.normal(size=(b, model.hidden)), requires_grad=True)
        # every coupling-net parameter (the conditioner is not part of the flow)
        tensors = [p for name, p in model.named().items() if ".layer" in name] + [hc]

        def run(coupling):
            for p in tensors:
                p.grad = None
            lp, values = coupling()
            ad.tsum(lp).backward()
            return [lp.data, *values] + [p.grad.copy() for p in tensors]

        def moved_rows():
            z, logdet, logdet_t = forward(x.data, hc.data, model)
            return log_prob(x.data, hc, model), [z, logdet, logdet_t]

        def dense_rows():
            z, logdet, logdet_t = _dense_forward(x, hc, model)
            return _base(z, logdet), [z.data, logdet.data, logdet_t]

        moved = run(moved_rows)
        dense = run(dense_rows)
        for actual, expected in zip(moved, dense):
            _assert_close(actual, expected)
        z = moved[1]
        _assert_close(inverse(z, hc.data, model), _dense_inverse(z, hc, model))


def _chain_forward(x, hc, model):
    """Oracle: each coupling layer as a chain of generic autodiff ops, the
    moved rows merged back with a concat and a take."""
    h = x
    b, t, d = x.shape
    logdet = Tensor(np.zeros(b))
    for layer, (rows, runs) in zip(model.layers, _moved_rows(model, t)):
        ctx = ad.time_context(h, model.context_radius, rows, hc, runs)
        inp = ad.reshape(ctx, (-1, ctx.shape[2]))
        s_raw = ad.reshape(layer.s_net(inp), (b, rows.size, d))
        s = ad.tanh(s_raw * (1.0 / SCALE_CLAMP)) * SCALE_CLAMP
        t_out = ad.reshape(layer.t_net(inp), (b, rows.size, d))
        moved = (ad.take(h, rows, axis=1) - t_out) * ad.exp(ad.neg(s))
        merge = np.arange(t)
        merge[rows] = t + np.arange(rows.size)
        h = ad.take(ad.concat([h, moved], axis=1), merge, axis=1)
        logdet = logdet - ad.tsum(s, axis=(1, 2))
    return h, logdet


@pytest.mark.parametrize("b, t, period, layers", [(7, 60, 20, 3), (1, 60, 20, 2), (4, 9, 2, 2)])
def test_coupling_layers_are_bitwise_the_generic_chain(b, t, period, layers):
    # the log_prob node runs the chain's numpy operations in the chain's
    # order and lays z out as its merge did, so z, the log-density and
    # every gradient are bitwise equal, not only close
    model = _model(d=3, hidden=8, n=2, period=period, t=t, layers=layers,
                   seed=60 + b, out_scale=0.4)
    rng = np.random.default_rng(61 + b)
    x = Tensor(rng.normal(size=(b, t, 3)))
    hc = Tensor(rng.normal(size=(b, model.hidden)), requires_grad=True)
    tensors = [p for name, p in model.named().items() if ".layer" in name] + [hc]

    def run(coupling):
        for p in tensors:
            p.grad = None
        lp, z, logdet = coupling()
        ad.tsum(lp).backward()
        return [z, logdet, lp.data] + [p.grad for p in tensors]

    def chain():
        z, logdet = _chain_forward(x, hc, model)
        return _base(z, logdet), z.data, logdet.data

    fused = run(lambda: (log_prob(x.data, hc, model), *forward(x.data, hc.data, model)[:2]))
    for actual, expected in zip(fused, run(chain)):
        assert actual.tobytes() == expected.tobytes()
