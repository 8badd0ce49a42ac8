"""Period-factor miner: shapes, identity paths, gradients, and the miner in
input space against the generic-op fold of the embedded windows."""
import numpy as np
import pytest

from conftest import numeric_gradient, relative_error
from periflow import autodiff as ad
from periflow import training
from periflow.autodiff import Tensor
from periflow.config import GenConfig
from periflow.factors import (CausalPyramid, bin_amplitudes, embed, extract_pyramid, init_miner,
                              period_pool)
from periflow.fusion import fuse
from periflow.spectral import top_k_periods
from periflow.synthetic import generate
from periflow.training import TrainConfig, build_models, prepare_series


def _miner(d_in=3, hidden=8, n=2, seed=0):
    return init_miner(d_in, hidden, n, np.random.default_rng(seed))


def _window(t=24, d=3, seed=1):
    rng = np.random.default_rng(seed)
    tt = np.arange(t)
    base = np.sin(2 * np.pi * tt / 8.0)
    return np.column_stack([base + 0.2 * rng.normal(size=t) for _ in range(d)])


def test_embed_identity_map():
    params = _miner(d_in=4, hidden=4)
    params.embed_w.data = np.eye(4)
    params.embed_b.data = np.zeros(4)
    x = _window(t=10, d=4)
    np.testing.assert_allclose(embed(Tensor(x[None]), params).data[0], x)


def test_embed_zero_input_broadcasts_bias():
    params = _miner()
    params.embed_b.data = np.arange(8.0)
    h = embed(Tensor(np.zeros((1, 6, 3))), params)
    np.testing.assert_allclose(h.data[0], np.tile(np.arange(8.0), (6, 1)))


def test_embed_matches_matmul_oracle():
    params = _miner()
    x = _window()
    expected = x @ params.embed_w.data + params.embed_b.data
    np.testing.assert_allclose(embed(Tensor(x[None]), params).data[0], expected,
                               atol=1e-10)


def test_embed_shape_mismatch():
    with pytest.raises(ValueError, match="input dim"):
        embed(Tensor(np.zeros((1, 5, 7))), _miner(d_in=3))


def _spectrum_at(x, frequencies):
    """The (B, k, D) rfft of windows x at the given bins."""
    return np.take_along_axis(np.fft.rfft(x, axis=1),
                              np.asarray(frequencies)[:, :, None], axis=1)


def _pyramid(x, params, frequencies):
    periods = -(-x.shape[1] // np.asarray(frequencies))
    return extract_pyramid(x, params, periods, _spectrum_at(x, frequencies))


def test_pyramid_shapes_fixed_regardless_of_periods():
    params = _miner()
    x = _window()[None]
    for k in (1, 2, 3):
        picks = top_k_periods(x, k, params.embed_w.data)
        pyr = extract_pyramid(x, params, picks.periods, picks.spectrum)
        assert pyr.factors.shape == (1, k, 2, 8)
        assert pyr.weights.shape == (1, k)


def test_pyramid_identity_path():
    # zero grid transform + identity-tiling slot projection reproduces the
    # pooled embedding on every slot row (T chosen so the period divides it)
    params = _miner(d_in=2, hidden=4, n=3)
    params.grid_w.data[:] = 0.0
    params.grid_b.data[:] = 0.0
    params.slot_w.data = np.tile(np.eye(4), (1, 3))
    params.slot_b.data[:] = 0.0
    t = 24
    x = np.column_stack([np.sin(2 * np.pi * np.arange(t) / 8.0)] * 2)
    pyr = _pyramid(x[None], params, [[3]])  # period 8: 24 = 3 cycles of 8
    pooled = embed(Tensor(x[None]), params).data[0].mean(axis=0)
    for row in range(3):
        np.testing.assert_allclose(pyr.factors.data[0, 0, row], pooled, atol=1e-12)


def test_padded_cells_contribute_zero():
    # padded cells carry exact zeros: the pooled output equals an oracle
    # computed on an explicitly zero-extended window
    params = _miner(d_in=2, hidden=4, n=1)
    t, p = 10, 4  # pads to 12, grid 3x4
    params.embed_b.data = np.array([0.3, -0.2, 0.1, 0.5])  # pad steps are 0, not b
    x = _window(t=t, d=2, seed=3)
    h = embed(Tensor(x[None]), params)
    pyr = _pyramid(x[None], params, [[3]])  # ceil(10 / 3) = p

    grid = np.concatenate([h.data[0], np.zeros((2, 4))]).reshape(3, 4, 4)
    col_mean = np.broadcast_to(grid.mean(axis=0, keepdims=True), grid.shape)
    row_mean = np.broadcast_to(grid.mean(axis=1, keepdims=True), grid.shape)
    cells = np.concatenate([grid, col_mean, row_mean], axis=2).reshape(12, 12)
    transformed = grid.reshape(12, 4) + np.tanh(
        cells @ params.grid_w.data + params.grid_b.data)
    pooled = transformed.mean(axis=0)
    expected = pooled @ params.slot_w.data + params.slot_b.data
    np.testing.assert_allclose(pyr.factors.data[0, 0, 0], expected[:4], atol=1e-12)


def _fold_oracle(h, params, frequencies):
    """Window by window and slot by slot, with the 3C-wide cell input:
    tanh([cell, col mean, row mean] @ grid_w + b), pooled, projected."""
    b, t, c = h.shape
    k = len(frequencies[0])
    slots = []
    for i in range(b):
        for f in frequencies[i]:
            p = -(-t // f)
            rows = -(-t // p)
            x = ad.reshape(ad.take(h, [i]), (t, c))
            if rows * p > t:
                x = ad.concat([x, Tensor(np.zeros((rows * p - t, c)))], axis=0)
            grid = ad.reshape(x, (rows, p, c))
            col = ad.broadcast_to(ad.tmean(grid, axis=0, keepdims=True), (rows, p, c))
            row = ad.broadcast_to(ad.tmean(grid, axis=1, keepdims=True), (rows, p, c))
            cells = ad.reshape(ad.concat([grid, col, row], axis=2), (rows * p, 3 * c))
            bump = ad.tanh(ad.affine(cells, params.grid_w, params.grid_b))
            pooled = ad.tmean(x + bump, axis=0, keepdims=True)
            slots.append(ad.affine(pooled, params.slot_w, params.slot_b))
    return ad.reshape(ad.concat(slots, axis=0), (b, k, params.n_factors, c))


def test_pyramid_matches_fold_oracle():
    for t, freqs in [
        # f=9 gives the padded period 7 at T=60; f=25 and f=29 both give
        # period 3, so two slots of one window share a fold
        (60, [[25, 29, 3], [9, 3, 1], [2, 9, 25]]),
        # B=1, the stream shape: period T (f=1, one grid row), period 2
        # (f=30) and a shared period 3 (f=20 and f=25)
        (60, [[1, 30, 20, 25]]),
        # odd T: period 2 pads one step, period T=7 is one row
        (7, [[3, 1], [1, 2], [2, 3]]),
        # 40 pairs per period: each period is pooled in two blocks
        (24, [[2, 3]] * 20 + [[3, 2]] * 20),
    ]:
        _check_against_fold_oracle(t, freqs)


def _check_against_fold_oracle(t, freqs):
    b, k = len(freqs), len(freqs[0])
    params = _miner(d_in=3, hidden=6, n=2, seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(b, t, 3))
    params.embed_b.data = rng.normal(size=6)
    probe = rng.normal(size=(b, k, 2, 6))
    leaves = (params.embed_w, params.embed_b, params.grid_w, params.grid_b,
              params.slot_w, params.slot_b)

    def run(build):
        factors = build()
        for leaf in leaves:
            leaf.grad = None
        ad.tsum(ad.tanh(factors) * Tensor(probe)).backward()
        return factors.data, [leaf.grad.copy() for leaf in leaves]

    got, got_grads = run(lambda: _pyramid(x, params, freqs).factors)
    want, want_grads = run(lambda: _fold_oracle(embed(Tensor(x), params), params, freqs))
    assert relative_error(got, want, floor=np.max(np.abs(want))) < 1e-12
    for g, w in zip(got_grads, want_grads):
        assert relative_error(g, w, floor=np.max(np.abs(w))) < 1e-12


def test_period_pool_records_nothing_under_no_grad():
    params = _miner(hidden=6)
    x = np.random.default_rng(2).normal(size=(2, 24, 3))
    periods = [[8, 3], [3, 3]]
    weights = (params.embed_w, params.embed_b, params.grid_w, params.grid_b)
    taped = period_pool(x, *weights, periods)
    assert taped.requires_grad and taped._backward is not None
    with ad.no_grad():
        out = period_pool(x, *weights, periods)
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()
    np.testing.assert_array_equal(out.data, taped.data)


def test_pyramid_deterministic():
    params = _miner()
    x = _window()[None]
    picks = top_k_periods(x, 2, params.embed_w.data)
    a = extract_pyramid(x, params, picks.periods, picks.spectrum)
    b = extract_pyramid(x, params, picks.periods, picks.spectrum)
    np.testing.assert_array_equal(a.factors.data, b.factors.data)
    np.testing.assert_array_equal(a.weights.data, b.weights.data)


def _amplitude_oracle(h, frequencies):
    """Channel-averaged amplitude of (B, T, C) windows h at (B, k) bins by
    an explicit cosine/sine projection in generic ops, scaled by 2/T."""
    t = h.shape[1]
    grid = 2.0 * np.pi * np.asarray(frequencies)[..., None] * np.arange(t) / t
    re = ad.bmm(Tensor(np.cos(grid)), h)
    im = ad.bmm(Tensor(-np.sin(grid)), h)
    return ad.tmean(ad.sqrt(re * re + im * im) * (2.0 / t), axis=2)


def test_bin_amplitudes_match_fft():
    # the embedded windows' amplitude at the picks, with its gradient, from
    # the input's spectrum alone; the bias does not reach a picked bin
    params = _miner(d_in=3, hidden=5, seed=9)
    rng = np.random.default_rng(4)
    params.embed_b.data = rng.normal(size=5)
    x = rng.normal(size=(2, 20, 3))
    freqs = [[1, 4, 10], [9, 2, 4]]  # each window its own bins, Nyquist too
    probe = Tensor(rng.normal(size=(2, 3)))

    def run(build):
        params.embed_w.grad = params.embed_b.grad = None
        amp = build()
        ad.tsum(ad.tanh(amp) * probe).backward()
        return amp.data, params.embed_w.grad.copy(), params.embed_b.grad

    got, got_w, got_b = run(lambda: bin_amplitudes(_spectrum_at(x, freqs),
                                                    params.embed_w, 20))
    want, want_w, want_b = run(lambda: _amplitude_oracle(embed(Tensor(x), params), freqs))
    assert got_b is None and np.max(np.abs(want_b)) < 1e-12
    assert relative_error(got, want, floor=np.max(np.abs(want))) < 1e-12
    assert relative_error(got_w, want_w, floor=np.max(np.abs(want_w))) < 1e-12
    for i in range(2):
        spec = np.abs(np.fft.fft(embed(Tensor(x[i:i + 1]), params).data[0],
                                 axis=0)).mean(axis=1)
        np.testing.assert_allclose(got[i], spec[freqs[i]] * (2.0 / 20), atol=1e-10)


def test_bin_amplitudes_unit_sinusoid():
    t = 24
    x = np.sin(2 * np.pi * 3 * np.arange(t) / t)[None, :, None]
    amp = bin_amplitudes(_spectrum_at(x, [[3]]), Tensor(np.ones((1, 1))), t).data
    np.testing.assert_allclose(amp, [[1.0]], atol=1e-12)


def test_bin_amplitudes_of_a_zero_window_pass_no_gradient():
    w = Tensor(np.random.default_rng(5).normal(size=(3, 4)), requires_grad=True)
    amp = bin_amplitudes(_spectrum_at(np.zeros((1, 12, 3)), [[1, 2]]), w, 12)
    ad.tsum(amp).backward()
    np.testing.assert_array_equal(amp.data, np.zeros((1, 2)))
    np.testing.assert_array_equal(w.grad, np.zeros((3, 4)))


def test_pyramid_weights_match_selection():
    params = _miner()
    x = _window(t=32)[None]
    picks = top_k_periods(x, 2, params.embed_w.data)
    pyr = extract_pyramid(x, params, picks.periods, picks.spectrum)
    np.testing.assert_allclose(pyr.weights.data, picks.amplitudes * (2.0 / 32), atol=1e-9)


def test_pyramid_gradient_wrt_embedding():
    params = _miner(d_in=2, hidden=6, n=2, seed=5)
    x = _window(t=16, d=2, seed=6)[None]

    def scalar():
        pyr = _pyramid(x, params, [[2, 5]])  # periods 8 and 4
        return ad.tsum(pyr.weights) + ad.tsum(ad.tanh(pyr.factors))

    tensors = (params.embed_w, params.embed_b, params.grid_w, params.grid_b, params.slot_w)
    for tensor in tensors:
        tensor.grad = None
    loss = scalar()
    loss.backward()
    for tensor in tensors:
        fd = numeric_gradient(lambda: scalar().data, tensor)
        assert relative_error(tensor.grad, fd) < 1e-4


def test_miner_rejects_unbatched_input():
    params = _miner()
    with pytest.raises(ValueError, match=r"\(B, T, D\)"):
        embed(Tensor(_window()), params)
    x = _window()[None]
    with pytest.raises(ValueError, match=r"\(B, T, D\) windows"):
        extract_pyramid(x[0], params, [[8]], _spectrum_at(x, [[3]]))
    with pytest.raises(ValueError, match=r"\(1, k\) periods"):
        extract_pyramid(x, params, [8], _spectrum_at(x, [[3]]))
    with pytest.raises(ValueError, match=r"\(1, 2, 3\) spectrum"):
        extract_pyramid(x, params, [[8, 6]], _spectrum_at(x, [[3]]))
    with pytest.raises(ValueError, match="input dim"):
        _pyramid(np.zeros((1, 24, 2)), params, [[3]])


def _embedded_miner_chain(windows, bundle):
    """`training.encode_batch` as the miner ran on embedded windows: embed,
    pick the bins of the embedded spectrum, fold embed(x) in generic ops
    (`_fold_oracle`) and take its amplitudes by projection
    (`_amplitude_oracle`)."""
    h = embed(Tensor(windows), bundle.miner)
    picks = top_k_periods(h.data, bundle.config.k_periods)
    factors = _fold_oracle(h, bundle.miner, picks.frequencies)
    rep = fuse(CausalPyramid(factors, _amplitude_oracle(h, picks.frequencies)),
               bundle.fusion)
    return rep.values, {"periods": picks.periods, "amp_weights": rep.amp_softmax,
                        "attention": rep.attention}


@pytest.mark.parametrize("b", [32, 7, 1])
def test_total_loss_gradients_match_the_embedded_miner_chain(b, monkeypatch):
    # c09-style windows (T=60, D=3, periods 20 and 60), every bias and
    # flow head off zero so that each path carries gradient
    series = generate(GenConfig(gen_length=600, gen_periods="20:3.0,60:1.0"), seed=4)
    config = TrainConfig(window_length=60, hidden=8, n_factors=2, k_periods=3,
                         num_blocks=1, seed=4)
    data = prepare_series(series.values, config)
    bundle = build_models(config, 3, data["global_period"], np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for layer in bundle.flow.layers:
        for net in (layer.s_net, layer.t_net):
            for w in net.layers[-1]:
                w.data = rng.normal(0.0, 0.3, size=w.shape)
    for bias in (bundle.miner.embed_b, bundle.miner.grid_b, bundle.miner.slot_b):
        bias.data = rng.normal(0.0, 0.5, size=bias.shape)
    windows = data["train"][::3][:b]
    params = bundle.named_params()

    def gradients():
        loss, _ = training.total_loss(windows, bundle, np.random.default_rng(7))
        for t in params.values():
            t.grad = None
        loss.backward()
        return loss.item(), {name: t.grad.copy() for name, t in params.items()}

    periods = training.encode_batch(windows, bundle)[1]["periods"]
    got_loss, got = gradients()
    monkeypatch.setattr(training, "encode_batch", _embedded_miner_chain)
    np.testing.assert_array_equal(training.encode_batch(windows, bundle)[1]["periods"],
                                  periods)
    want_loss, want = gradients()
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for name in params:
        scale = np.max(np.abs(want[name]))
        assert scale > 0, name
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name
