"""Period-factor miner: shapes, identity paths, gradients."""
import numpy as np
import pytest

from conftest import numeric_gradient, relative_error
from periflow import autodiff as ad
from periflow.autodiff import Tensor
from periflow.factors import (bin_amplitudes, embed, extract_pyramid,
                              grid_shape, init_miner)
from periflow.spectral import top_k_periods


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
    np.testing.assert_allclose(embed(x[None], params).data[0], x)


def test_embed_zero_input_broadcasts_bias():
    params = _miner()
    params.embed_b.data = np.arange(8.0)
    h = embed(np.zeros((1, 6, 3)), params)
    np.testing.assert_allclose(h.data[0], np.tile(np.arange(8.0), (6, 1)))


def test_embed_matches_matmul_oracle():
    params = _miner()
    x = _window()
    expected = x @ params.embed_w.data + params.embed_b.data
    np.testing.assert_allclose(embed(x[None], params).data[0], expected, atol=1e-10)


def test_embed_shape_mismatch():
    with pytest.raises(ValueError, match="input dim"):
        embed(np.zeros((1, 5, 7)), _miner(d_in=3))


def test_grid_padding_arithmetic():
    assert grid_shape(12, 5) == (3, 5)  # padded length 15
    assert grid_shape(60, 20) == (3, 20)
    assert grid_shape(7, 7) == (1, 7)


def test_pyramid_shapes_fixed_regardless_of_periods():
    params = _miner()
    h = embed(_window()[None], params)
    for k in (1, 2, 3):
        picked = top_k_periods(h.data, k)[0]
        pyr = extract_pyramid(h, params, [picked.frequencies])
        assert pyr.factors.shape == (1, picked.k, 2, 8) and picked.k <= k
        assert pyr.weights.shape == (1, picked.k)


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
    h = embed(x[None], params)
    pyr = extract_pyramid(h, params, [[3]])  # period 8: 24 = 3 cycles of 8
    pooled = h.data[0].mean(axis=0)
    for row in range(3):
        np.testing.assert_allclose(pyr.factors.data[0, 0, row], pooled, atol=1e-12)


def test_padded_cells_contribute_zero():
    # padded cells carry exact zeros: the pooled output equals an oracle
    # computed on an explicitly zero-extended window
    params = _miner(d_in=2, hidden=4, n=1)
    t, p = 10, 4  # pads to 12, grid 3x4
    x = _window(t=t, d=2, seed=3)
    h = embed(x[None], params)
    pyr = extract_pyramid(h, params, [[3]])  # ceil(10 / 3) = p

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
    # f=9 gives the padded period 7 at T=60; f=25 and f=29 both give
    # period 3, so two slots of one window share a fold
    params = _miner(d_in=3, hidden=6, n=2, seed=7)
    rng = np.random.default_rng(8)
    h = Tensor(rng.normal(size=(3, 60, 6)), requires_grad=True)
    freqs = [[25, 29, 3], [9, 3, 1], [2, 9, 25]]
    probe = rng.normal(size=(3, 3, 2, 6))
    leaves = (h, params.grid_w, params.grid_b, params.slot_w, params.slot_b)

    def run(build):
        factors = build()
        for leaf in leaves:
            leaf.grad = None
        ad.tsum(ad.tanh(factors) * Tensor(probe)).backward()
        return factors.data, [leaf.grad.copy() for leaf in leaves]

    got, got_grads = run(lambda: extract_pyramid(h, params, freqs).factors)
    want, want_grads = run(lambda: _fold_oracle(h, params, freqs))
    assert relative_error(got, want, floor=np.max(np.abs(want))) < 1e-12
    for g, w in zip(got_grads, want_grads):
        assert relative_error(g, w, floor=np.max(np.abs(w))) < 1e-12


def test_pyramid_deterministic():
    params = _miner()
    x = _window()[None]
    freqs = [top_k_periods(embed(x, params).data, 2)[0].frequencies]
    a = extract_pyramid(embed(x, params), params, freqs)
    b = extract_pyramid(embed(x, params), params, freqs)
    np.testing.assert_array_equal(a.factors.data, b.factors.data)
    np.testing.assert_array_equal(a.weights.data, b.weights.data)


def test_bin_amplitudes_match_fft():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(2, 20, 3))
    freqs = [[1, 4, 7], [9, 2, 4]]  # each window its own bins
    amp = bin_amplitudes(Tensor(h), freqs).data
    for i in range(2):
        spec = np.abs(np.fft.fft(h[i], axis=0)).mean(axis=1) * (2.0 / 20)
        np.testing.assert_allclose(amp[i], spec[freqs[i]], atol=1e-10)


def test_bin_amplitudes_unit_sinusoid():
    t = 24
    x = np.sin(2 * np.pi * 3 * np.arange(t) / t)[None, :, None]
    amp = bin_amplitudes(Tensor(x), [[3]]).data
    np.testing.assert_allclose(amp, [[1.0]], atol=1e-12)


def test_pyramid_weights_match_selection():
    params = _miner()
    x = _window(t=32)
    h = embed(x[None], params)
    oracle = top_k_periods(h.data, 2)[0]
    pyr = extract_pyramid(h, params, [oracle.frequencies])
    np.testing.assert_allclose(pyr.weights.data[0], oracle.weights * (2.0 / 32),
                               atol=1e-9)


def test_pyramid_gradient_wrt_embedding():
    params = _miner(d_in=2, hidden=6, n=2, seed=5)
    x = _window(t=16, d=2, seed=6)[None]

    def scalar():
        h = embed(x, params)
        pyr = extract_pyramid(h, params, [[2, 5]])  # periods 8 and 4
        return ad.tsum(pyr.weights) + ad.tsum(ad.tanh(pyr.factors))

    for tensor in (params.embed_w, params.embed_b, params.grid_w, params.slot_w):
        tensor.grad = None
    loss = scalar()
    loss.backward()
    for tensor in (params.embed_w, params.embed_b, params.grid_w, params.slot_w):
        fd = numeric_gradient(lambda: scalar().data, tensor)
        assert relative_error(tensor.grad, fd) < 1e-4


def test_miner_rejects_unbatched_input():
    params = _miner()
    with pytest.raises(ValueError, match=r"\(B, T, D\)"):
        embed(_window(), params)
    h = embed(_window()[None], params)
    with pytest.raises(ValueError, match=r"\(B, T, D_h\)"):
        extract_pyramid(ad.reshape(h, h.shape[1:]), params, [[3]])
    with pytest.raises(ValueError, match=r"\(1, k\) frequencies"):
        extract_pyramid(h, params, [3])
