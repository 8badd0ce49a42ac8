"""Attention fusion of period blocks."""
import numpy as np

from conftest import check_gradients
from periflow import autodiff as ad
from periflow.autodiff import Tensor
from periflow.factors import CausalPyramid
from periflow.fusion import init_fusion, fuse


def _pyramid(k, n=2, dh=4, seed=0, b=1):
    rng = np.random.default_rng(seed)
    factors = Tensor(rng.normal(size=(b, k, n, dh)), requires_grad=True)
    weights = Tensor(rng.normal(size=(b, k)), requires_grad=True)
    return CausalPyramid(factors, weights)


def test_single_period_passthrough():
    pyr = _pyramid(1)
    out = fuse(pyr, init_fusion(4, np.random.default_rng(1)))
    np.testing.assert_array_equal(out.values.data, pyr.factors.data[:, 0])
    np.testing.assert_allclose(out.attention.data, [[1.0]])


def test_identical_blocks_recovered():
    pyr = _pyramid(3, seed=2)
    same = pyr.factors.data[:, :1]
    pyr = CausalPyramid(Tensor(np.repeat(same, 3, axis=1)), pyr.weights)
    out = fuse(pyr, init_fusion(4, np.random.default_rng(3)))
    np.testing.assert_allclose(out.values.data, same[:, 0], rtol=1e-12)


def test_matches_convex_combination_oracle():
    pyr = _pyramid(3, seed=4)
    params = init_fusion(4, np.random.default_rng(5))
    out = fuse(pyr, params)
    a_p = out.attention.data[0]
    w_hat = out.amp_softmax.data[0]
    u = w_hat * a_p
    u = u / u.sum()
    oracle = sum(u[i] * pyr.factors.data[0, i] for i in range(3))
    np.testing.assert_allclose(out.values.data[0], oracle, atol=1e-10)


def test_mixing_weights_are_probabilities():
    for seed in range(5):
        pyr = _pyramid(4, seed=seed)
        out = fuse(pyr, init_fusion(4, np.random.default_rng(seed + 10)))
        a, w = out.attention.data[0], out.amp_softmax.data[0]
        assert np.all(a >= 0) and abs(a.sum() - 1) < 1e-12
        assert np.all(w >= 0) and abs(w.sum() - 1) < 1e-12
        u = a * w / np.sum(a * w)
        lo = np.min(pyr.factors.data, axis=1)
        hi = np.max(pyr.factors.data, axis=1)
        assert np.all(out.values.data >= lo - 1e-9)
        assert np.all(out.values.data <= hi + 1e-9)


def test_permutation_equivariance():
    pyr = _pyramid(3, seed=6)
    params = init_fusion(4, np.random.default_rng(7))
    out = fuse(pyr, params)
    perm = [2, 0, 1]
    permuted = CausalPyramid(Tensor(pyr.factors.data[:, perm]),
                             Tensor(pyr.weights.data[:, perm]))
    out_p = fuse(permuted, params)
    np.testing.assert_allclose(out_p.attention.data[0], out.attention.data[0][perm],
                               atol=1e-12)
    np.testing.assert_allclose(out_p.values.data, out.values.data, atol=1e-12)


def test_attention_shift_invariance():
    # adding a constant to all logits does not change softmax outputs;
    # scaling both projections of a zero-mean token set realises that shift
    pyr = _pyramid(3, seed=8)
    params = init_fusion(4, np.random.default_rng(9))
    out1 = fuse(pyr, params)
    probe = out1.attention.data.copy()
    logits = np.log(np.maximum(probe, 1e-300))
    shifted = np.exp(logits + 3.7)
    np.testing.assert_allclose(shifted / shifted.sum(axis=-1, keepdims=True),
                               probe, atol=1e-9)


def test_fusion_gradients():
    pyr = _pyramid(3, seed=10, b=2)
    params = init_fusion(4, np.random.default_rng(11))

    def loss():
        out = fuse(pyr, params)
        return ad.tsum(ad.tanh(out.values)) + ad.tsum(out.attention * out.amp_softmax)

    tensors = [params.query_w, params.key_w, pyr.weights, pyr.factors]
    check_gradients(loss, tensors)
