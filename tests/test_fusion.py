"""Attention fusion of period blocks."""
import numpy as np
import pytest

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
    np.testing.assert_allclose(out.attention, [[1.0]])


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
    a_p = out.attention[0]
    w_hat = out.amp_softmax[0]
    u = w_hat * a_p
    u = u / u.sum()
    oracle = sum(u[i] * pyr.factors.data[0, i] for i in range(3))
    np.testing.assert_allclose(out.values.data[0], oracle, atol=1e-10)


def test_mixing_weights_are_probabilities():
    for seed in range(5):
        pyr = _pyramid(4, seed=seed)
        out = fuse(pyr, init_fusion(4, np.random.default_rng(seed + 10)))
        a, w = out.attention[0], out.amp_softmax[0]
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
    np.testing.assert_allclose(out_p.attention[0], out.attention[0][perm],
                               atol=1e-12)
    np.testing.assert_allclose(out_p.values.data, out.values.data, atol=1e-12)


def test_attention_shift_invariance():
    # adding a constant to all logits does not change softmax outputs;
    # scaling both projections of a zero-mean token set realises that shift
    pyr = _pyramid(3, seed=8)
    params = init_fusion(4, np.random.default_rng(9))
    out1 = fuse(pyr, params)
    probe = out1.attention.copy()
    logits = np.log(np.maximum(probe, 1e-300))
    shifted = np.exp(logits + 3.7)
    np.testing.assert_allclose(shifted / shifted.sum(axis=-1, keepdims=True),
                               probe, atol=1e-9)


def test_fusion_gradients():
    pyr = _pyramid(3, seed=10, b=2)
    params = init_fusion(4, np.random.default_rng(11))

    def loss():
        out = fuse(pyr, params)
        return ad.tsum(ad.tanh(out.values))

    tensors = [params.query_w, params.key_w, pyr.weights, pyr.factors]
    check_gradients(loss, tensors)


def _chain_fuse(pyramid, params):
    """Oracle: `fuse` as a chain of generic autodiff ops, one node per op."""
    b, k, n, dh = pyramid.factors.shape
    flat = ad.reshape(ad.tmean(pyramid.factors, axis=2), (b * k, dh))
    q = ad.reshape(ad.matmul(flat, params.query_w), (b, k, dh))
    key = ad.reshape(ad.matmul(flat, params.key_w), (b, k, dh))
    logits = ad.bmm(q, ad.transpose(key, (0, 2, 1))) * (1.0 / np.sqrt(dh))
    attn = ad.softmax(logits)

    col_mean = ad.tmean(attn, axis=1)
    norm = ad.broadcast_to(ad.tsum(col_mean, axis=1, keepdims=True), (b, k))
    a_p = col_mean / norm

    w_hat = ad.softmax(pyramid.weights)
    combined = w_hat * a_p
    total = ad.broadcast_to(ad.tsum(combined, axis=1, keepdims=True), (b, k))
    u = combined / total

    stacked = ad.reshape(pyramid.factors, (b, k, n * dh))
    u_wide = ad.broadcast_to(ad.reshape(u, (b, k, 1)), (b, k, n * dh))
    fused = ad.reshape(ad.tsum(stacked * u_wide, axis=1), (b, n, dh))
    return fused, a_p, w_hat


@pytest.mark.parametrize("b, k, n, dh", [(1, 1, 2, 4), (2, 3, 2, 4), (5, 4, 3, 6), (1, 3, 4, 32)])
@pytest.mark.parametrize("outputs", ["values"])  # the one differentiable output
def test_fuse_matches_generic_chain(b, k, n, dh, outputs):
    # values, attention, amplitude weights and the four gradients through
    # the values are bitwise those of the chain of generic ops the fused
    # node replaced
    rng = np.random.default_rng(20 + b + k)
    pyr = _pyramid(k, n=n, dh=dh, seed=21, b=b)
    params = init_fusion(dh, np.random.default_rng(22))
    tensors = [params.query_w, params.key_w, pyr.weights, pyr.factors]
    w_values = Tensor(rng.normal(size=(b, n, dh)))

    def run(values, attention, amp):
        for t in tensors:
            t.grad = None
        ad.tsum(ad.tanh(values) * w_values).backward()
        return [values.data, attention, amp] + [t.grad.copy() for t in tensors]

    out = fuse(pyr, params)
    fused = run(out.values, out.attention, out.amp_softmax)
    fused_chain, a_p, w_hat = _chain_fuse(pyr, params)
    chain = run(fused_chain, a_p.data, w_hat.data)
    for actual, expected in zip(fused, chain):
        assert actual.shape == expected.shape and actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()


def test_fuse_reaches_its_inputs_in_the_chain_order():
    # factors and weights both derive from one leaf, which then sums three
    # gradients; the fused node hands them out in the chain's sweep order,
    # so the sum is bitwise the chain's (the embedding of a real batch is
    # such a leaf: the period fold and the two amplitude projections)
    rng = np.random.default_rng(23)
    leaf = Tensor(rng.normal(size=(4, 3, 2, 4)), requires_grad=True)
    params = init_fusion(4, np.random.default_rng(24))
    w_values = Tensor(rng.normal(size=(4, 2, 4)))

    def grad(fn):
        leaf.grad = None
        weights = ad.tsum(leaf, axis=(2, 3)) + ad.tmean(ad.tanh(leaf), axis=(2, 3))
        values = fn(CausalPyramid(leaf * 1.5, weights), params)[0]
        ad.tsum(ad.tanh(values) * w_values).backward()
        return leaf.grad

    fused = grad(lambda pyr, p: (fuse(pyr, p).values,))
    assert fused.tobytes() == grad(_chain_fuse).tobytes()
