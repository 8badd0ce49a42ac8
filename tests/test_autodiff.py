"""Gradient and semantics checks for the tape engine.

Every composite used downstream gets a central finite-difference oracle.
"""
import numpy as np
import pytest

from conftest import check_gradients
from periflow import autodiff as ad
from periflow.autodiff import Tensor


def _param(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_tanh_derivative_at_zero():
    x = Tensor(np.zeros(1), requires_grad=True)
    y = ad.tsum(ad.tanh(x))
    y.backward()
    np.testing.assert_allclose(x.grad, [1.0])


def test_shape_mismatch_reports_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
        ad.add(a, b)
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_ops_do_not_mutate_inputs():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    keep_a, keep_b = a.data.copy(), b.data.copy()
    ad.add(a, b), ad.mul(a, b), ad.tanh(a), ad.exp(b)
    ad.softmax(a), ad.reshape(a, (4, 3)), ad.concat([a, b], axis=0)
    np.testing.assert_array_equal(a.data, keep_a)
    np.testing.assert_array_equal(b.data, keep_b)


def test_deterministic_replay():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(3, 3))

    def run():
        xt = Tensor(x)
        wt = Tensor(w, requires_grad=True)
        y = ad.tanh(ad.matmul(xt, wt))
        loss = ad.tsum(y * y)
        loss.backward()
        return loss.data.copy(), wt.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(g1, g2)


def test_gradients_composite_graph():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 3)))
    w1 = _param(rng, 3, 5)
    b1 = _param(rng, 5)
    w2 = _param(rng, 5, 2)

    def loss():
        h = ad.tanh(ad.affine(x, w1, b1))
        y = ad.matmul(h, w2)
        m = ad.broadcast_to(ad.tmean(y, axis=1, keepdims=True), y.shape)
        return ad.tsum(ad.softmax(y) * ad.exp(m))

    check_gradients(loss, [w1, b1, w2])


def test_gradients_reductions_and_broadcast():
    rng = np.random.default_rng(8)
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 2, 1, 4)

    def loss():
        wide = ad.broadcast_to(b, (2, 3, 4))
        s = ad.tsum(a * wide, axis=(1, 2))
        m = ad.tmean(a, axis=0)
        return ad.tsum(s * s) + ad.tsum(ad.sqrt(ad.exp(m)))

    check_gradients(loss, [a, b])


def test_gradients_bmm_transpose_concat():
    rng = np.random.default_rng(9)
    a = _param(rng, 3, 2, 4)
    b = _param(rng, 3, 4, 2)

    def loss():
        prod = ad.bmm(a, b)
        back = ad.bmm(b, ad.transpose(prod, (0, 2, 1)))
        j = ad.concat([ad.reshape(prod, (3, 4)), ad.reshape(back, (3, 8))], axis=1)
        return ad.tsum(ad.tanh(j))

    check_gradients(loss, [a, b])


def test_gradients_div_mul():
    rng = np.random.default_rng(10)
    a = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)

    def loss():
        d = a - b
        return ad.tsum(a / b + d * d * d)

    check_gradients(loss, [a, b])


@pytest.mark.parametrize("radius", [0, 1, 3])
def test_time_context_semantics(radius):
    b, t, c, hdim = 2, 6, 2, 3
    rng = np.random.default_rng(11)
    x = rng.normal(size=(b, t, c))
    cond = rng.normal(size=(b, hdim))
    rows = np.array([4, 0, 1])
    out = ad.time_context(Tensor(x), radius, rows, Tensor(cond)).data
    width = (2 * radius + 1) * c
    assert out.shape == (b, rows.size, width + hdim)
    for i, ti in enumerate(rows):
        for j, shift in enumerate(range(-radius, radius + 1)):
            src = ti + shift
            block = out[:, i, j * c:(j + 1) * c]
            if 0 <= src < t and src not in rows:
                np.testing.assert_array_equal(block, x[:, src, :])
            else:  # padding and the rows themselves read as zero
                np.testing.assert_array_equal(block, 0.0)
        np.testing.assert_array_equal(out[:, i, width:], cond)


def test_time_context_gradient():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    cond = Tensor(rng.normal(size=(2, 4)))
    w = Tensor(rng.normal(size=(13, 2)), requires_grad=True)
    rows = [3, 1, 4]

    def loss():
        ctx = ad.time_context(x, 1, rows, cond)
        flat = ad.reshape(ctx, (6, 13))
        return ad.tsum(ad.tanh(ad.matmul(flat, w)))

    check_gradients(loss, [x, w])
    loss().backward()
    np.testing.assert_array_equal(x.grad[:, rows], 0.0)


def test_time_context_cond_columns():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 5, 3))
    cond = rng.normal(size=(2, 4))
    out = ad.time_context(Tensor(x), 1, [0, 2], Tensor(cond)).data
    np.testing.assert_array_equal(out[:, :, 9:], np.stack([cond, cond], axis=1))
    empty = ad.time_context(Tensor(x), 1, np.zeros(0, dtype=int), Tensor(cond))
    assert empty.shape == (2, 0, 13)
    for bad in (cond[:1], cond[:, None, :]):
        with pytest.raises(ValueError, match="does not match"):
            ad.time_context(Tensor(x), 1, [0, 2], Tensor(bad))


@pytest.mark.parametrize("radius", [0, 2])
def test_time_context_cond_gradient(radius):
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    hc = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    width = (2 * radius + 1) * 3 + 4
    w = Tensor(rng.normal(size=(width, 2)), requires_grad=True)

    def loss():
        flat = ad.reshape(ad.time_context(x, radius, [0, 2, 3], hc), (6, width))
        return ad.tsum(ad.tanh(ad.matmul(flat, w)))

    check_gradients(loss, [x, hc, w])


def _composite(a, b):
    h = ad.tanh(ad.affine(a, b, Tensor(np.zeros(b.shape[1]))))
    return ad.tsum(ad.softmax(h) * h, axis=1)


def test_no_grad_records_nothing():
    rng = np.random.default_rng(15)
    a, b = _param(rng, 4, 3), _param(rng, 3, 2)
    taped = _composite(a, b)
    assert taped.requires_grad and taped._parents and taped._backward is not None
    with ad.no_grad():
        plain = _composite(a, b)
        ctx = ad.time_context(ad.reshape(a, (1, 4, 3)), 1, [1, 2], ad.reshape(b, (1, 6)))
    for out in (plain, ctx):
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    np.testing.assert_array_equal(plain.data, taped.data)


def _records(a) -> bool:
    return (a * 2.0)._backward is not None


def test_no_grad_restores_after_nesting_and_errors():
    a = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            assert not _records(a)
        assert not _records(a)
    assert _records(a)
    with pytest.raises(ValueError):
        with ad.no_grad():
            ad.add(a, Tensor(np.ones(2)))  # shape check still raises
    assert _records(a)


def test_backward_without_graph_fails_fast():
    a = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        loss = ad.tsum(a * a)
    with pytest.raises(RuntimeError, match=r"^backward\(\): tensor records no graph"):
        loss.backward()
    ad.tsum(a * a).backward()
    np.testing.assert_array_equal(a.grad, 2.0 * np.ones(3))


def test_no_grad_is_per_thread():
    import threading
    a = Tensor(np.ones(3), requires_grad=True)
    seen = []
    with ad.no_grad():
        worker = threading.Thread(target=lambda: seen.append(_records(a)))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive() and seen == [True]


def test_take_gradient_with_repeated_rows():
    rng = np.random.default_rng(30)
    a = _param(rng, 4, 3)
    w = Tensor(rng.normal(size=(6, 3)))
    rows = [2, 0, 2, 3, 2, 1]
    np.testing.assert_array_equal(ad.take(a, rows).data, a.data[rows])
    check_gradients(lambda: ad.tsum(ad.tanh(ad.take(a, rows)) * w), [a])


def test_take_gradient_with_unique_rows_matches_add_at():
    rng = np.random.default_rng(31)
    a = _param(rng, 7, 3, 2)
    rows = [5, 0, 3, 6]
    g = rng.normal(size=(4, 3, 2))
    a.grad = None
    ad.tsum(ad.take(a, rows) * Tensor(g)).backward()
    expected = np.zeros_like(a.data)
    np.add.at(expected, rows, g)
    np.testing.assert_array_equal(a.grad, expected)


def test_take_along_axis():
    rng = np.random.default_rng(32)
    a = _param(rng, 2, 5, 3)
    w = Tensor(rng.normal(size=(2, 4, 3)))
    for rows in ([4, 0, 2, 1], [3, 1, 3, 3]):
        np.testing.assert_array_equal(ad.take(a, rows, axis=1).data, a.data[:, rows])
        check_gradients(lambda: ad.tsum(ad.tanh(ad.take(a, rows, axis=1)) * w), [a])
