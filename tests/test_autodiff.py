"""Gradient and semantics checks for the tape engine.

Every composite used downstream gets a central finite-difference oracle.
"""
import dataclasses

import numpy as np
import pytest

from conftest import check_gradients
from periflow import autodiff as ad
from periflow.autodiff import Tensor
from periflow.factors import CausalPyramid, bin_amplitudes
from periflow.flow import CouplingLayer, Mlp, init_flow, log_prob, mask_law
from periflow.fusion import FusionParams, fuse


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


def test_sqrt_gradient_at_zero_is_zero():
    x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
    ad.tsum(ad.sqrt(x)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.25])


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


def _gather_oracle(x, radius, rows, cond, g):
    # fancy-index gather and one scatter per context offset
    b, t, c = x.shape
    span = 2 * radius + 1
    width = span * c
    padded = np.zeros((b, t + 2 * radius, c))
    padded[:, radius:radius + t] = x
    padded[:, rows + radius] = 0.0
    out = np.concatenate(
        [padded[:, rows[:, None] + np.arange(span)].reshape(b, rows.size, width),
         np.broadcast_to(cond[:, None, :], (b, rows.size, cond.shape[1]))], axis=2)
    acc = np.zeros((b, t + 2 * radius, c))
    for j in range(span):
        acc[:, rows + j] += g[:, :, j * c:(j + 1) * c]
    gx = acc[:, radius:radius + t].copy()
    gx[:, rows] = 0.0
    return out, gx, g[:, :, width:].sum(axis=1)


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("t", [1, 2, 9, 60])
def test_time_context_matches_gather_oracle(b, t):
    rng = np.random.default_rng(15 + t + b)
    c, hdim = 3, 4
    picked = rng.choice(t, size=max(1, t // 2), replace=False)
    row_sets = [np.sort(picked), picked, rng.permutation(t), np.zeros(0, dtype=np.intp)]
    for radius in sorted({0, 1, t - 1, t + 2}):
        for rows in row_sets:
            x = Tensor(rng.normal(size=(b, t, c)), requires_grad=True)
            cond = Tensor(rng.normal(size=(b, hdim)), requires_grad=True)
            g = rng.normal(size=(b, rows.size, (2 * radius + 1) * c + hdim))
            ad.tsum(ad.time_context(x, radius, rows, cond) * Tensor(g)).backward()
            out, gx, gcond = _gather_oracle(x.data, radius, rows, cond.data, g)
            np.testing.assert_array_equal(ad.time_context(x, radius, rows, cond).data, out)
            np.testing.assert_array_equal(x.grad, gx)
            np.testing.assert_array_equal(cond.grad, gcond)


def _fancy_gather(x, radius, rows, cond):
    # the gather time_context made before it copied runs of rows: one
    # fancy index over the (B, T, span*C) window view
    b, t, c = x.shape
    span = 2 * radius + 1
    width = span * c
    padded = np.zeros((b, t + 2 * radius, c), dtype=x.dtype)
    padded[:, radius:radius + t, :] = x
    padded[:, rows + radius, :] = 0.0
    out = np.empty((b, rows.size, width + cond.shape[1]), dtype=x.dtype)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (span, c), axis=(1, 2))
    out[:, :, :width] = windows.reshape(b, t, width)[:, rows]
    out[:, :, width:] = cond[:, None, :]
    return out


def test_row_runs():
    assert ad.row_runs([4, 0, 1]) == ((0, 4, 1), (1, 0, 2))
    assert ad.row_runs(np.arange(20, 40)) == ((0, 20, 20),)
    assert ad.row_runs([3, 2]) == ((0, 3, 1), (1, 2, 1))
    assert ad.row_runs(np.zeros(0, dtype=np.intp)) == ()


# (mask period, T, radius, mask value moved): the c09 mask's two runs of
# 20 rows, alternating single rows, a one-step window, and the layer of a
# one-step window that moves no rows
@pytest.mark.parametrize("period, t, radius, value", [
    (20, 60, 20, 0.0), (1, 60, 1, 1.0), (3, 1, 3, 0.0), (3, 1, 3, 1.0)],
    ids=["c09_runs", "period_1", "one_step", "no_rows"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_time_context_run_copy_matches_fancy_gather(period, t, radius, value, dtype):
    rng = np.random.default_rng(period + t)
    rows = np.flatnonzero(mask_law(period, t)[1] == value)
    x = rng.normal(size=(5, t, 3)).astype(dtype)
    cond = rng.normal(size=(5, 4)).astype(dtype)
    expected = _fancy_gather(x, radius, rows, cond)
    for runs in (None, ad.row_runs(rows)):
        out = ad.time_context(Tensor(x), radius, rows, Tensor(cond), runs).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, expected)


def test_broadcast_to_is_a_read_only_view():
    rng = np.random.default_rng(16)
    a = _param(rng, 3, 1)
    wide = ad.broadcast_to(a, (2, 3, 4))
    assert np.shares_memory(wide.data, a.data)
    with pytest.raises(ValueError, match="read-only"):
        wide.data[0, 0, 0] = 1.0
    g = rng.normal(size=(2, 3, 4))
    ad.tsum(wide * Tensor(g)).backward()
    np.testing.assert_array_equal(a.grad, g.sum(axis=(0, 2)).reshape(3, 1))


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


def test_take_rejects_repeated_rows():
    a = Tensor(np.ones((4, 3)), requires_grad=True)
    for rows, axis in (([2, 0, 2, 3], 0), ([1, 1], 1)):
        with pytest.raises(ValueError, match=r"^take: index \d repeats; rows must be distinct$"):
            ad.take(a, rows, axis=axis)


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
    for rows in ([4, 0, 2, 1], [3, 1, 0, 4]):
        np.testing.assert_array_equal(ad.take(a, rows, axis=1).data, a.data[:, rows])
        check_gradients(lambda: ad.tsum(ad.tanh(ad.take(a, rows, axis=1)) * w), [a])


def _fuse(factors, weights, query_w, key_w):
    # projections centred on zero, so the attention softmax does not
    # saturate and central differences stay accurate (and read-only, like
    # the contract's own inputs)
    query_w, key_w = query_w - 1.25, key_w - 1.25
    for p in (query_w, key_w):
        p.data.flags.writeable = False
    return fuse(CausalPyramid(factors, weights), FusionParams(query_w, key_w)).values


# the windows and the model of the log_prob case: T=5, period 2 and two
# layers, which move steps 0, 1 and 4, then 2 and 3; radius 1 and H=2,
# so each net reads a width 3*2 + 2 = 8 context. The op takes the windows
# as a constant
_FLOW_X = np.random.default_rng(43).normal(size=(2, 5, 2))
_FLOW = init_flow(2, 2, 1, 2, 2, 1, np.random.default_rng(44), context_radius=1)


def _log_prob(hc, *params):
    # hc and the nets' weights centred on zero, so the tanh layers do not
    # saturate and central differences stay accurate (and read-only, like
    # the contract's own inputs)
    hc, *params = [p - 1.25 for p in (hc, *params)]
    for p in (hc, *params):
        p.data.flags.writeable = False
    layers = [CouplingLayer(Mlp([ps[0:2], ps[2:4]]), Mlp([ps[4:6], ps[6:8]]))
              for ps in (params[:8], params[8:])]
    model = dataclasses.replace(_FLOW, layers=layers)
    return log_prob(_FLOW_X.astype(hc.data.dtype), hc, model)


# the windows of the period_pool cases: the op takes them as a constant
_POOL_X = np.random.default_rng(41).normal(size=(2, 7, 2))


def _period_pool(periods):
    def op(embed_w, embed_b, grid_w, grid_b):
        # weights centred on zero, so the cell tanh does not saturate (and
        # read-only, like the contract's own inputs)
        params = [p - 1.25 for p in (embed_w, embed_b, grid_w, grid_b)]
        for p in params:
            p.data.flags.writeable = False
        x = _POOL_X[:len(periods)].astype(embed_w.data.dtype)
        return ad.period_pool(x, *params, periods)
    return op


# the input spectrum of the bin_amplitudes case: 2 windows of T=9 steps
# and D=3 channels at 2 picked bins each
_AMP_SPECTRUM = np.take_along_axis(
    np.fft.rfft(np.random.default_rng(42).normal(size=(2, 9, 3)), axis=1),
    np.array([[1, 4], [3, 1]])[:, :, None], axis=1)


def _bin_amplitudes(embed_w):
    return bin_amplitudes(_AMP_SPECTRUM, embed_w - 1.25, 9)


_LOG_PROB_SHAPES = [(2, 2)] + [(8, 2), (2,), (2, 2), (2,)] * 4


# The op contract: every op, scalar operator sugar included, keeps its
# inputs' dtype in its output and gradients, records nothing under
# no_grad, never writes into an input, and matches central differences.
# Each case is (input shapes, op); inputs are drawn from [0.5, 2] so that
# sqrt and div stay smooth.
OP_CASES = {
    "add": ([(3, 4), (3, 4)], ad.add),
    "sub": ([(3, 4), (3, 4)], ad.sub),
    "mul": ([(3, 4), (3, 4)], ad.mul),
    "div": ([(3, 4), (3, 4)], ad.div),
    "neg": ([(3, 4)], ad.neg),
    "exp": ([(3, 4)], ad.exp),
    "tanh": ([(3, 4)], ad.tanh),
    "sqrt": ([(3, 4)], ad.sqrt),
    "matmul": ([(3, 4), (4, 2)], ad.matmul),
    "bmm": ([(2, 3, 4), (2, 4, 2)], ad.bmm),
    "transpose": ([(2, 3, 4)], lambda a: ad.transpose(a, (2, 0, 1))),
    "reshape": ([(3, 4)], lambda a: ad.reshape(a, (2, 6))),
    "broadcast_to": ([(3, 1)], lambda a: ad.broadcast_to(a, (2, 3, 4))),
    "take": ([(5, 3)], lambda a: ad.take(a, [4, 0, 2])),
    "take_axis1": ([(2, 5, 3)], lambda a: ad.take(a, [4, 0, 2], axis=1)),
    "concat": ([(2, 3), (4, 3)], lambda a, b: ad.concat([a, b], axis=0)),
    "tsum": ([(2, 3, 4)], lambda a: ad.tsum(a, axis=(0, 2))),
    "tmean": ([(2, 3, 4)], lambda a: ad.tmean(a, axis=1, keepdims=True)),
    "softmax": ([(3, 4)], ad.softmax),
    "affine": ([(3, 4), (4, 2), (2,)], ad.affine),
    "affine_one_row": ([(1, 4), (4, 2), (2,)], ad.affine),
    "time_context": ([(2, 5, 3), (2, 4)],
                     lambda x, cond: ad.time_context(x, 1, [3, 0, 2], cond)),
    # T=7: period 2 pads a step, period 7 is one cycle (one row), and
    # windows 0 and 1 share period 2
    "period_pool": ([(2, 3), (3,), (9, 3), (3,)], _period_pool([[2, 7], [3, 2]])),
    "period_pool_one_window": ([(2, 3), (3,), (9, 3), (3,)], _period_pool([[7, 2, 3]])),
    "bin_amplitudes": ([(3, 4)], _bin_amplitudes),
    "fuse": ([(2, 3, 2, 4), (2, 3), (4, 4), (4, 4)], _fuse),
    "fuse_one_window": ([(1, 3, 2, 4), (1, 3), (4, 4), (4, 4)], _fuse),
    "coupling": (_LOG_PROB_SHAPES, _log_prob),
    "scalar_add": ([(3, 4)], lambda a: a + 2.0),
    "scalar_sub": ([(3, 4)], lambda a: a - np.float64(2.0)),
    "scalar_mul": ([(3, 4)], lambda a: a * (1.0 / np.sqrt(4))),  # a numpy float64
    "scalar_div": ([(3, 4)], lambda a: a / 3.0),
}


def _case_inputs(name: str, dtype) -> list[Tensor]:
    rng = np.random.default_rng(40)
    return [Tensor(rng.uniform(0.5, 2.0, size=shape).astype(dtype), requires_grad=True)
            for shape in OP_CASES[name][0]]


def _case_weight(op, inputs, seed: int, dtype) -> np.ndarray:
    weight = np.random.default_rng(seed).normal(size=op(*inputs).shape).astype(dtype)
    weight.flags.writeable = False
    return weight


def _case_loss(op, inputs, weight) -> Tensor:
    return ad.tsum(op(*inputs) * Tensor(weight))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_keeps_dtype_and_leaves_inputs_unwritten(name, dtype):
    op = OP_CASES[name][1]
    inputs = _case_inputs(name, dtype)
    kept = [x.data.copy() for x in inputs]
    for x in inputs:
        x.data.flags.writeable = False  # a write into an input raises
    assert op(*inputs).data.dtype == dtype
    _case_loss(op, inputs, _case_weight(op, inputs, 1, dtype)).backward()
    for x, before in zip(inputs, kept):
        assert x.grad.dtype == dtype and x.grad.shape == x.shape
        np.testing.assert_array_equal(x.data, before)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_records_nothing_under_no_grad(name):
    inputs = _case_inputs(name, np.float64)
    with ad.no_grad():
        out = OP_CASES[name][1](*inputs)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_central_differences(name):
    op = OP_CASES[name][1]
    inputs = _case_inputs(name, np.float64)
    weight = _case_weight(op, inputs, 2, np.float64)
    check_gradients(lambda: _case_loss(op, inputs, weight), inputs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, axis", [
    ((5, 3, 4, 32), 2), ((5, 3, 4, 32), (2,)), ((7, 3, 3), 1), ((7, 3), (1,)),
    ((32, 3, 20, 32), 1), ((32, 3, 20, 32), 2), ((32, 60, 32), 1),
    ((32, 31, 32), 2), ((4, 1, 6), 1), ((2, 3, 4), (0, 2)), ((9,), (0,))])
def test_array_mean_is_np_mean_bitwise(shape, axis, dtype):
    x = np.random.default_rng(35).normal(size=shape).astype(dtype)
    for keepdims in (False, True):
        out = ad.array_mean(x, axis, keepdims)
        expected = np.mean(x, axis=axis, keepdims=keepdims)
        assert np.asarray(out).dtype == dtype
        assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_row_is_the_same_at_any_row_count(dtype):
    # the coupling nets' products (K x N = 155 x 32, 32 x 32 and 32 x 3 at
    # D=3, H=32, radius 20) and a wider one: 1, 30, 35 or 40 rows at an
    # offset off the tile grid are bitwise those rows of a 10,240-row product
    rng = np.random.default_rng(33)
    for k, n in ((155, 32), (32, 32), (32, 3), (128, 32)):
        x = rng.normal(size=(10240, k)).astype(dtype)
        w = rng.normal(size=(k, n)).astype(dtype)
        b = rng.normal(size=n).astype(dtype)
        whole = ad.dense(x, w, b)
        for lo, rows in ((3, 1), (1001, 30), (5005, 35), (10199, 40)):
            np.testing.assert_array_equal(ad.dense(x[lo:lo + rows], w, b),
                                          whole[lo:lo + rows],
                                          err_msg=f"{k} x {n}, rows {lo}:{lo + rows}")
