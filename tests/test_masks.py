"""Periodic checkerboard mask law (`flow.mask_law`)."""
import numpy as np
import pytest

from periflow.flow import _moved_rows, forward, init_flow, mask_law
from periflow.training import TrainConfig, build_models, load_checkpoint, save_checkpoint


def test_basic_pattern():
    p, pattern = mask_law(2, 8)
    np.testing.assert_array_equal(pattern, [0, 0, 1, 1, 0, 0, 1, 1])
    assert p == 2


def test_unit_period_pattern():
    p, pattern = mask_law(1, 4)
    np.testing.assert_array_equal(pattern, [0, 1, 0, 1])
    assert p == 1


def test_period_clamped_when_too_long():
    # a period of at least T is clamped to ceil(T/2), so both values occur
    for period, t, clamped in ((60, 60, 30), (61, 60, 30), (500, 60, 30), (9, 9, 5),
                               (9, 7, 4), (2, 2, 1)):
        p, pattern = mask_law(period, t)
        assert p == clamped
        np.testing.assert_array_equal(pattern, (np.arange(t) // clamped) % 2)
    p, pattern = mask_law(60, 60)
    np.testing.assert_array_equal(pattern[:30], 0)
    np.testing.assert_array_equal(pattern[30:], 1)


def test_one_step_window():
    # a one-step window reads the law's first entry at any period, so its
    # step moves in even layers and stays in odd ones
    for period in (1, 2, 3, 20):
        p, pattern = mask_law(period, 1)
        assert p == 1
        np.testing.assert_array_equal(pattern, [0])


def test_rejects_nonpositive_period(tmp_path):
    # the mask law takes the period it is given; a non-positive one can
    # only come in through a checkpoint's meta, which refuses it by name
    config = TrainConfig(window_length=10, hidden=8, n_factors=2, k_periods=2, num_blocks=1)
    bundle = build_models(config, 2, 3, np.random.default_rng(0))
    for period in (0, -2):
        bundle.global_period = period
        ckpt = tmp_path / f"period{period}.npz"
        save_checkpoint(ckpt, bundle)
        with pytest.raises(ValueError, match=f"meta 'global_period' is {period}, "
                                             "not a positive int"):
            load_checkpoint(ckpt)


def test_half_ones_when_length_divides():
    _, pattern = mask_law(5, 40)  # 40 = 4 * (2*5)
    assert pattern.mean() == 0.5


def test_rows_identical_across_dims():
    # the pattern has no channel axis: a coupling layer keeps every channel
    # of a kept timestep and moves every channel of the others
    rng = np.random.default_rng(3)
    model = init_flow(5, 6, 2, 4, 1, 1, rng, context_radius=4)
    for net in (model.layers[0].s_net, model.layers[0].t_net):
        w, b = net.layers[-1]
        w.data = rng.normal(0.0, 0.5, size=w.shape)
        b.data = rng.normal(0.0, 0.5, size=b.shape)
    x = rng.normal(size=(2, 16, 5))
    z, _, _ = forward(x, rng.normal(size=(2, 6)), model)
    kept = mask_law(4, 16)[1] == 1
    np.testing.assert_array_equal(z[:, kept], x[:, kept])
    assert np.all(z[:, ~kept] != x[:, ~kept])


def test_formula_exhaustive():
    # bit-exact law over all small (period, length) pairs, and the rows the
    # flow moves follow it
    model = init_flow(1, 2, 1, 1, 2, 1, np.random.default_rng(0), context_radius=0)
    for t in range(2, 40):
        for p in range(1, t):
            period, pattern = mask_law(p, t)
            expected = (np.arange(t) // p) % 2
            assert period == p
            np.testing.assert_array_equal(pattern, expected)
            model.mask_period = p
            for li, (rows, _) in enumerate(_moved_rows(model, t)):
                np.testing.assert_array_equal(rows, np.flatnonzero(expected == li))


def test_mask_is_deterministic_value_type():
    (pa, a), (pb, b) = mask_law(7, 30), mask_law(7, 30)
    np.testing.assert_array_equal(a, b)
    assert a.dtype.kind == "i" and a.shape == (30,)
    assert pa == pb == 7 and type(pa) is int
