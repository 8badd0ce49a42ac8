"""Periodic checkerboard mask laws."""
import numpy as np
import pytest

from periflow.flow import forward, init_flow
from periflow.masks import MaskError, build_mask


def test_basic_pattern():
    m = build_mask(2, 8)
    np.testing.assert_array_equal(m.time_pattern, [0, 0, 1, 1, 0, 0, 1, 1])


def test_unit_period_pattern():
    m = build_mask(1, 4)
    np.testing.assert_array_equal(m.time_pattern, [0, 1, 0, 1])
    assert m.period == 1


def test_period_clamped_when_too_long():
    m = build_mask(60, 60)
    assert m.period == 30
    np.testing.assert_array_equal(m.time_pattern[:30], 0)
    np.testing.assert_array_equal(m.time_pattern[30:], 1)


def test_rejects_nonpositive_period():
    with pytest.raises(MaskError):
        build_mask(0, 10)
    with pytest.raises(MaskError):
        build_mask(3, 1)


def test_half_ones_when_length_divides():
    m = build_mask(5, 40)  # 40 = 4 * (2*5)
    assert m.time_pattern.mean() == 0.5


def test_rows_identical_across_dims():
    # the pattern has no channel axis: a coupling layer keeps every channel
    # of a kept timestep and moves every channel of the others
    rng = np.random.default_rng(3)
    model = init_flow(5, 6, 2, 4, 16, 1, 1, rng)
    for net in (model.layers[0].s_net, model.layers[0].t_net):
        w, b = net.layers[-1]
        w.data = rng.normal(0.0, 0.5, size=w.shape)
        b.data = rng.normal(0.0, 0.5, size=b.shape)
    x = rng.normal(size=(2, 16, 5))
    z, _, _ = forward(x, rng.normal(size=(2, 6)), model)
    kept = build_mask(4, 16).time_pattern == 1.0
    np.testing.assert_array_equal(z[:, kept], x[:, kept])
    assert np.all(z[:, ~kept] != x[:, ~kept])


def test_formula_exhaustive():
    # bit-exact law over all small (period, length) pairs
    for t in range(2, 40):
        for p in range(1, t):
            m = build_mask(p, t)
            expected = (np.arange(t) // p) % 2
            np.testing.assert_array_equal(m.time_pattern, expected)


def test_mask_is_deterministic_value_type():
    a, b = build_mask(7, 30), build_mask(7, 30)
    np.testing.assert_array_equal(a.time_pattern, b.time_pattern)
    assert a.time_pattern.dtype == np.float64 and a.time_pattern.shape == (30,)
    assert a.period == b.period
