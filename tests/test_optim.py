"""Adam optimizer contract tests."""
import numpy as np
import pytest

from periflow.autodiff import Tensor
from periflow.optim import ParamStore


def _store_with(value):
    return ParamStore({"w": Tensor(np.array(value), requires_grad=True)})


def test_zero_gradient_leaves_parameters_unchanged():
    store = _store_with([1.0, -2.0])
    store.params["w"].grad = np.zeros(2)
    store.adam_step(lr=0.1)
    np.testing.assert_array_equal(store.params["w"].data, [1.0, -2.0])
    assert store.step_count == 1


def test_first_step_matches_closed_form():
    # With constant gradient g: m_hat = g, v_hat = g^2, delta = -lr*g/(|g|+eps).
    g = 0.37
    lr = 0.001
    store = _store_with([0.5])
    store.params["w"].grad = np.array([g])
    store.adam_step(lr=lr)
    expected = 0.5 - lr * g / (np.sqrt(g * g) + 1e-8)
    np.testing.assert_allclose(store.params["w"].data, [expected], rtol=0, atol=1e-15)


def test_missing_gradient_raises():
    store = _store_with([1.0])
    with pytest.raises(ValueError, match="missing gradients"):
        store.adam_step(lr=0.1)


def test_gradients_cleared_after_step():
    store = _store_with([1.0])
    store.params["w"].grad = np.array([1.0])
    store.adam_step(lr=0.1)
    assert store.params["w"].grad is None


def test_seeded_runs_are_bitwise_identical():
    def run():
        rng = np.random.default_rng(42)
        store = _store_with(rng.normal(size=4))
        for _ in range(10):
            store.params["w"].grad = rng.normal(size=4)
            store.adam_step(lr=0.01)
        return store.params["w"].data.copy()

    np.testing.assert_array_equal(run(), run())


def test_snapshot_restore_roundtrip():
    store = _store_with([1.0, 2.0])
    snap = store.snapshot()
    store.params["w"].grad = np.ones(2)
    store.adam_step(lr=0.5)
    assert not np.array_equal(store.params["w"].data, snap["w"])
    store.restore(snap)
    np.testing.assert_array_equal(store.params["w"].data, [1.0, 2.0])
