"""Consistency loss and orthogonality loss."""
import numpy as np
import pytest

from periflow.autodiff import Tensor
from periflow.causal import independence_loss, similarity_loss


def test_similarity_identical_is_zero():
    rng = np.random.default_rng(0)
    c = rng.normal(size=(3, 5))[None]
    assert abs(similarity_loss(Tensor(c), Tensor(c)).item()) < 1e-12


def test_similarity_antipodal_is_two():
    rng = np.random.default_rng(1)
    c = rng.normal(size=(3, 5))[None]
    np.testing.assert_allclose(similarity_loss(Tensor(c), Tensor(-c)).item(), 2.0, atol=1e-12)


def test_similarity_scale_invariant():
    rng = np.random.default_rng(2)
    c = rng.normal(size=(3, 5))[None]
    assert abs(similarity_loss(Tensor(c), Tensor(3.0 * c)).item()) < 1e-12
    assert abs(similarity_loss(Tensor(0.2 * c), Tensor(c)).item()) < 1e-12


def test_similarity_leaves_out_zero_norm_windows():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    a.data[1] = 0.0
    loss = similarity_loss(a, b)
    kept = [0, 2]
    assert loss.item() == similarity_loss(Tensor(a.data[kept]), Tensor(b.data[kept])).item()
    loss.backward()
    assert np.all(np.isfinite(a.grad)) and np.all(np.isfinite(b.grad))
    np.testing.assert_array_equal(a.grad[1], 0.0)
    np.testing.assert_array_equal(b.grad[1], 0.0)
    assert similarity_loss(Tensor(np.zeros((2, 2, 2))), Tensor(np.ones((2, 2, 2)))).item() == 0.0


def test_independence_orthonormal_rows():
    c = np.eye(4)[:2]  # two orthonormal rows in R^4
    assert independence_loss(Tensor(c[None])).item() == 0.0


def test_independence_equal_rows():
    u = np.zeros(4)
    u[0] = 1.0
    c = np.stack([u, u])
    # Gram = [[1,1],[1,1]], loss = ||G - I||_F^2 = 2
    np.testing.assert_allclose(independence_loss(Tensor(c[None])).item(), 2.0)


def test_independence_scaled_rows():
    c = 2.0 * np.eye(4)[:2]
    # Gram = 4I, loss = ||3I||_F^2 = 18
    np.testing.assert_allclose(independence_loss(Tensor(c[None])).item(), 18.0)


@pytest.mark.parametrize("call", [
    lambda: similarity_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))),
    lambda: independence_loss(Tensor(np.ones((2, 3))))])
def test_losses_reject_unbatched_input(call):
    with pytest.raises(ValueError, match=r"\(B, N, D_h\)"):
        call()
