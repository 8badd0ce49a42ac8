"""Consistency loss and orthogonality loss."""
import numpy as np
import pytest

from periflow.causal import independence_loss, similarity_loss


def test_similarity_identical_is_zero():
    rng = np.random.default_rng(0)
    c = rng.normal(size=(3, 5))[None]
    assert abs(similarity_loss(c, c).item()) < 1e-12


def test_similarity_antipodal_is_two():
    rng = np.random.default_rng(1)
    c = rng.normal(size=(3, 5))[None]
    np.testing.assert_allclose(similarity_loss(c, -c).item(), 2.0, atol=1e-12)


def test_similarity_scale_invariant():
    rng = np.random.default_rng(2)
    c = rng.normal(size=(3, 5))[None]
    assert abs(similarity_loss(c, 3.0 * c).item()) < 1e-12
    assert abs(similarity_loss(0.2 * c, c).item()) < 1e-12


def test_similarity_rejects_zero_norm():
    with pytest.raises(ValueError, match="norm"):
        similarity_loss(np.zeros((1, 2, 2)), np.ones((1, 2, 2)))


def test_independence_orthonormal_rows():
    c = np.eye(4)[:2]  # two orthonormal rows in R^4
    assert independence_loss(c[None]).item() == 0.0


def test_independence_equal_rows():
    u = np.zeros(4)
    u[0] = 1.0
    c = np.stack([u, u])
    # Gram = [[1,1],[1,1]], loss = ||G - I||_F^2 = 2
    np.testing.assert_allclose(independence_loss(c[None]).item(), 2.0)


def test_independence_scaled_rows():
    c = 2.0 * np.eye(4)[:2]
    # Gram = 4I, loss = ||3I||_F^2 = 18
    np.testing.assert_allclose(independence_loss(c[None]).item(), 18.0)


@pytest.mark.parametrize("call", [
    lambda: similarity_loss(np.ones((2, 3)), np.ones((2, 3))),
    lambda: independence_loss(np.ones((2, 3)))])
def test_losses_reject_unbatched_input(call):
    with pytest.raises(ValueError, match=r"\(B, N, D_h\)"):
        call()
