"""Shared test helpers: finite-difference gradient oracle and the coupling
context as one autodiff node."""
from __future__ import annotations

import shutil
import tempfile

import numpy as np

from periflow import autodiff as ad
from periflow import flow
from periflow.autodiff import Tensor


def pytest_configure(config):
    # Hypothesis's pytest plugin caches what it reads of the source during
    # collection in `.hypothesis/` under the working directory; give it a
    # home that is removed when the run ends
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    home = tempfile.mkdtemp(prefix="periflow-hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


def numeric_gradient(f, tensor: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar-valued f() w.r.t. one tensor.

    f must re-evaluate the full computation from the tensor's current
    .data each call; the tensor is restored afterwards.
    """
    base = tensor.data.copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        tensor.data = flat.reshape(base.shape)
        hi = float(f())
        flat[i] = orig - eps
        tensor.data = flat.reshape(base.shape)
        lo = float(f())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    tensor.data = base
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-5) -> float:
    """Worst elementwise relative error with an absolute floor.

    The floor keeps central-difference rounding noise (~1e-10 for unit-scale
    losses at eps=1e-6) from dominating entries whose true gradient is zero;
    below the floor the comparison degrades to an absolute tolerance of
    floor * tol, which is far above the fd noise.
    """
    num = np.abs(analytic - numeric)
    den = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(num / den))


def check_gradients(build_loss, tensors, eps: float = 1e-6, tol: float = 1e-4) -> float:
    """Compare analytic and finite-difference gradients for each tensor.

    build_loss() must construct the loss graph fresh and return the scalar
    Tensor. Returns the worst relative error observed.
    """
    worst = 0.0
    loss = build_loss()
    for t in tensors:
        t.grad = None
    loss.backward()
    analytic = {id(t): (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for t in tensors}
    for t in tensors:
        fd = numeric_gradient(lambda: build_loss().data, t, eps=eps)
        err = relative_error(analytic[id(t)], fd)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch {err:.3e} for tensor shape {t.shape}"
    return worst


def time_context(x: Tensor, radius: int, rows, cond: Tensor) -> Tensor:
    """The coupling context of the (B, T, C) tensor x at the time indices
    `rows` as one node, from the flow's kernels: `flow._contexts` builds
    it and `flow.context_grads` is its backward. Output (B, len(rows),
    (2*radius+1)*C + H); the generic chains of the tests build their
    coupling layers on it."""
    rows = np.asarray(rows, dtype=np.intp)
    b, t, c = x.shape
    width = (2 * radius + 1) * c + cond.shape[1]
    buf = np.empty(min(b, flow._CONTEXT_BLOCK) * rows.size * width, dtype=x.data.dtype)
    blocks = flow._contexts(x.data, cond.data, radius, rows, flow.row_runs(rows), buf)
    out = np.concatenate([ctx.copy() for _, ctx in blocks])
    return ad.node(out, (x, cond), lambda g: flow.context_grads(g, t, c, radius, rows))
