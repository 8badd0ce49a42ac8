"""Named parameter store with a bias-corrected Adam update."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class ParamStore:
    """Flat registry of named parameter tensors plus Adam moment buffers."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name: {name}")
        if not tensor.requires_grad:
            raise ValueError(f"parameter {name} must require gradients")
        self.params[name] = tensor
        self.m[name] = np.zeros_like(tensor.data)
        self.v[name] = np.zeros_like(tensor.data)
        return tensor

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def adam_step(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> None:
        """One bias-corrected Adam update; clears gradients afterwards."""
        missing = [n for n, p in self.params.items() if p.grad is None]
        if missing:
            raise ValueError(f"adam_step: missing gradients for {missing}")
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            self.m[name] = beta1 * self.m[name] + (1.0 - beta1) * g
            self.v[name] = beta2 * self.v[name] + (1.0 - beta2) * g * g
            m_hat = self.m[name] / (1.0 - beta1 ** t)
            v_hat = self.v[name] / (1.0 - beta2 ** t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        self.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: p.data.copy() for n, p in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, arr in snap.items():
            if self.params[name].data.shape != arr.shape:
                raise ValueError(f"snapshot shape mismatch for {name}")
            self.params[name].data = arr.copy()
