"""Reverse-mode automatic differentiation on float64 numpy buffers.

Every operation allocates a fresh output buffer and, when an input
requires gradients, records its parents and a backward closure on the
output node, so a loss scalar can be differentiated with respect to any
participating tensor by a single reverse sweep over the dynamically
built graph. Inside `no_grad()` nothing is recorded, so intermediates
are freed as soon as the pass drops them; values and checks are the same.

Broadcasting is deliberately restricted: elementwise ops accept operands
of identical shape or a true scalar, and `affine` handles the bias-add
case. Any other shape expansion must go through the explicit
`broadcast_to` op, which keeps shape bugs loud.
"""
from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Array = np.ndarray


class _Mode(threading.local):
    recording = True  # per thread, so one thread's no_grad leaves others taping


_mode = _Mode()


class NumericOverflow(ArithmeticError):
    """Non-finite values appeared inside a computation."""


class Tensor:
    """Node of the recorded computation graph.

    `data` is always a contiguous float64 ndarray. `grad` is allocated
    lazily during the backward sweep and has the same shape as `data`;
    after the sweep only leaves (tensors with no backward closure) keep it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError("backward(): tensor records no graph (built under no_grad?)")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # copy: backward closures may hand out shared views
                    parent.grad = np.array(g)
                else:
                    parent.grad += g
            # every consumer of this node ran before it, so its gradient is
            # complete and spent; only leaves keep theirs
            node.grad = None

    # Operator sugar; scalars are promoted to constant tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without recording the graph; for passes nothing differentiates."""
    saved = _mode.recording
    _mode.recording = False
    try:
        yield
    finally:
        _mode.recording = saved


def _node(data: Array, parents: Sequence[Tensor], backward: Callable[[Array], tuple]) -> Tensor:
    out = Tensor(data)
    if _mode.recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(g: Array, shape: tuple[int, ...]) -> Array:
    # Undo scalar promotion: a scalar operand receives the summed gradient.
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "add")
    return _node(a.data + b.data, (a, b),
                 lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "sub")
    return _node(a.data - b.data, (a, b),
                 lambda g: (_reduce_to(g, a.shape), _reduce_to(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "mul")
    return _node(a.data * b.data, (a, b),
                 lambda g: (_reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "div")
    return _node(a.data / b.data, (a, b),
                 lambda g: (_reduce_to(g / b.data, a.shape),
                            _reduce_to(-g * a.data / (b.data * b.data), b.shape)))


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _node(out_data, (a,), lambda g: (g * out_data,))


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    return _node(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _node(out_data, (a,), lambda g: (g * 0.5 / out_data,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims disagree, {a.shape} vs {b.shape}")
    return _node(a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T, a.data.T @ g))


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul over the leading axis: (B,n,k) @ (B,k,m) -> (B,n,m)."""
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(f"bmm expects 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(f"bmm: incompatible shapes {a.shape} and {b.shape}")
    return _node(a.data @ b.data, (a, b),
                 lambda g: (g @ np.swapaxes(b.data, 1, 2), np.swapaxes(a.data, 1, 2) @ g))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(int(i) for i in np.argsort(axes))
    return _node(np.transpose(a.data, axes), (a,),
                 lambda g: (np.ascontiguousarray(np.transpose(g, inv)),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    src = a.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(src),))


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Explicit broadcast; gradient sums over the expanded axes."""
    src = a.shape
    try:
        out_data = np.broadcast_to(a.data, shape).copy()
    except ValueError as e:
        raise ValueError(f"broadcast_to: cannot expand {src} to {shape}") from e

    def backward(g: Array):
        extra = g.ndim - len(src)
        red = tuple(range(extra)) + tuple(
            i + extra for i, n in enumerate(src) if n == 1 and g.shape[i + extra] != 1
        )
        return (np.sum(g, axis=red).reshape(src),)

    return _node(out_data, (a,), backward)


def take(a: Tensor, rows, axis: int = 0) -> Tensor:
    """Entries of `a` at the given indices along `axis`, in that order; a
    repeated index receives the sum of its gradients."""
    rows = np.asarray(rows, dtype=np.intp)
    index = (slice(None),) * axis + (rows,)

    def backward(g: Array):
        out = np.zeros_like(a.data)
        if np.unique(rows).size == rows.size:
            out[index] = g
        else:  # np.add.at is several times slower, so only for repeats
            np.add.at(out, index, g)
        return (out,)

    return _node(a.data[index], (a,), backward)


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array):
        return tuple(
            np.ascontiguousarray(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis))
            for i in range(len(parts))
        )

    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, backward)


def _axis_tuple(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    src = a.shape

    def backward(g: Array):
        shape = list(src)
        for ax in axes:
            shape[ax] = 1
        return (np.broadcast_to(g.reshape(shape), src).copy(),)

    return _node(np.sum(a.data, axis=axes, keepdims=keepdims), (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    src = a.shape
    count = int(np.prod([src[ax] for ax in axes])) if src else 1

    def backward(g: Array):
        shape = list(src)
        for ax in axes:
            shape[ax] = 1
        return (np.broadcast_to(g.reshape(shape), src).copy() / count,)

    return _node(np.mean(a.data, axis=axes, keepdims=keepdims), (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, numerically stabilised."""
    shifted = a.data - np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=-1, keepdims=True)

    def backward(g: Array):
        dot = np.sum(g * out_data, axis=-1, keepdims=True)
        return (out_data * (g - dot),)

    return _node(out_data, (a,), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast along rows; x is 2-D (rows, features)."""
    if x.ndim != 2:
        raise ValueError(f"affine expects 2-D input, got {x.shape}")
    if b.ndim != 1 or b.shape[0] != w.shape[1]:
        raise ValueError(f"affine: bias shape {b.shape} does not match weight {w.shape}")
    return _node(x.data @ w.data + b.data, (x, w, b),
                 lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)))


def time_context(x: Tensor, radius: int, rows, cond: Tensor) -> Tensor:
    """Temporal context of a (B, T, C) tensor at the time indices `rows`.

    Output (B, len(rows), (2*radius+1)*C + H): per row t the steps
    x[:, t-radius ... t+radius, :], then the (B, H) `cond` of its window.
    Steps outside [0, T) and the steps in `rows` themselves read as zero,
    so a coupling net sees only the steps its layer keeps.
    """
    if x.ndim != 3:
        raise ValueError(f"time_context expects (B,T,C), got {x.shape}")
    b, t, c = x.shape
    if cond.ndim != 2 or cond.shape[0] != b:
        raise ValueError(f"time_context: cond {cond.shape} does not match x {x.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    m, span = rows.size, 2 * radius + 1
    width = span * c
    padded = np.zeros((b, t + 2 * radius, c))
    padded[:, radius:radius + t, :] = x.data
    padded[:, rows + radius, :] = 0.0
    out_data = np.empty((b, m, width + cond.shape[1]))
    out_data[:, :, :width] = padded[:, rows[:, None] + np.arange(span)].reshape(b, m, width)
    out_data[:, :, width:] = cond.data[:, None, :]

    def backward(g: Array):
        acc = np.zeros((b, t + 2 * radius, c))
        for j in range(span):
            acc[:, rows + j, :] += g[:, :, j * c:(j + 1) * c]
        gx = acc[:, radius:radius + t, :]
        gx[:, rows, :] = 0.0
        return np.ascontiguousarray(gx), g[:, :, width:].sum(axis=1)

    return _node(out_data, (x, cond), backward)
