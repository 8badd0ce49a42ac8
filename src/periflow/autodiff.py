"""Reverse-mode automatic differentiation on float32 or float64 numpy buffers.

Every operation returns a new tensor and, when an input requires
gradients, records its parents and a backward closure on the output
node, so a loss scalar can be differentiated with respect to any
participating tensor by a single reverse sweep over the dynamically
built graph. Inside `no_grad()` nothing is recorded, so intermediates
are freed as soon as the pass drops them; values and checks are the same.

Broadcasting is deliberately restricted: elementwise ops accept operands
of identical shape or a true scalar, and `affine` handles the bias-add
case. Any other shape expansion must go through the explicit
`broadcast_to` op, which keeps shape bugs loud.

Every op makes its one output with `node`, as do the model modules'
fused nodes, whose backward passes are hand-written. The generic ops the
program does not call (`exp`, `tanh`, `matmul`, `broadcast_to`, `concat`,
`softmax`) build the generic chains the tests hold those nodes to.
`dense` computes every product whose rows are windows or (window, slot)
pairs in fixed tiles, so a window scores bitwise alike alone and in a batch;
`array_mean`, `array_softmax` and `softmax_grad` are array helpers the
fused nodes share.

`reshape`, `transpose` and `broadcast_to` may return views of their
input's buffer (`broadcast_to`'s is numpy's read-only broadcast view, which
copies nothing); every other op writes only into buffers it allocates,
never into an input's `data`.

Every op computes in its inputs' dtype: float32 in gives float32 out, and
a Python or numpy scalar in operator sugar takes the tensor's dtype.
Training runs in float64; `periflow score` runs a float32 copy of the
model.
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


_FLOATS = frozenset((np.dtype(np.float32), np.dtype(np.float64)))


class Tensor:
    """Node of the recorded computation graph.

    `data` is a float32 or float64 ndarray (anything else is cast to
    float64), contiguous except for the views that `transpose` and
    `broadcast_to` (read-only) return. `grad` has the same shape as `data`
    and is set during the backward sweep; it may be a view that other
    tensors share, so it is read, never written in place. After the sweep
    only leaves (tensors with no backward closure) keep it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype not in _FLOATS:
            data = data.astype(np.float64)
        self.data = data
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
                # g may be a view shared with other tensors: never add into it
                parent.grad = g if parent.grad is None else parent.grad + g
            # every consumer of this node ran before it, so its gradient is
            # complete and spent; only leaves keep theirs
            node.grad = None

    # Operator sugar; scalars are promoted to constant tensors.
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __truediv__(self, other):
        return div(self, _wrap(other, self))

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(x, like: Tensor) -> Tensor:
    # in `like`'s dtype: a 0-d float64 array would turn float32 into float64
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without recording the graph; for passes nothing differentiates."""
    saved = _mode.recording
    _mode.recording = False
    try:
        yield
    finally:
        _mode.recording = saved


def records(parents: Iterable[Tensor]) -> bool:
    """Whether an op on these inputs records a node: outside no_grad, and
    when one of them requires gradients."""
    return _mode.recording and any(p.requires_grad for p in parents)


def node(data: Array, parents: Sequence[Tensor], backward: Callable[[Array], tuple]) -> Tensor:
    """The output tensor of one op; while recording (`records`) it holds the
    op's parents and `backward`, which takes the output's gradient and
    returns one per parent."""
    out = Tensor(data)
    if records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def array_mean(a: Array, axis, keepdims: bool = False):
    """np.mean(a, axis, keepdims=keepdims) bitwise, without its wrapper
    layers; `axis` is an int or a tuple of ints. Like np.mean it divides by
    a numpy intp, so a float32 sum is divided in float64 and rounded back
    (a Python int divisor would divide in float32)."""
    s = np.add.reduce(a, axis=axis, keepdims=keepdims)
    count = 1
    for ax in (axis,) if isinstance(axis, int) else axis:
        count *= a.shape[ax]
    if isinstance(s, np.ndarray):
        return np.true_divide(s, np.intp(count), out=s, casting="unsafe")
    return s.dtype.type(s / np.intp(count))


# rows per tile of `dense`. OpenBLAS sums a row in an order set by the row count;
# 8 fixes it on SkylakeX, Haswell and Sandybridge, 16 or one padded product did not
_TILE = 8


def dense(x: Array, w: Array, b: Array | None = None) -> Array:
    """x @ w + b (or x @ w) for 2-D x, as stacked _TILE-row products of x
    zero-padded to whole tiles, so a row is bitwise alike at any row count."""
    m, k = x.shape
    if m % _TILE:
        x = np.concatenate([x, np.zeros((-m % _TILE, k), dtype=x.dtype)])
    out = (x.reshape(-1, _TILE, k) @ w).reshape(-1, w.shape[1])[:m]
    if b is not None:
        out += b
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
    return node(a.data + b.data, (a, b),
                lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "sub")
    return node(a.data - b.data, (a, b),
                lambda g: (_reduce_to(g, a.shape), _reduce_to(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "mul")
    return node(a.data * b.data, (a, b),
                lambda g: (_reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "div")
    return node(a.data / b.data, (a, b),
                lambda g: (_reduce_to(g / b.data, a.shape),
                           _reduce_to(-g * a.data / (b.data * b.data), b.shape)))


def neg(a: Tensor) -> Tensor:
    return node(-a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return node(out_data, (a,), lambda g: (g * out_data,))


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    return node(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


def sqrt(a: Tensor) -> Tensor:
    """Square root; where the output is 0 the gradient reads 0, not inf,
    so the amplitude of an all-zero window passes no gradient."""
    out_data = np.sqrt(a.data)
    return node(out_data, (a,), lambda g: (np.divide(
        g * 0.5, out_data, out=np.zeros_like(out_data), where=out_data != 0.0),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims disagree, {a.shape} vs {b.shape}")
    return node(dense(a.data, b.data), (a, b),
                lambda g: (g @ b.data.T, a.data.T @ g))


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul over the leading axis: (B,n,k) @ (B,k,m) -> (B,n,m)."""
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(f"bmm expects 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(f"bmm: incompatible shapes {a.shape} and {b.shape}")
    return node(a.data @ b.data, (a, b),
                lambda g: (g @ np.swapaxes(b.data, 1, 2), np.swapaxes(a.data, 1, 2) @ g))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(int(i) for i in np.argsort(axes))
    return node(np.transpose(a.data, axes), (a,),
                lambda g: (np.ascontiguousarray(np.transpose(g, inv)),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    src = a.shape
    return node(a.data.reshape(shape), (a,), lambda g: (g.reshape(src),))


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Explicit broadcast as a read-only view; gradient sums over the
    expanded axes."""
    src = a.shape
    try:
        out_data = np.broadcast_to(a.data, shape)
    except ValueError as e:
        raise ValueError(f"broadcast_to: cannot expand {src} to {shape}") from e

    def backward(g: Array):
        extra = g.ndim - len(src)
        red = tuple(range(extra)) + tuple(
            i + extra for i, n in enumerate(src) if n == 1 and g.shape[i + extra] != 1
        )
        return (np.sum(g, axis=red).reshape(src),)

    return node(out_data, (a,), backward)


def take(a: Tensor, rows, axis: int = 0) -> Tensor:
    """Entries of `a` at the given distinct indices along `axis`, in that
    order."""
    rows = np.asarray(rows, dtype=np.intp)
    if len(set(rows.tolist())) != rows.size:
        values, counts = np.unique(rows, return_counts=True)
        raise ValueError(f"take: index {values[counts > 1][0]} repeats; rows must be distinct")
    index = (slice(None),) * axis + (rows,)

    def backward(g: Array):
        out = np.zeros_like(a.data)
        out[index] = g
        return (out,)

    return node(a.data[index], (a,), backward)


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array):
        return tuple(
            np.ascontiguousarray(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis))
            for i in range(len(parts))
        )

    return node(np.concatenate([p.data for p in parts], axis=axis), parts, backward)


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
        return (np.broadcast_to(g.reshape(shape), src),)

    return node(np.sum(a.data, axis=axes, keepdims=keepdims), (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    src = a.shape
    count = int(np.prod([src[ax] for ax in axes])) if src else 1

    def backward(g: Array):
        shape = list(src)
        for ax in axes:
            shape[ax] = 1
        return (np.broadcast_to(g.reshape(shape) / count, src),)

    return node(array_mean(a.data, axes, keepdims), (a,), backward)


def array_softmax(x: Array) -> Array:
    """Softmax of an array over its last axis, numerically stabilised."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_grad(g: Array, out: Array) -> Array:
    """Gradient at the input of a softmax whose output is `out`."""
    return out * (g - np.sum(g * out, axis=-1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, numerically stabilised."""
    out_data = array_softmax(a.data)
    return node(out_data, (a,), lambda g: (softmax_grad(g, out_data),))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast along rows; x is 2-D (rows, features).
    Each output row is bitwise the same whatever the row count (`dense`'s tiles)."""
    if x.ndim != 2:
        raise ValueError(f"affine expects 2-D input, got {x.shape}")
    if b.ndim != 1 or b.shape[0] != w.shape[1]:
        raise ValueError(f"affine: bias shape {b.shape} does not match weight {w.shape}")
    return node(dense(x.data, w.data, b.data), (x, w, b),
                lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)))
