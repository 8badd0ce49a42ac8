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

Fused nodes serve the model's hot paths with hand-written backward
passes; each keeps what its backward needs only while recording:
- `time_context` builds a coupling net's temporal context, the reference
  for `flow._couple` (one layer of `log_prob`), which builds it a block
  of windows at a time with `fill_context` (the same copy into a given
  array, with no node) and, above the lowest layer, scatters its gradient
  with `context_grads`, as `time_context` does;
- `period_pool` embeds, folds, transforms and pools the period grids of
  the factor miner, taking every mean of the input channels;
- `factors.bin_amplitudes` is the miner's amplitude weights, from the
  input's spectrum at the picked bins;
- `fusion.fuse` is the attention fusion, with one output (the fused
  values; the attention scores and the amplitude softmax are plain
  arrays beside it);
- `flow.log_prob` is the flow's log-density: every coupling layer
  (context, nets, soft clamp, affine coupling, merge and log-det) and the
  standard-normal base, with the windows a constant.
The last two run the numpy operations of the generic ops they replace, in
the same order, so their values and gradients are bitwise those of the
generic chain. Every op makes its one output with `node`. Every product
whose rows are windows or (window, slot) pairs is `dense`'s fixed tiles,
so a window scores bitwise alike alone and in a batch.

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


def row_runs(rows) -> tuple[tuple[int, int, int], ...]:
    """The runs of consecutive indices in `rows`: (position, first index,
    length) with rows[position:position + length] == first + 0, 1, ..."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        return ()
    edges = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), rows.size]
    return tuple((lo, int(rows[lo]), hi - lo) for lo, hi in zip(edges[:-1], edges[1:]))


def fill_context(out: Array, x: Array, radius: int, rows, cond: Array, runs) -> Array:
    """Write into `out` the temporal context of the (B, T, C) array `x` at
    the time indices `rows`, as `time_context` defines it, and return
    `out`; `cond` is (B, H) and `runs` is `row_runs(rows)`."""
    b, t, c = x.shape
    width = (2 * radius + 1) * c
    padded = np.zeros((b, t + 2 * radius, c), dtype=x.dtype)
    padded[:, radius:radius + t, :] = x
    padded[:, rows + radius, :] = 0.0
    # row t's context is the contiguous span*C values from padded[:, t], so
    # a strided view reads every row's context and a run of consecutive
    # rows is one basic slice of it, copied with no temporary
    windows = np.lib.stride_tricks.as_strided(
        padded, (b, t, width), padded.strides, writeable=False)
    for at, first, n in runs:
        out[:, at:at + n, :width] = windows[:, first:first + n]
    out[:, :, width:] = cond[:, None, :]
    return out


def time_context(x: Tensor, radius: int, rows, cond: Tensor, runs=None) -> Tensor:
    """Temporal context of a (B, T, C) tensor at the time indices `rows`.

    Output (B, len(rows), (2*radius+1)*C + H): per row t the steps
    x[:, t-radius ... t+radius, :], then the (B, H) `cond` of its window.
    Steps outside [0, T) and the steps in `rows` themselves read as zero,
    so a coupling net sees only the steps its layer keeps. `runs` is
    `row_runs(rows)`, which a caller that reuses `rows` computes once.
    """
    if x.ndim != 3:
        raise ValueError(f"time_context expects (B,T,C), got {x.shape}")
    b, t, c = x.shape
    if cond.ndim != 2 or cond.shape[0] != b:
        raise ValueError(f"time_context: cond {cond.shape} does not match x {x.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    width = (2 * radius + 1) * c + cond.shape[1]
    out_data = fill_context(np.empty((b, rows.size, width), dtype=x.data.dtype),
                            x.data, radius, rows, cond.data,
                            row_runs(rows) if runs is None else runs)
    return node(out_data, (x, cond), lambda g: context_grads(g, t, c, radius, rows))


def context_grads(g: Array, t: int, c: int, radius: int, rows) -> tuple[Array, Array]:
    """The gradients at x, (B, T, C), and at cond, (B, H), of the
    `time_context` of x at `rows`, given its (B, M, W) gradient `g`; the
    one at x is a view."""
    b = g.shape[0]
    span = 2 * radius + 1
    width = span * c
    acc = np.zeros((b, t + 2 * radius, c), dtype=g.dtype)
    # largest row first, so each step sums its terms in offset order
    for i in np.argsort(rows)[::-1]:
        r = rows[i]
        acc[:, r:r + span] += g[:, i, :width].reshape(b, span, c)
    gx = acc[:, radius:radius + t, :]
    gx[:, rows, :] = 0.0
    return gx, g[:, :, width:].sum(axis=1)


# (window, slot) pairs per pass of `period_pool`: a pass's buffers then stay
# in the core's cache (at T=60, C=32 each pair's grid is 16 KB)
_POOL_BLOCK = 32


def _period_blocks(periods: Array) -> list:
    """(period, pairs) for the (window, slot) pairs that picked each period,
    pair i*k + j for window i's slot j, in blocks of at most _POOL_BLOCK
    pairs; within a period the pairs keep their order."""
    flat = periods.ravel()
    order = flat.argsort(kind="stable")
    ranked = flat[order]
    edges = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), flat.size]
    return [(int(ranked[lo]), order[at:min(at + _POOL_BLOCK, hi)])
            for lo, hi in zip(edges[:-1], edges[1:])
            for at in range(lo, hi, _POOL_BLOCK)]


def period_pool(x, embed_w: Tensor, embed_b: Tensor, grid_w: Tensor,
                grid_b: Tensor, periods) -> Tensor:
    """Embed each window of a (B, T, D) array, fold it at each of its k
    periods, transform every grid cell and mean-pool: output (B*k, C), row
    i*k + j for window i's slot j.

    A step embeds to h = x @ embed_w + embed_b. Period p zero-pads a
    window's h to R = ceil(T/p) cycles of p steps. Each cell gets
    tanh(cell @ W_cell + b + colmean @ W_col + rowmean @ W_row), with
    W_cell, W_col, W_row the three C-row blocks of `grid_w`, `b` the
    `grid_b`, and colmean and rowmean the cell's phase-column and
    cycle-row means; the pooled value is mean(grid) + mean(tanh(...)) over
    the R*p cells.

    The embedding is linear, so every mean is taken of the input and then
    mapped: a real step is [x, 1] and a pad step 0 in D+1 channels, whose
    means times E = [embed_w; embed_b] are the means of h, and whose cell
    projection is [x, 1] @ (E @ W_cell). Only the tanh and its mean run on
    the C channels. The (window, slot) pairs that picked the same period
    are gathered and transformed together, step-major, in blocks small
    enough to stay in cache. `x` is a constant: no gradient reaches it.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"period_pool expects (B,T,D) windows, got {x.shape}")
    b, t, d = x.shape
    c = embed_w.shape[1]
    if embed_w.shape != (d, c) or embed_b.shape != (c,):
        raise ValueError(f"period_pool: embedding {embed_w.shape} and bias "
                         f"{embed_b.shape} do not match {d} input channels")
    if grid_w.shape != (3 * c, c) or grid_b.shape != (c,):
        raise ValueError(f"period_pool: grid weights {grid_w.shape} and bias "
                         f"{grid_b.shape} do not match {c} channels")
    periods = np.asarray(periods, dtype=np.intp)
    if periods.ndim != 2 or periods.shape[0] != b:
        raise ValueError(f"period_pool expects ({b}, k) periods, got {periods.shape}")
    k = periods.shape[1]
    dtype = embed_w.data.dtype
    record = records((embed_w, embed_b, grid_w, grid_b))
    e = np.concatenate([embed_w.data, embed_b.data[None]])
    w_cell, w_col, w_row = grid_w.data.reshape(3, c, c)
    a_col, a_row = e @ w_col, e @ w_row
    # a real cell's b rides on its 1 channel; pad cells add it apart
    a_cell = e @ w_cell
    a_cell[d] += grid_b.data
    blocks = _period_blocks(periods)
    # step-major, every window zero-padded to the longest fold: a block
    # is a take along axis 1, and its means and pools reduce over leading
    # axes, in an order that does not depend on the block's size
    span = max(-(-t // p) * p for p, _ in blocks)
    xs = np.zeros((span, b, d + 1), dtype=dtype)
    xs[:t, :, :d] = x.transpose(1, 0, 2)
    xs[:t, :, d] = 1.0
    # the grid mean of a pair is its window's step sum over its R*p cells
    fold_cells = (-(-t // periods) * periods).reshape(b * k, 1)
    grid_means = np.repeat(np.add.reduce(xs, 0), k, axis=0) / fold_cells.astype(dtype)
    out_data = dense(grid_means, e)
    kept = []
    for p, pos in blocks:
        m, rows = pos.size, -(-t // p)
        n = rows * p
        xb = xs[:n].take(pos // k, axis=1)
        grid = xb.reshape(rows, p, m, d + 1)
        col = np.multiply(np.add.reduce(grid, 0), 1.0 / rows).reshape(p * m, d + 1)
        row = np.multiply(np.add.reduce(grid, 1), 1.0 / p).reshape(rows * m, d + 1)
        y = dense(xb.reshape(n * m, d + 1), a_cell).reshape(rows, p, m, c)
        if n > t:
            y.reshape(n, m, c)[t:] += grid_b.data
        y += dense(col, a_col).reshape(p, m, c)
        y += dense(row, a_row).reshape(rows, 1, m, c)
        np.tanh(y, out=y)
        y = y.reshape(n, m, c)
        out_data[pos] += np.multiply(np.add.reduce(y, 0), 1.0 / n)
        if record:  # under no_grad each block's buffers go at once
            kept.append((p, pos, xb, col, row, y))

    def backward(g: Array):
        g_cell, g_col, g_row = np.zeros((3, d + 1, c), dtype=g.dtype)
        g_b = np.zeros(c, dtype=g.dtype)
        # one scratch buffer for every block's dy: a fresh one per block
        # costs more to first touch than to fill
        scratch = np.empty(max(blk[-1].size for blk in kept), dtype=g.dtype)
        for p, pos, xb, col, row, y in kept:
            n, m = y.shape[:2]
            rows = n // p
            dy = np.multiply(y, y, out=scratch[:y.size].reshape(y.shape))
            np.subtract(1.0, dy, out=dy)
            dy *= g[pos] / n
            g_cell += xb.reshape(n * m, d + 1).T @ dy.reshape(n * m, c)
            if n > t:
                g_b += dy[t:].reshape((n - t) * m, c).sum(axis=0)
            grid = dy.reshape(rows, p, m, c)
            g_col += col.T @ grid.sum(axis=0).reshape(p * m, c)
            g_row += row.T @ grid.sum(axis=1).reshape(rows * m, c)
        g_e = g_cell @ w_cell.T + g_col @ w_col.T + g_row @ w_row.T + grid_means.T @ g
        g_grid = np.concatenate([e.T @ g_cell, e.T @ g_col, e.T @ g_row])
        return g_e[:d], g_e[d], g_grid, g_b + g_cell[d]

    return node(out_data, (embed_w, embed_b, grid_w, grid_b), backward)
