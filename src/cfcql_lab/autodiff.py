"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the handful of operations needed by the learner's loss graphs are
implemented. Everything is float64; tapes are built eagerly and freed after
``backward``.

Inside ``no_grad()`` (a context manager that also works as a decorator) every
op result is a plain value: its ``parents`` is empty, its ``bwd`` is None and
its ``requires_grad`` is False, so nothing it was computed from is kept alive.
Leaves made with ``requires_grad=True`` stay trainable. The mode is one flag
for the whole process, restored on exit from the block even when it raises.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block: forward values only."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "parents", "bwd", "requires_grad")

    def __init__(self, data, parents=(), bwd=None, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        if not _grad_enabled:
            parents, bwd = (), None
        self.parents: tuple = tuple(parents)
        self.bwd = bwd
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    # -- operators -------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out_data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return Tensor(out_data, (a, b), bwd)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return Tensor(out_data, (a, b), bwd)


def relu(x) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        return (g * (x.data > 0),)

    return Tensor(np.maximum(x.data, 0.0), (x,), bwd)


def elu(x) -> Tensor:
    x = as_tensor(x)
    neg = np.exp(np.minimum(x.data, 0.0)) - 1.0
    out_data = np.where(x.data > 0, x.data, neg)

    def bwd(g):
        return (g * np.where(x.data > 0, 1.0, neg + 1.0),)

    return Tensor(out_data, (x,), bwd)


def absolute(x) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        return (g * np.sign(x.data),)

    return Tensor(np.abs(x.data), (x,), bwd)


def square(x) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        return (g * 2.0 * x.data,)

    return Tensor(x.data * x.data, (x,), bwd)


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, x.data.shape).copy(),)

    return Tensor(out_data, (x,), bwd)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def logsumexp_t(x, axis: int = -1) -> Tensor:
    """Max-shifted logsumexp along one axis, exact for constant vectors."""
    x = as_tensor(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(total), axis=axis)

    def bwd(g):
        soft = shifted / total
        return (np.expand_dims(g, axis) * soft,)

    return Tensor(out_data, (x,), bwd)


def gather_last(x, index: np.ndarray) -> Tensor:
    """out[..., j] = x[..., index[..., j]]; duplicate indices accumulate in backward."""
    x = as_tensor(x)
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape[:-1] != x.data.shape[:-1]:
        raise ValueError(f"index leading dims {idx.shape[:-1]} != {x.data.shape[:-1]}")
    out_data = np.take_along_axis(x.data, idx, axis=-1)

    def bwd(g):
        # accumulate in a fresh C-contiguous buffer: reshape of a zeros_like
        # view could silently copy and drop the update
        width = x.data.shape[-1]
        gx = np.zeros((x.data.size // width, width))
        flat_g = np.ascontiguousarray(g).reshape(-1, idx.shape[-1])
        flat_idx = idx.reshape(-1, idx.shape[-1])
        rows = np.arange(flat_idx.shape[0])[:, None]
        np.add.at(gx, (rows, flat_idx), flat_g)
        return (gx.reshape(x.data.shape),)

    return Tensor(out_data, (x,), bwd)


def select(x, index: int, axis: int) -> Tensor:
    """Slice one index from an axis, dropping the axis."""
    x = as_tensor(x)
    out_data = np.take(x.data, index, axis=axis)

    def bwd(g):
        gx = np.zeros(x.data.shape)
        sl = [slice(None)] * gx.ndim
        sl[axis] = index
        gx[tuple(sl)] = g
        return (gx,)

    return Tensor(out_data, (x,), bwd)


def take_rows(x, ids: np.ndarray) -> Tensor:
    """Row gather out[k] = x[ids[k]]; duplicate ids accumulate in backward."""
    x = as_tensor(x)
    ids = np.asarray(ids, dtype=np.int64)

    def bwd(g):
        gx = np.zeros(x.data.shape)
        np.add.at(gx, ids, g)
        return (gx,)

    return Tensor(x.data[ids], (x,), bwd)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def bwd(g):
        return tuple(np.take(g, j, axis=axis) for j in range(len(tensors)))

    return Tensor(out_data, tuple(tensors), bwd)


def reshape(x, shape: tuple) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        return (g.reshape(x.data.shape),)

    return Tensor(x.data.reshape(shape), (x,), bwd)


def backward(loss: Tensor) -> None:
    """Reverse-mode pass; accumulates into ``.grad`` of requires_grad leaves."""
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    topo: list = []
    visited = set()
    stack_ = [(loss, False)]
    while stack_:
        node, processed = stack_.pop()
        if id(node) in visited:
            continue
        if processed:
            visited.add(id(node))
            topo.append(node)
            continue
        stack_.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in visited:
                stack_.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.bwd is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node.parents, node.bwd(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
