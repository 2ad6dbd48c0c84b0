"""Minimal reverse-mode automatic differentiation over numpy arrays, and the
learner's loss terms with their gradients written out.

The tape serves the networks: a ``GroupedMlp`` forward (``swapaxes``, one
``dense`` per layer, ``swapaxes``) and behavior cloning's loss on top of it
(``logsumexp_t``, ``gather_last``, ``reshape``, ``sub`` and ``tmean``);
``tsum`` sums over agents. Everything is float64; tapes are built eagerly and
freed after ``backward``, which a loss's gradient can seed at the network's
output.

The learner's loss terms are plain functions, not tape nodes: ``td_loss``
(the TD term, or ``td_loss_chosen`` from the chosen values alone),
``lse_minus_chosen`` (a weighted logsumexp-minus-chosen penalty) and
``sampled_lse_td`` (a sampled joint logsumexp penalty together with the TD
term it shares Q_tot with). Each returns its value and its gradient as numpy
arrays, with the float ops, in the order, of the op chain it stands for,
seeded with 1.0, so both keep that chain's bits. The TD term's gradient is one
number per row of Q_tot, which a tabular update scatters into the B * n
chosen table entries alone (``learner.FactoredQ.backward``): a tape node
costs microseconds to build and reverse, more than a small term's arithmetic.

A result with no grad-requiring parent records no tape: its ``parents`` is
empty, its ``bwd`` is None and its ``requires_grad`` is False. Inside
``no_grad()`` (a context manager that also works as a decorator) every op
result is such a plain value; leaves made with ``requires_grad=True`` stay
trainable. The mode is one process-wide flag, restored on exit from the
block even when it raises.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

_grad_enabled = True


class no_grad:
    """Build no tape inside the block, or inside calls of a decorated function."""

    def __enter__(self):
        global _grad_enabled
        self.previous, _grad_enabled = _grad_enabled, False

    def __exit__(self, *exc_info):
        global _grad_enabled
        _grad_enabled = self.previous

    def __call__(self, fn):
        @functools.wraps(fn)
        def untraced(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return untraced


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
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
        if _grad_enabled:
            for p in parents:
                if p.requires_grad:
                    self.parents, self.bwd, self.requires_grad = parents, bwd, True
                    return
        self.parents, self.bwd, self.requires_grad = (), None, requires_grad

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    # -- operators -------------------------------------------------------------

    def __sub__(self, other):
        return sub(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return Tensor(a.data - b.data, (a, b), bwd)


def dense(x, w, b, relu: bool) -> Tensor:
    """One affine layer as one node: ``x @ w + b``, rectified when ``relu``.

    The forward runs matmul, add and maximum in that order in one buffer, and
    the backward masks with ``out > 0`` (the pre-activation's sign, nan
    included), so values and gradients have the bits of the three separate
    ops while the tape keeps one activation instead of three.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    out = np.matmul(x.data, w.data)
    out += b.data
    if relu:
        np.maximum(out, 0.0, out=out)

    def bwd(g):
        if relu:
            g = g * (out > 0)
        gx = np.matmul(g, np.swapaxes(w.data, -1, -2)) if x.requires_grad else None
        gw = np.matmul(np.swapaxes(x.data, -1, -2), g) if w.requires_grad else None
        return (None if gx is None else _unbroadcast(gx, x.data.shape),
                None if gw is None else _unbroadcast(gw, w.data.shape),
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return Tensor(out, (x, w, b), bwd)


def _spread(g, shape: tuple, axis) -> np.ndarray:
    """The gradient of a sum over ``axis``: ``g`` copied along the summed axis."""
    if axis is not None:
        kept = list(shape)
        kept[axis] = 1
        g = g.reshape(kept)
    out = np.empty(shape)
    out[...] = g
    return out


def tsum(x, axis=None) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        return (_spread(g, x.data.shape, axis),)

    return Tensor(x.data.sum(axis=axis), (x,), bwd)


def tmean(x) -> Tensor:
    """The mean of every entry, as a scalar."""
    x = as_tensor(x)
    scale = 1.0 / x.data.size

    def bwd(g):
        return (np.full(x.data.shape, g * scale),)

    return Tensor(x.data.sum() * scale, (x,), bwd)


def logsumexp_t(x, axis: int = -1) -> Tensor:
    """Max-shifted logsumexp along one axis, exact for constant vectors."""
    x = as_tensor(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = (m + np.log(total)).squeeze(axis)

    def bwd(g):
        soft = shifted / total
        return (g.reshape(total.shape) * soft,)

    return Tensor(out_data, (x,), bwd)


def _flat_positions(op: str, shape: tuple, idx: np.ndarray) -> np.ndarray:
    """Positions in ``x.ravel()`` of ``x[..., idx[...]]`` for an (…, A) ``x`` of
    ``shape``: ``idx`` holds x's leading shape, plus at most one axis of picks
    per row. An index outside 0..A-1 raises a ValueError naming ``op`` and it."""
    width = shape[-1]
    # one reduction: viewed as unsigned, a negative index is at least 2**63
    if idx.size and idx.view(np.uint64).max() >= width:
        bad = idx[(idx < 0) | (idx >= width)][0]
        raise ValueError(f"{op} index {bad} is outside 0..{width - 1}")
    picks = (1,) * (idx.ndim - len(shape) + 1)
    rows = np.arange(0, math.prod(shape), width).reshape(shape[:-1] + picks)
    return (idx + rows).ravel()


def _index_of_rows(op: str, shape: tuple, index) -> tuple:
    """``index`` as int64, one entry per row of an (…, A) ``x``, and its flat positions."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape != shape[:-1]:
        raise ValueError(f"index shape {idx.shape} != {shape[:-1]}")
    return idx, _flat_positions(op, shape, idx)


def _scatter_add(flat: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """``g`` summed into zeros of ``shape`` at flat positions ``flat``, one by
    one in index order (as ``np.add.at`` adds, so duplicates give its bits)."""
    return np.bincount(flat, weights=g.ravel(), minlength=math.prod(shape)).reshape(shape)


def _td_rows(op: str, x: np.ndarray, index, y) -> tuple:
    """For a (B, n, A) ``x``, its checked (B, n) ``index`` and (B,) targets
    ``y``: ``q = sum_i x[b, i, index[b, i]]``, each row's Q_tot, and ``d = q -
    y``, the TD term's per-row error."""
    shape = x.shape
    if len(shape) != 3:
        raise ValueError(f"{op} expects (B, n, A) values, got shape {shape}")
    idx, flat = _index_of_rows(op, shape, index)
    if np.shape(y) != shape[:1]:
        raise ValueError(f"{op}: targets of shape {np.shape(y)} for {shape[0]} rows")
    q = x.reshape(-1)[flat].reshape(idx.shape).sum(axis=-1)
    return q, q - y


def _td_value_and_grad(d: np.ndarray) -> tuple:
    """The TD term ``(d * d).sum() * (1 / B) * 0.5`` of the (B,) errors ``d``
    and its gradient in each row's Q_tot, ``d * (1 / B)``."""
    scale = 1.0 / len(d)
    return float((d * d).sum() * scale * 0.5), d * scale


def td_loss(x: np.ndarray, index, y) -> tuple:
    """``(loss, g)`` for the TD term ``0.5 * mean_b (sum_i x[b, i, index[b, i]]
    - y[b])**2`` of (B, n, A) values ``x``, (B, n) ``index`` and (B,) targets
    ``y``; ``g``, of shape (B,), is its gradient in each row's Q_tot.

    The loss is ``(d * d).sum() * (1 / B) * 0.5`` with ``d = q - y``, and ``g``
    is ``d * (1 / B)``. Those are the float ops of gather_last, reshape, tsum,
    sub, a square (``x * x``, backward ``g * 2.0 * x``), tmean and mul(0.5) in
    turn, seeded with 1.0, so both keep that chain's bits: the seed and the
    constants 0.5 and 2.0 fold into 1 / B exactly.
    """
    _, d = _td_rows("td_loss", x, index, y)
    return _td_value_and_grad(d)


def td_loss_chosen(chosen: np.ndarray, y) -> tuple:
    """``td_loss`` from ``chosen``, the (B, n) values ``x[b, i, index[b, i]]``
    already gathered, with the same bits: for a caller that can read them
    without the rest of x."""
    if chosen.ndim != 2 or np.shape(y) != chosen.shape[:1]:
        raise ValueError(f"td_loss_chosen: targets of shape {np.shape(y)} for chosen values "
                         f"of shape {chosen.shape}")
    return _td_value_and_grad(chosen.sum(axis=-1) - y)


def lse_minus_chosen(x: np.ndarray, index: np.ndarray, weigh) -> tuple:
    """``(loss, grad)`` for ``sum(w * (logsumexp(x[..., :]) - x[..., index]))``,
    where ``w = weigh(softmax)`` is computed from the softmax of ``x`` over its
    last axis and broadcasts against ``index``; ``grad``, of x's shape, is
    ``w * (softmax - onehot(index))``.

    The max and the sum run over the leading axis of an (A, ...) copy, which
    numpy reduces several times faster than a short last axis. For A < 8 it
    adds the terms in the same order, so the loss has the bits of
    ``tsum(mul(w, logsumexp_t(x) - gather_last(x, index[..., None])[..., 0]))``
    and the gradient those of its backward from 1.0.
    """
    shape = x.shape
    idx, flat = _index_of_rows("lse_minus_chosen", shape, index)
    ndim = x.ndim
    lead = x.transpose((ndim - 1, *range(ndim - 1))).copy()  # (A, ...)
    m = lead.max(axis=0)
    shifted = np.exp(lead - m)
    total = shifted.sum(axis=0)
    soft = (shifted / total).transpose((*range(1, ndim), 0))  # (..., A), a view
    gap = m + np.log(total) - x.reshape(-1)[flat].reshape(idx.shape)
    w = weigh(soft)
    gw = np.broadcast_to(w, idx.shape)
    grad = np.empty(shape)
    np.multiply(soft, gw[..., None], out=grad)
    grad.reshape(-1)[flat] -= gw.ravel()
    return float((w * gap).sum()), grad


def sampled_lse_td(x: np.ndarray, index, y, joints, log_const: float, alpha: float) -> tuple:
    """``(td, penalty, g, grad)`` for macql's sampled penalty ``alpha * mean_b
    (logsumexp_k sum_i x[b, i, joints[b, k, i]] + log_const - q_b)`` and the TD
    term ``td_loss(x, index, y)``, with q_b the TD term's ``sum_i x[b, i,
    index[b, i]]``. ``joints`` is (B, K, n), K joint actions per row.

    Both terms take q_b, and the op chain sums their gradients in q_b before
    one scatter into ``x``, so ``g``, of shape (B,), is that sum: the gradient
    of both terms in each row's Q_tot. ``grad``, of x's shape, is the rest of
    the penalty's, scattered from the joints in index order (duplicates
    accumulate as in gather_last). The float ops are those of gather_last,
    tsum(axis=1), logsumexp_t, add, sub, tmean and mul for the penalty and of
    ``td_loss`` for the TD term, seeded with 1.0, so the terms and gradients
    keep the chain's bits.
    """
    shape = x.shape
    q, d = _td_rows("sampled_lse_td", x, index, y)
    joints = np.asarray(joints, dtype=np.int64)
    if joints.ndim != 3 or joints.shape[::2] != shape[:-1]:
        raise ValueError(f"joints shape {joints.shape} is not (B, K, n) for (B, n) = "
                         f"{shape[:-1]}")
    picks = np.swapaxes(joints, 1, 2)  # (B, n, K)
    flat_joints = _flat_positions("sampled_lse_td", shape, picks)
    scale = 1.0 / len(d)
    td, g_td = _td_value_and_grad(d)
    joint_q = x.reshape(-1)[flat_joints].reshape(picks.shape).sum(axis=1)  # (B, K)
    m = np.max(joint_q, axis=-1, keepdims=True)
    shifted = np.exp(joint_q - m)
    total = shifted.sum(axis=-1, keepdims=True)
    est = (m + np.log(total)).squeeze(-1) + log_const
    penalty = (est - q).sum() * scale * alpha
    g_est = alpha * scale  # the penalty's gradient in each row's estimate
    spread = np.empty(picks.shape)
    spread[...] = (g_est * (shifted / total))[:, None, :]
    return td, float(penalty), g_td - g_est, _scatter_add(flat_joints, spread, shape)


def gather_last(x, index: np.ndarray) -> Tensor:
    """out[..., j] = x[..., index[..., j]]; duplicate indices accumulate in backward."""
    x = as_tensor(x)
    idx = np.asarray(index, dtype=np.int64)
    shape = x.data.shape
    if idx.shape[:-1] != shape[:-1]:
        raise ValueError(f"index leading dims {idx.shape[:-1]} != {shape[:-1]}")
    flat = _flat_positions("gather_last", shape, idx)

    def bwd(g):
        return (_scatter_add(flat, g, shape),)

    return Tensor(x.data.reshape(-1)[flat].reshape(idx.shape), (x,), bwd)


def reshape(x, shape: tuple) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        return (g.reshape(x.data.shape),)

    return Tensor(x.data.reshape(shape), (x,), bwd)


def swapaxes(x, axis1: int, axis2: int) -> Tensor:
    """Two axes exchanged, copied to C order: sums over the new last axis
    then add in the order they would on any C-ordered array."""
    x = as_tensor(x)

    def bwd(g):
        return (np.swapaxes(g, axis1, axis2),)

    return Tensor(np.ascontiguousarray(np.swapaxes(x.data, axis1, axis2)), (x,), bwd)


def backward(root: Tensor, grad: Optional[np.ndarray] = None) -> None:
    """Reverse-mode pass from ``root``, seeded with ``grad``, the gradient in
    root of the same shape (1.0 when root is a scalar and ``grad`` is None);
    accumulates into ``.grad`` of requires_grad leaves."""
    if grad is None:
        if root.data.size != 1:
            raise ValueError("backward from a non-scalar root needs a seed gradient")
        grad = np.ones(root.data.shape)
    elif np.shape(grad) != root.data.shape:
        raise ValueError(f"seed gradient of shape {np.shape(grad)} for a root of shape "
                         f"{root.data.shape}")
    topo: list = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if id(node) in visited:
            continue
        if processed:
            visited.add(id(node))
            topo.append(node)
            continue
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads = {id(root): grad}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.bwd is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node.parents, node.bwd(g)):
            if pg is None:  # a parent that needs no gradient
                continue
            key = id(parent)
            grads[key] = grads[key] + pg if key in grads else pg
