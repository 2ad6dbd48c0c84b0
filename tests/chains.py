"""The per-op chains that the loss terms of ``autodiff`` replace, rebuilt on
the tape from the ops that remain plus numpy copies of the deleted ones, so
tests can hold each term, and each scatter of ``FactoredQ.backward``, to its
chain's bits in value and gradient.

``cfcql_loss``, ``macql_loss`` and ``td_term`` have the learner's signatures
but return the chain's loss tensor where the learner returns a ValuesGrad;
``backward`` reverses it. Patched in together (as ``FactoredQ.backward`` for
``backward``), they run a trainer on the tape as it ran before the loss terms
returned their gradients: tabular values are ``take_rows`` of the table.
"""

import math

import numpy as np

from cfcql_lab import autodiff as ad
from cfcql_lab.autodiff import Tensor, _unbroadcast
from cfcql_lab.learner import _uniform, td_targets


def add(a, b):
    """The deleted ``add`` op: ``a + b``, backward ``g`` summed back to each
    operand's shape."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)

    def bwd(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return Tensor(a.data + b.data, (a, b), bwd)


def take_rows(x, ids):
    """The deleted ``take_rows`` op: ``x[ids]``, backward the rows of ``g``
    scattered into x's shape in row order, duplicate ids accumulating."""
    x = ad.as_tensor(x)
    ids = np.asarray(ids, dtype=np.int64)

    def bwd(g):
        width = math.prod(x.data.shape[1:])
        flat = (ids.reshape(-1, 1) * width + np.arange(width)).ravel()
        return (np.bincount(flat, weights=g.ravel(),
                            minlength=x.data.size).reshape(x.data.shape),)

    return Tensor(x.data[ids], (x,), bwd)


def square(x):
    """The deleted ``square`` op: ``x * x``, backward ``g * 2.0 * x``."""
    x = ad.as_tensor(x)
    return Tensor(x.data * x.data, (x,), lambda g: (g * 2.0 * x.data,))


def mul(a, b):
    """The deleted ``mul`` op: ``a * b``, backward ``g * b`` and ``g * a``,
    each summed back to its operand's shape."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return Tensor(a.data * b.data, (a, b), bwd)


def lse_gap(x, index):
    """The deleted two-output ``lse_minus_chosen``: ``(gap, softmax)``, with
    ``gap = logsumexp(x[..., :]) - x[..., index]`` as one node whose backward
    is ``g * (softmax - onehot(index))``."""
    x = ad.as_tensor(x)
    idx = np.asarray(index, dtype=np.int64)
    shape, width, ndim = x.data.shape, x.data.shape[-1], x.data.ndim
    flat = idx.ravel() + np.arange(0, x.data.size, width)
    lead = x.data.transpose((ndim - 1, *range(ndim - 1))).copy()
    m = lead.max(axis=0)
    shifted = np.exp(lead - m)
    total = shifted.sum(axis=0)
    soft = (shifted / total).transpose((*range(1, ndim), 0))

    def bwd(g):
        grad = np.empty(shape)
        np.multiply(soft, g[..., None], out=grad)
        grad.reshape(-1)[flat] -= g.ravel()
        return (grad,)

    gap = m + np.log(total) - x.data.reshape(-1)[flat].reshape(idx.shape)
    return Tensor(gap, (x,), bwd), soft


def q_tot_data(values, actions):
    """Q_tot of the data's joint actions: gather, reshape and sum over agents."""
    return ad.tsum(ad.reshape(ad.gather_last(values, actions[:, :, None]), actions.shape),
                   axis=-1)


def td_chain(q_data, y):
    """``0.5 * mean (q_data - y)**2`` op by op."""
    return mul(ad.tmean(square(q_data - y)), 0.5)


def taped_values(q, inputs):
    """Q's values on the tape: ``take_rows`` of the table, or the network's
    forward."""
    return take_rows(q.table, inputs) if q.mode == "tabular" else q.values(inputs)


def backward(q, loss):
    """``FactoredQ.backward`` for the chains' losses: the tape's backward."""
    ad.backward(loss)


def td_term(q, inputs, actions, y):
    """``learner.td_term`` as an op chain."""
    loss = td_chain(q_tot_data(taped_values(q, inputs), actions), y)
    return float(loss.data), loss


def weighted_gap_chain(x, index, weights):
    """``sum(weights * gap)``: the penalty chain of both losses."""
    return ad.tsum(mul(weights, lse_gap(x, index)[0]))


def sampled_penalty_chain(values, q_data, joints, log_const, alpha):
    """macql's sampled penalty op by op, from (B, K, n) joints."""
    chosen = ad.gather_last(values, np.swapaxes(joints, 1, 2))
    est = add(ad.logsumexp_t(ad.tsum(chosen, axis=1), axis=-1), log_const)
    return mul(ad.tmean(est - q_data), alpha)


def _result(loss, td, penalty):
    """The learner's ``(loss, grad, stats)``, with the loss tensor as grad."""
    return float(loss.data), loss, {"td": float(td.data), "penalty": penalty}


def cfcql_loss(batch, q, q_target, lam, alpha, gamma):
    """``learner.cfcql_loss`` as an op chain."""
    values = taped_values(q, batch.inputs)
    q_data = q_tot_data(values, batch.actions)
    td = td_chain(q_data, td_targets(q_target, batch, gamma))
    if alpha == 0.0:
        return _result(td, td, 0.0)
    gap, pi = lse_gap(values, batch.actions)
    weights = _uniform(batch, q) if lam is None else lam(pi)
    penalty = ad.tsum(mul(weights * (alpha / len(batch)), gap))
    return _result(add(penalty, td), td, float(penalty.data))


def macql_loss(batch, q, q_target, alpha, n_samples, rng, gamma):
    """``learner.macql_loss`` as an op chain."""
    values = taped_values(q, batch.inputs)
    q_data = q_tot_data(values, batch.actions)
    td = td_chain(q_data, td_targets(q_target, batch, gamma))
    if alpha == 0.0:
        return _result(td, td, 0.0)
    b = len(batch)
    if n_samples >= q.n_actions**q.n_agents:
        penalty = ad.tsum(mul(lse_gap(values, batch.actions)[0], alpha / b))
    else:
        sampled = rng.integers(0, q.n_actions, size=(b, n_samples, q.n_agents))
        log_const = q.n_agents * np.log(q.n_actions) - np.log(n_samples)
        penalty = sampled_penalty_chain(values, q_data, sampled, log_const, alpha)
    return _result(add(penalty, td), td, float(penalty.data))
