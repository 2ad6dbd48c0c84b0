"""Divergence quantities that control conservatism, and the per-agent
penalty weights lambda.

lambda is a simplex over agents, held as a plain (n,) float array: the
exact oracles take ``lambda_uniform(n)``. The learner weighs agents per
batch row by softmax_i(-KL_i) (``learner.batch_lambda``), with KL_i from
``kl_scores``.

Ratio products are accumulated in log space: the joint-ratio divergence grows
exponentially with the number of agents, which is the very effect under test.

The divergences take probabilities agent first and action last: (n, A) at
one state, or (n, S, A) at every state, as the exact evaluators pass them.
A tabular policy is such an (n, S, A) array (see ``core``), so ``d_cql`` and
``d_cf_cql`` give the divergence at one state by indexing ``pi[:, state]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class SupportError(ValueError):
    """The behavior policy puts zero mass where the target policy does not."""

    def __init__(self, agent: int, action: int, state=None):
        self.agent = agent
        self.action = action
        self.state = state
        where = f" at state {state}" if state is not None else ""
        super().__init__(
            f"behavior probability is zero for agent {agent}, action {action}{where} "
            "while the policy probability is positive"
        )


def _check_support(pi: np.ndarray, beta: np.ndarray, state=None) -> None:
    """Raise SupportError at the first entry with pi > 0 and beta <= 0.

    Takes (n, A) arrays, reporting ``state``, or (n, S, A) arrays, reporting
    the offending state index.
    """
    bad = (pi > 0) & (beta <= 0)
    if np.any(bad):
        where = np.argwhere(bad)[0]
        if len(where) == 3:
            state = int(where[1])
        raise SupportError(agent=int(where[0]), action=int(where[-1]), state=state)


def log_ratio_factors(pi: np.ndarray, beta: np.ndarray, state=None) -> np.ndarray:
    """log E_{a ~ pi_i}[pi_i(a)/beta_i(a)] per agent: (n,) at one state, with
    ``state`` named in a SupportError, or (n, S) at every state."""
    pi = np.asarray(pi, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    _check_support(pi, beta, state)
    # Off pi's support the log terms are -inf, so they add exp(-inf) = 0 to
    # each agent's sum.
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(pi > 0, 2.0 * np.log(pi) - np.log(beta), -np.inf)
    m = logs.max(axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.exp(logs - m).sum(axis=-1))


def kl_scores(pi: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """KL(pi || beta) over the last axis of (..., A) probability arrays.

    Inside the logs pi is clamped at 1e-300 and beta at 1e-12, so an action
    pi never takes adds 0, and one beta never takes adds a large finite term
    instead of raising.
    """
    beta = np.maximum(beta, 1e-12)
    return (pi * (np.log(np.maximum(pi, 1e-300)) - np.log(beta))).sum(axis=-1)


def d_cql_probs(pi: np.ndarray, beta: np.ndarray, state=None):
    """Joint-ratio divergence prod_i E_{pi_i}[pi_i/beta_i] - 1: a float at
    one state, an (S,) array at every state."""
    return np.expm1(log_ratio_factors(pi, beta, state).sum(axis=0))


def d_cf_cql_probs(pi: np.ndarray, beta: np.ndarray, lam: np.ndarray, state=None):
    """Weighted average of the per-agent divergences, independent of team
    size: a float at one state, an (S,) array at every state."""
    log_factors = log_ratio_factors(pi, beta, state)
    lam = np.asarray(lam, dtype=np.float64).reshape((-1,) + (1,) * (log_factors.ndim - 1))
    return (lam * (np.exp(log_factors) - 1.0)).sum(axis=0)


@dataclass(frozen=True)
class RatioBoundReport:
    lhs: float  # D_CQL / D_CF
    rhs: float  # exp(sum of off-argmax KL terms)
    argmax_agent: int
    holds: bool


def check_ratio_bound_probs(pi: np.ndarray, beta: np.ndarray, state=None,
                            lam: Optional[np.ndarray] = None) -> RatioBoundReport:
    log_factors = log_ratio_factors(pi, beta, state)
    factors = np.exp(log_factors)
    if lam is None:
        lam = lambda_uniform(len(factors))  # the bound holds for any simplex
    d_cf = float((lam * (factors - 1.0)).sum())
    d_cql = float(np.expm1(log_factors.sum()))
    if d_cf <= 0.0:
        raise ValueError("bound undefined at pi=beta")
    j = int(np.argmax(factors))
    kls = kl_scores(pi, beta)
    log_rhs = float(kls.sum() - kls[j])
    log_lhs = float(np.log(d_cql) - np.log(d_cf))
    # The ratio itself cancels catastrophically near pi = beta; certify through
    # the stable +1 form, which implies the ratio bound because the per-agent
    # factors are all >= 1.
    log_lhs_plus1 = float(log_factors.sum() - np.log((lam * factors).sum()))
    return RatioBoundReport(
        lhs=float(np.exp(log_lhs)),
        rhs=float(np.exp(log_rhs)),
        argmax_agent=j,
        holds=bool(log_lhs_plus1 >= log_rhs - 1e-9),
    )


# -- One-state wrappers over (n, S, A) policies ------------------------------
# Each copies its (n, A) rows out of the strided pi[:, state] view: numpy's
# ufuncs on such small arrays ran about 40% slower on the view (toy n = 6,
# numpy 2.4.6), and the copy gives the same bits. A state outside [0, S)
# raises a ValueError naming it, where numpy would wrap -1 to S - 1.


def _state_rows(pi: np.ndarray, beta: np.ndarray, state: int):
    n_states = pi.shape[1]
    if not 0 <= state < n_states:
        raise ValueError(f"state {state} is not in [0, S) with S = {n_states}")
    return pi[:, state].copy(), beta[:, state].copy()


def d_cql(pi: np.ndarray, beta: np.ndarray, state: int) -> float:
    return float(d_cql_probs(*_state_rows(pi, beta, state), state))


def d_cf_cql(pi: np.ndarray, beta: np.ndarray, lam: np.ndarray, state: int) -> float:
    pi_s, beta_s = _state_rows(pi, beta, state)
    return float(d_cf_cql_probs(pi_s, beta_s, lam, state))


# ---------------------------------------------------------------------------
# Lambda weights: a simplex over agents.
# ---------------------------------------------------------------------------


def lambda_uniform(n_agents: int) -> np.ndarray:
    """Equal weight 1/n on every agent."""
    return np.full(n_agents, 1.0 / n_agents)
