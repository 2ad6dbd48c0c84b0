"""Divergence quantities that control conservatism, and the per-agent
penalty weights lambda.

lambda is a simplex over agents, held as a plain (n,) float array: the
exact oracles take ``lambda_uniform(n)``. The learner scores agents per
batch row and turns the scores into weights with ``onehot_from_scores``
(all mass on the highest score) or ``softmax_from_scores`` (ratio or KL
form).

Ratio products are accumulated in log space: the joint-ratio divergence grows
exponentially with the number of agents, which is the very effect under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FactoredPolicy
from .neural import softmax


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


def kl_categorical(p, q) -> float:
    """KL(p || q) for categorical distributions, with 0 * log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    _check_support(p[None], q[None])
    support = p > 0
    out = np.zeros_like(p)
    out[support] = p[support] * (np.log(p[support]) - np.log(q[support]))
    return float(out.sum())


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
    """log E_{a ~ pi_i}[pi_i(a)/beta_i(a)] per agent, for (n, A) prob matrices."""
    pi = np.asarray(pi, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    _check_support(pi, beta, state)
    # Off pi's support the log terms are -inf, so they add exp(-inf) = 0 to
    # each agent's sum.
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(pi > 0, 2.0 * np.log(pi) - np.log(beta), -np.inf)
    m = logs.max(axis=1, keepdims=True)
    return m[:, 0] + np.log(np.exp(logs - m).sum(axis=1))


def ratio_scores(pi: np.ndarray, beta: np.ndarray, state=None) -> np.ndarray:
    """E_{a ~ pi_i}[pi_i(a)/beta_i(a)] per agent; always >= 1."""
    return np.exp(log_ratio_factors(pi, beta, state))


def kl_scores(pi: np.ndarray, beta: np.ndarray) -> np.ndarray:
    return np.array([kl_categorical(pi[i], beta[i]) for i in range(pi.shape[0])])


def d_cql_probs(pi: np.ndarray, beta: np.ndarray, state=None) -> float:
    """Joint-ratio divergence via the per-agent product form."""
    return float(np.expm1(log_ratio_factors(pi, beta, state).sum()))


def d_cf_cql_probs(pi: np.ndarray, beta: np.ndarray, lam: np.ndarray, state=None) -> float:
    """Weighted average of the per-agent divergences; independent of team size."""
    factors = ratio_scores(pi, beta, state)
    lam = np.asarray(lam, dtype=np.float64)
    return float((lam * (factors - 1.0)).sum())


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


# -- FactoredPolicy-level wrappers -------------------------------------------


def d_cql(pi: FactoredPolicy, beta: FactoredPolicy, state) -> float:
    return d_cql_probs(pi.probs(state), beta.probs(state), state)


def d_cf_cql(pi: FactoredPolicy, beta: FactoredPolicy, lam: np.ndarray, state) -> float:
    return d_cf_cql_probs(pi.probs(state), beta.probs(state), lam, state)


# ---------------------------------------------------------------------------
# Lambda weights: a simplex over agents.
# ---------------------------------------------------------------------------


def lambda_uniform(n_agents: int) -> np.ndarray:
    """Equal weight 1/n on every agent."""
    return np.full(n_agents, 1.0 / n_agents)


def onehot_from_scores(scores: np.ndarray) -> np.ndarray:
    """All mass on the argmax score; ties break to the lowest agent index."""
    scores = np.asarray(scores, dtype=np.float64)
    out = np.zeros_like(scores)
    idx = np.argmax(scores, axis=-1)
    np.put_along_axis(out, np.expand_dims(idx, -1), 1.0, axis=-1)
    return out


def softmax_from_scores(scores: np.ndarray, tau: float, form: str = "kl") -> np.ndarray:
    """Normalized exponentials of +tau*ratio-score or -tau*KL-score."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if form == "ratio":
        return softmax(tau * np.asarray(scores, dtype=np.float64), axis=-1)
    if form == "kl":
        return softmax(-tau * np.asarray(scores, dtype=np.float64), axis=-1)
    raise ValueError(f"unknown softmax form {form!r}")
