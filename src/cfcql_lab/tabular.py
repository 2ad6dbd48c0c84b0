"""Exact enumeration-based policy evaluation and conservative fixed points.

These solvers are the ground-truth engine. The three policy evaluators
(``exact_policy_eval``, ``cfcql_fixed_point``, ``macql_fixed_point``) solve
the linear system (I - gamma * P_pi) V = r_pi of their Bellman recursion
directly. ``value_iteration``, the optimal-value oracle, is Howard policy
iteration on the same direct solve: it stops when the greedy policy stops
changing. ``learner_fixed_point`` iterates to a sup-norm change <=
``DEFAULT_TOL`` (1e-10), far below every tolerance asserted elsewhere.

The solves see the policy only through its support, the (state, joint
action, probability) entries of the product policy that are nonzero
(``joint_policy_support``): P_pi sums S * K cells per support entry
instead of S * |A|^n * K, and E_pi[x] is one ``np.bincount`` over the
entries. A deterministic policy, such as pi* or a learned greedy one, has
one entry per state. On such a policy the results have the bits of the
dense (S, |A|^n) product; on a stochastic one, E_pi sums a state's entries
in order rather than numpy's pairwise order, which can move the last bits.
The penalty tables over every joint action are built one agent at a time
by outer broadcasting.

Greedy choices (``value_iteration``, ``greedy_policy_from_q``) take the lowest
joint action within ``TIE_EPS`` * max(1, |row max|) of the row max, so that
rounding does not pick among actions whose values are equal.

``learner_fixed_point`` is the oracle for the practical learner itself: the
exact stationary point of the objective that ``learner.train_offline``
minimises in expectation over its minibatches, for the tabular cfcql learner
with the additive mixer and uniform lambda, at any number of agents (the
training loop always bootstraps timeouts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import Dataset, EnvSpec, FactoredPolicy, greedy_policy_from_actions, state_count
from .divergence import SupportError, _check_support
from .envs import MMDPModel, all_joint_actions, decode_joint, encode_joint
from .neural import softmax

DEFAULT_TOL = 1e-10
TIE_EPS = 1e-12  # relative margin within which two Q values count as tied
DEFAULT_MAX_ITER = 100_000
MAX_TABLE_CELLS = 50_000_000


class ConvergenceError(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no fixed point after {iterations} iterations (residual {residual:.3e})"
        )


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class JointQTable:
    values: np.ndarray  # (n_states, n_joint_actions)


def _policy_dense(model: MMDPModel, policy: FactoredPolicy) -> np.ndarray:
    """(n, S, A) per-agent probabilities of ``policy``, checked.

    Every entry must be finite and >= 0, and every agent's row must sum to 1
    within 1e-9. The solvers see a policy only through its positive entries
    (``joint_policy_support``), so a nan or negative entry would otherwise be
    dropped without notice.
    """
    dense = policy.dense(model.n_states)
    if dense.shape != (model.n_agents, model.n_states, model.n_actions):
        raise ValueError("policy dimensions do not match the model")
    bad = ~np.isfinite(dense) | (dense < 0)
    if bad.any():
        agent, state, action = np.argwhere(bad)[0]
        raise ValueError(f"policy probability of agent {agent}, action {action} at state "
                         f"{state} is {float(dense[agent, state, action])!r}; it must be finite "
                         "and >= 0")
    totals = dense.sum(axis=2)
    off = np.abs(totals - 1.0) > 1e-9
    if off.any():
        agent, state = np.argwhere(off)[0]
        raise ValueError(f"policy probabilities of agent {agent} at state {state} sum to "
                         f"{float(totals[agent, state])!r}, not 1")
    return dense


def joint_policy_support(per_agent: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support of the product policy of per-agent (n, S, A) probabilities:
    the (state, joint action) entries at which every agent's probability is
    positive.

    Returns ``(rows, joint_actions, probs)`` in row-major order: by state,
    then by joint action index (agent 0 the least significant digit). Each
    probability is the product over agents taken in agent order 0..n-1, so
    it has the bits of the dense (S, A^n) product built agent by agent.
    A one-hot policy gives one entry per state.
    """
    n, n_states, n_actions = per_agent.shape
    rows = np.arange(n_states)
    joint = np.zeros(n_states, dtype=np.int64)
    probs = np.ones(n_states)
    for i in range(n):
        # Agent i is the most significant digit so far: each of its positive
        # entries at state s is paired with every current entry of s, in order.
        agent_rows, agent_actions = np.nonzero(per_agent[i] > 0)
        counts = np.bincount(rows, minlength=n_states)
        reps = counts[agent_rows]
        picked = np.repeat(np.arange(len(agent_rows)), reps)
        offset = np.arange(len(picked)) - np.repeat(np.cumsum(reps) - reps, reps)
        current = (np.cumsum(counts) - counts)[agent_rows][picked] + offset
        rows = agent_rows[picked]
        joint = joint[current] + agent_actions[picked] * n_actions**i
        probs = probs[current] * per_agent[i][agent_rows, agent_actions][picked]
    return rows, joint, probs


def _agent_fold(start: float, terms: np.ndarray, combine) -> np.ndarray:
    """(S, A^n) table combine(...combine(start, terms[0][s, a_0])...,
    terms[n-1][s, a_{n-1}]) over every joint action a.

    Built one agent at a time by outer broadcasting, (S, A^k) with (S, A)
    to (S, A^(k+1)), agent k the most significant digit; the fold order is
    the same at every cell.
    """
    n_states = terms.shape[1]
    table = np.full((n_states, 1), start)
    for term in terms:
        table = combine(table[:, None, :], term[:, :, None]).reshape(n_states, -1)
    return table


def _support_checked_ratios(pi_d: np.ndarray, beta_d: np.ndarray) -> np.ndarray:
    """Per-agent pi/beta tables with the 0/0 := 0 convention, (n, S, A)."""
    _check_support(pi_d, beta_d)
    safe_beta = np.where(beta_d > 0, beta_d, 1.0)
    return np.where(pi_d > 0, pi_d / safe_beta, 0.0)


def _expectation(model: MMDPModel, support, x: np.ndarray) -> np.ndarray:
    """E_pi[x(s, .)] per state, summed over the support entries in order."""
    rows, actions, probs = support
    return np.bincount(rows, weights=probs * x[rows, actions], minlength=model.n_states)


def _solve_q(model: MMDPModel, support, base: np.ndarray) -> np.ndarray:
    """Q = base + gamma * E[V(s')], with V solving (I - gamma * P_pi) V = E_pi[base]."""
    system = model.transition_matrix(*support)
    system *= -model.gamma
    system.flat[::model.n_states + 1] += 1.0
    v = np.linalg.solve(system, _expectation(model, support, base))
    return base + model.gamma * model.expected_next_values(v)


def _evaluate(model: MMDPModel, support,
              base: np.ndarray) -> Tuple[np.ndarray, np.ndarray, SolveReport]:
    """Solution of Q = base + gamma * E[V(s')], V = E_pi[Q].

    The returned V is E_pi of the returned Q; the report's residual is the
    sup-norm Bellman residual of that Q.
    """
    q = _solve_q(model, support, base)
    v = _expectation(model, support, q)
    residual = float(np.max(np.abs(base + model.gamma * model.expected_next_values(v) - q)))
    return q, v, SolveReport(1, residual, True)


def exact_policy_eval(model: MMDPModel, pi: FactoredPolicy):
    """Unpenalized policy evaluation: the true-value oracle."""
    support = joint_policy_support(_policy_dense(model, pi))
    q, v, report = _evaluate(model, support, model.rewards)
    return JointQTable(q), v, report


def cfcql_fixed_point(model: MMDPModel, pi: FactoredPolicy, beta: FactoredPolicy,
                      lam: np.ndarray, alpha: float):
    """Penalized evaluation with the per-agent counterfactual ratio penalty.

    The fixed point of Q = T_pi Q - alpha * (sum_i lambda_i pi_i/beta_i - 1),
    with one (n,) weight vector ``lam`` at every state.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if np.shape(lam) != (model.n_agents,):
        raise ValueError(f"lambda has shape {np.shape(lam)}, expected ({model.n_agents},)")
    pi_d = _policy_dense(model, pi)
    ratios = _support_checked_ratios(pi_d, _policy_dense(model, beta))
    penalty = _agent_fold(-1.0, lam[:, None, None] * ratios, np.add)
    base = model.rewards - alpha * penalty
    q, v, report = _evaluate(model, joint_policy_support(pi_d), base)
    return JointQTable(q), v, report


def macql_fixed_point(model: MMDPModel, pi: FactoredPolicy, beta: FactoredPolicy,
                      alpha: float):
    """Penalized evaluation with the joint-ratio penalty pi(a|s)/beta(a|s) - 1."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    pi_d = _policy_dense(model, pi)
    ratios = _support_checked_ratios(pi_d, _policy_dense(model, beta))
    joint_ratio = _agent_fold(1.0, ratios, np.multiply)
    base = model.rewards - alpha * (joint_ratio - 1.0)
    q, v, report = _evaluate(model, joint_policy_support(pi_d), base)
    return JointQTable(q), v, report


def _tie_floor(q: np.ndarray) -> np.ndarray:
    """Per row, the least value tied with the row max: row max minus
    TIE_EPS * max(1, |row max|).

    Entries that are equal in exact arithmetic differ by rounding alone, so
    ``np.argmax`` would let rounding pick among them.
    """
    row_max = q.max(axis=1)
    return row_max - TIE_EPS * np.maximum(1.0, np.abs(row_max))


def _lowest_tied(q: np.ndarray) -> np.ndarray:
    """Per row, the lowest column tied with the row max."""
    return np.argmax(q >= _tie_floor(q)[:, None], axis=1)


def _optimality_residual(model: MMDPModel, q: np.ndarray) -> float:
    """Sup-norm Bellman-optimality residual of Q."""
    target = model.rewards + model.gamma * model.expected_next_values(q.max(axis=1))
    return float(np.max(np.abs(target - q)))


def value_iteration(model: MMDPModel, max_iter: int = DEFAULT_MAX_ITER):
    """Optimal-value oracle, solved by Howard policy iteration.

    The name predates the method; it stays because the benchmark calls and
    traces the function by it, and a rename waits for the next change to the
    benchmark.

    Starting from the reward-greedy joint policy, each step evaluates the
    deterministic policy with one direct solve on its one-entry-per-state
    support and one Bellman backup. A state then switches joint action only
    if another one beats its current one by more than the tie margin, and
    takes the lowest joint action tied with the row max. The loop ends when
    no state switches; V is then Q at each state's chosen joint action. The
    report counts the evaluations and gives the Bellman-optimality residual
    of the returned Q.
    """
    rows = np.arange(model.n_states)
    ones = np.ones(model.n_states)
    actions = _lowest_tied(model.rewards)
    q = model.rewards
    for it in range(1, max_iter + 1):
        q = _solve_q(model, (rows, actions, ones), model.rewards)
        chosen = q[rows, actions]
        switch = chosen < _tie_floor(q)
        if not switch.any():
            return JointQTable(q), chosen, SolveReport(it, _optimality_residual(model, q), True)
        actions = np.where(switch, _lowest_tied(q), actions)
    raise ConvergenceError(max_iter, _optimality_residual(model, q))


def greedy_policy_from_q(model: MMDPModel, q: JointQTable) -> FactoredPolicy:
    """One-hot factored policy from the joint argmax of a JointQTable, ties
    broken to the lowest joint index."""
    actions = decode_joint(_lowest_tied(q.values), model.n_agents, model.n_actions)
    return greedy_policy_from_actions(actions, model.n_actions)


def empirical_model(dataset: Dataset, spec: EnvSpec) -> MMDPModel:
    """Maximum-likelihood tabular model from dataset counts.

    Unseen (state, joint action) pairs become zero-reward self-loops and are
    flagged through ``unseen_mask``.
    """
    if spec.state_kind != "discrete":
        raise ValueError("empirical_model needs discrete (tabular) states")
    n_states = state_count(spec)
    n_joint = spec.n_actions**spec.n_agents
    if n_states * n_joint > MAX_TABLE_CELLS:
        raise ValueError(f"table of {n_states} x {n_joint} cells exceeds capacity")

    cell = dataset.states * n_joint + encode_joint(dataset.actions, spec.n_actions)
    visit = np.bincount(cell, minlength=n_states * n_joint)
    # bincount adds the weights in row order, as a loop over the rows would
    reward_sum = np.bincount(cell, weights=dataset.rewards, minlength=n_states * n_joint)

    # next-state counts per (s, a): distinct (cell, s') pairs in sorted order
    pairs, pair_counts = np.unique(cell * n_states + dataset.next_states, return_counts=True)
    pair_cell, pair_next = np.divmod(pairs, n_states)
    firsts = np.flatnonzero(np.diff(pair_cell, prepend=-1))
    widths = np.diff(np.append(firsts, len(pairs)))
    k_max = int(widths.max(initial=1))
    rank = np.arange(len(pairs)) - np.repeat(firsts, widths)
    next_states = np.repeat(np.arange(n_states, dtype=np.int64), n_joint)  # self loops
    next_states = np.repeat(next_states[:, None], k_max, axis=1)
    next_states[pair_cell[firsts]] = pair_next[firsts, None]  # padding: first successor
    next_states[pair_cell, rank] = pair_next
    next_probs = np.zeros((n_states * n_joint, k_max))
    next_probs[:, 0] = visit == 0
    next_probs[pair_cell, rank] = pair_counts / visit[pair_cell]

    seen = visit > 0
    rewards = np.where(seen, reward_sum / np.maximum(visit, 1), 0.0)

    starts = np.bincount(dataset.states[dataset.starts], minlength=n_states).astype(np.float64)
    if starts.sum() > 0:
        starts /= starts.sum()
    else:
        starts[:] = 1.0 / n_states

    return MMDPModel(
        n_states=n_states,
        n_agents=spec.n_agents,
        n_actions=spec.n_actions,
        gamma=spec.gamma,
        r_max=spec.r_max,
        next_states=next_states.reshape(n_states, n_joint, k_max),
        next_probs=next_probs.reshape(n_states, n_joint, k_max),
        rewards=rewards.reshape(n_states, n_joint),
        initial_distribution=starts,
        unseen_mask=~seen.reshape(n_states, n_joint),
    )


def learner_fixed_point(dataset: Dataset, alpha: float, max_iter: int = DEFAULT_MAX_ITER):
    """Stationary point of the tabular cfcql learner's full-batch objective.

    Per data transition the objective is
    1/2 (Q_tot - y)^2 + alpha * sum_i lambda_i (logsumexp Q_i(s, .) - Q_i(s, a_i))
    with Q_tot = sum_i Q_i(s, a_i), lambda_i = 1/n and the target
    y = r + gamma * sum_i max Q_i(s', .) held fixed, as the target table is
    during training; ``done`` is ignored, since train_offline always
    bootstraps timeouts. State-actions are weighted by their dataset counts.
    At the returned table the target equals the table and the gradient
    vanishes. Each sweep refreshes y from the current table and takes one
    Newton step on every visited state's convex objective; the sweeps stop
    once the sup-norm change is <= DEFAULT_TOL, or raise ConvergenceError
    after ``max_iter`` sweeps.

    The additive mixer leaves the per-agent split of Q_tot free (adding c_i
    to agent i's row with sum_i c_i = 0 changes no loss term); the
    pseudo-inverse keeps every agent's row sum equal. Unvisited states, and
    at alpha = 0 actions an agent never took, get no gradient and keep the
    learner's initial value 0; with n >= 2 the result is then unique only
    where the data fix the values up to that split.

    Returns the (n_states, n_agents, n_actions) table and a SolveReport.
    Raises SupportError when alpha > 0 and a visited state lacks one of an
    agent's actions: the penalty's gradient on that entry is always
    positive, so no finite stationary point exists.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    spec = dataset.header.spec
    model = empirical_model(dataset, spec)
    n, n_act = spec.n_agents, spec.n_actions
    width = n * n_act
    counts = np.zeros((model.n_states, model.n_joint_actions))
    np.add.at(counts, (dataset.states, encode_joint(dataset.actions, n_act)), 1.0)
    # design[a] picks the per-agent entries that sum to Q_tot(s, a)
    design = np.zeros((model.n_joint_actions, width))
    design[np.arange(model.n_joint_actions)[:, None],
           np.arange(n) * n_act + all_joint_actions(n, n_act)] = 1.0
    taken = counts @ design  # (S, n * A) counts of agent i taking action b
    visits = counts.sum(axis=1)
    missing = (visits[:, None] > 0) & (taken == 0)
    if alpha > 0 and np.any(missing):
        state, column = np.argwhere(missing)[0]
        raise SupportError(agent=int(column // n_act), action=int(column % n_act),
                           state=int(state))
    weight = alpha / n * visits  # alpha * lambda_i * count(s)
    td_hessian = np.einsum("ja,sj,jb->sab", design, counts, design)
    q = np.zeros((model.n_states, width))
    residual = np.inf
    for it in range(1, max_iter + 1):
        per_agent = q.reshape(model.n_states, n, n_act)
        v = per_agent.max(axis=2).sum(axis=1)
        y = model.rewards + model.gamma * model.expected_next_values(v)
        probs = softmax(per_agent, axis=2)
        grad = ((counts * (q @ design.T - y)) @ design
                + weight[:, None] * probs.reshape(q.shape) - alpha / n * taken)
        hessian = td_hessian.copy()
        for i in range(n):
            block = slice(i * n_act, (i + 1) * n_act)
            p = probs[:, i]
            hessian[:, block, block] += weight[:, None, None] * (
                p[:, :, None] * np.eye(n_act) - p[:, :, None] * p[:, None, :])
        step = np.einsum("sab,sb->sa", np.linalg.pinv(hessian, rcond=1e-10, hermitian=True),
                         grad)
        q = q - step
        residual = float(np.max(np.abs(step)))
        if residual <= DEFAULT_TOL:
            return q.reshape(model.n_states, n, n_act), SolveReport(it, residual, True)
    raise ConvergenceError(max_iter, residual)
