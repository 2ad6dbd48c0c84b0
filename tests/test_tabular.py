import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from cfcql_lab.core import empirical_behavior
from cfcql_lab.divergence import SupportError, lambda_uniform
from cfcql_lab.envs import EqualLine, MMDPModel, ToyMMDP, all_joint_actions, encode_joint
from cfcql_lab.neural import softmax
from cfcql_lab.tabular import (
    DOUBLING_FLOOR,
    TIE_EPS,
    ConvergenceError,
    cfcql_fixed_point,
    empirical_model,
    exact_policy_eval,
    greedy_policy_from_q,
    joint_policy_support,
    learner_fixed_point,
    macql_fixed_point,
    _lowest_tied,
    value_iteration,
)

from conftest import make_dataset, random_toy_dataset


def random_factored_policy(rng, n_agents, n_states, n_actions, floor=0.0):
    """(n, S, A) per-agent probabilities, drawn state by state."""
    rows = []
    for _ in range(n_states):
        probs = rng.dirichlet(np.ones(n_actions), size=n_agents)
        if floor > 0:
            probs = (1 - floor * n_actions) * probs + floor
        rows.append(probs)
    return np.stack(rows, axis=1)


def uniform_policy(n_agents, n_states, n_actions):
    return np.full((n_agents, n_states, n_actions), 1.0 / n_actions)


def single_state_model(reward=1.0, gamma=0.9):
    return MMDPModel(
        n_states=1,
        n_agents=1,
        n_actions=2,
        gamma=gamma,
        next_states=np.zeros((1, 2, 1), dtype=np.int64),
        next_probs=np.ones((1, 2, 1)),
        rewards=np.full((1, 2), reward),
    )


def two_successor_model(rng, n_states=4, n_actions=3, n_agents=1):
    """Model whose every (s, a) row has two random successors."""
    n_joint = n_actions**n_agents
    next_states = np.stack(
        [rng.integers(0, n_states, size=(n_states, n_joint)) for _ in range(2)], axis=2
    )
    p = rng.uniform(0.2, 0.8, size=(n_states, n_joint))
    return MMDPModel(
        n_states=n_states,
        n_agents=n_agents,
        n_actions=n_actions,
        gamma=0.9,
        next_states=next_states,
        next_probs=np.stack([p, 1 - p], axis=2),
        rewards=rng.uniform(-1, 1, size=(n_states, n_joint)),
    )


def reference_sweeps(model, joint_pi, base):
    """Q <- base + gamma * E[E_pi Q(s')] from zero until a sweep changes Q by
    at most 1e-13 * max(1, max|Q|)."""
    q = np.zeros_like(base)
    for _ in range(100_000):
        q_new = base + model.gamma * model.expected_next_values((joint_pi * q).sum(axis=1))
        done = np.max(np.abs(q_new - q)) <= 1e-13 * max(1.0, np.max(np.abs(q_new)))
        q = q_new
        if done:
            return q
    raise AssertionError("reference sweeps did not converge")


def test_zero_reward_model_gives_zero_q():
    model = single_state_model(reward=0.0)
    q, v, report = exact_policy_eval(model, uniform_policy(1, 1, 2))
    assert report.iterations == 1
    np.testing.assert_allclose(q, 0.0)
    np.testing.assert_allclose(v, 0.0)


def test_geometric_series_value():
    model = single_state_model(reward=1.0, gamma=0.9)
    q, v, _ = exact_policy_eval(model, uniform_policy(1, 1, 2))
    np.testing.assert_allclose(q, 10.0, atol=1e-8)
    np.testing.assert_allclose(v, 10.0, atol=1e-8)


def test_policy_eval_matches_monte_carlo():
    env = ToyMMDP(2, gamma=0.9)
    model = env.exact_model()
    _, v, _ = exact_policy_eval(model, uniform_policy(2, model.n_states, 3))

    rng = np.random.default_rng(77)
    episodes, horizon, start = 100_000, 200, 4
    states = np.full(episodes, start)
    returns = np.zeros(episodes)
    discount = 1.0
    for _ in range(horizon):
        joint = rng.integers(0, model.n_joint_actions, size=episodes)
        returns += discount * model.rewards[states, joint]
        states = model.next_states[states, joint, 0]
        discount *= model.gamma
    se = returns.std() / np.sqrt(episodes)
    assert abs(returns.mean() - v[start]) < 3 * se + 1e-6


def test_value_iteration_toy_optimum():
    env = ToyMMDP(3, gamma=0.95)
    model = env.exact_model()
    _, v_star, _ = value_iteration(model)
    # every state can reach (and stay in) full target occupancy immediately
    np.testing.assert_allclose(v_star, 1.0 / (1.0 - 0.95), atol=1e-8)
    greedy = greedy_policy_from_q(model, value_iteration(model)[0])
    _, v_greedy, _ = exact_policy_eval(model, greedy)
    np.testing.assert_allclose(v_greedy, v_star, atol=1e-8)


def test_cfcql_alpha_zero_equals_exact_eval(rng):
    env = ToyMMDP(2, gamma=0.9)
    model = env.exact_model()
    pi = random_factored_policy(rng, 2, model.n_states, 3)
    beta = random_factored_policy(rng, 2, model.n_states, 3, floor=1e-2)
    _, v_plain, _ = exact_policy_eval(model, pi)
    _, v_pen, _ = cfcql_fixed_point(model, pi, beta, lambda_uniform(2), alpha=0.0)
    np.testing.assert_allclose(v_pen, v_plain, atol=1e-9)


def test_cfcql_pi_equals_beta_no_penalty(rng):
    env = ToyMMDP(2, gamma=0.9)
    model = env.exact_model()
    pi = random_factored_policy(rng, 2, model.n_states, 3, floor=1e-2)
    _, v_plain, _ = exact_policy_eval(model, pi)
    for alpha in (0.1, 1.0, 10.0):
        _, v_pen, _ = cfcql_fixed_point(model, pi, pi, lambda_uniform(2), alpha=alpha)
        np.testing.assert_allclose(v_pen, v_plain, atol=1e-8)
        _, v_ma, _ = macql_fixed_point(model, pi, pi, alpha=alpha)
        np.testing.assert_allclose(v_ma, v_plain, atol=1e-8)


def test_cfcql_underestimates_everywhere(rng):
    env = ToyMMDP(3, gamma=0.95)
    model = env.exact_model()
    pi = random_factored_policy(rng, 3, model.n_states, 3)
    beta = random_factored_policy(rng, 3, model.n_states, 3, floor=1e-2)
    _, v_true, _ = exact_policy_eval(model, pi)
    _, v_hat, _ = cfcql_fixed_point(model, pi, beta, lambda_uniform(3), alpha=0.5)
    assert np.all(v_hat < v_true + 1e-10)
    # strict at some state because pi != beta
    assert np.min(v_true - v_hat) > 0 or np.max(v_true - v_hat) > 1e-6


def test_macql_single_agent_equals_cfcql(rng):
    env = ToyMMDP(1, gamma=0.9)
    model = env.exact_model()
    pi = random_factored_policy(rng, 1, 3, 3)
    beta = random_factored_policy(rng, 1, 3, 3, floor=1e-2)
    _, v_cf, _ = cfcql_fixed_point(model, pi, beta, lambda_uniform(1), alpha=0.7)
    _, v_ma, _ = macql_fixed_point(model, pi, beta, alpha=0.7)
    np.testing.assert_allclose(v_ma, v_cf, atol=1e-10)


def test_macql_dominated_by_cfcql(rng):
    env = ToyMMDP(5, gamma=0.9)
    model = env.exact_model()
    pi = random_factored_policy(rng, 5, model.n_states, 3)
    beta = random_factored_policy(rng, 5, model.n_states, 3, floor=2e-2)
    lam = lambda_uniform(5)
    _, v_cf, _ = cfcql_fixed_point(model, pi, beta, lam, alpha=0.3)
    _, v_ma, _ = macql_fixed_point(model, pi, beta, alpha=0.3)
    assert np.all(v_ma <= v_cf + 1e-9)
    _, v_true, _ = exact_policy_eval(model, pi)
    assert np.all(v_cf <= v_true + 1e-9)


def test_penalty_monotone_in_alpha(rng):
    env = ToyMMDP(2, gamma=0.9)
    model = env.exact_model()
    pi = random_factored_policy(rng, 2, 9, 3)
    beta = random_factored_policy(rng, 2, 9, 3, floor=1e-2)
    lam = lambda_uniform(2)
    values = []
    for alpha in (0.01, 0.1, 1.0, 10.0):
        values.append(cfcql_fixed_point(model, pi, beta, lam, alpha)[1])
    for lo, hi in zip(values, values[1:]):
        assert np.all(hi <= lo + 1e-9)
    values = [macql_fixed_point(model, pi, beta, alpha)[1] for alpha in (0.01, 1.0)]
    assert np.all(values[1] <= values[0] + 1e-9)


@pytest.mark.parametrize("case", ["toy_n3", "two_successor"])
def test_evaluators_match_reference_sweeps(case, rng):
    model = ToyMMDP(3, gamma=0.9).exact_model() if case == "toy_n3" else two_successor_model(rng)
    n, n_states = model.n_agents, model.n_states
    pi = random_factored_policy(rng, n, n_states, model.n_actions)
    beta = random_factored_policy(rng, n, n_states, model.n_actions, floor=1e-2)
    lam = lambda_uniform(n)
    alpha = 0.5
    joint_pi = dense_joint_policy(pi)
    cf_penalty, joint_ratio = dense_penalties(pi, beta, lam)

    q, v, report = exact_policy_eval(model, pi)
    expected = reference_sweeps(model, joint_pi, model.rewards)
    scale = max(1.0, np.max(np.abs(expected)))
    np.testing.assert_allclose(q, expected, rtol=0, atol=1e-11 * scale)
    np.testing.assert_allclose(v, (joint_pi * expected).sum(axis=1), rtol=0, atol=1e-11 * scale)
    bellman = model.rewards + model.gamma * model.expected_next_values(
        (joint_pi * q).sum(axis=1)) - q
    assert report.iterations == 1
    assert report.residual == pytest.approx(np.max(np.abs(bellman)), rel=0, abs=1e-14 * scale)

    # The penalized evaluators return E_pi of the dense penalty, per state,
    # and the V of the penalized sweeps.
    for (d, v, report), penalty in [
        (cfcql_fixed_point(model, pi, beta, lam, alpha), cf_penalty),
        (macql_fixed_point(model, pi, beta, alpha), joint_ratio - 1.0),
    ]:
        np.testing.assert_allclose(d, (joint_pi * penalty).sum(axis=1), rtol=1e-12, atol=1e-12)
        expected = reference_sweeps(model, joint_pi, model.rewards - alpha * penalty)
        scale = max(1.0, np.max(np.abs(expected)))
        np.testing.assert_allclose(v, (joint_pi * expected).sum(axis=1), rtol=0,
                                   atol=1e-11 * scale)
        r_pi = (joint_pi * model.rewards).sum(axis=1) - alpha * d
        equation = r_pi + model.gamma * (joint_pi * model.expected_next_values(v)).sum(axis=1) - v
        assert report.iterations == 1
        assert report.residual == pytest.approx(np.max(np.abs(equation)), rel=0,
                                                abs=1e-14 * scale)


def test_support_error_identifies_agent_state_action():
    env = ToyMMDP(2, gamma=0.9)
    model = env.exact_model()
    pi = uniform_policy(2, 9, 3)
    beta = uniform_policy(2, 9, 3)
    beta[:, 4] = [[0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]]
    with pytest.raises(SupportError) as err:
        cfcql_fixed_point(model, pi, beta, lambda_uniform(2), alpha=1.0)
    assert (err.value.agent, err.value.state, err.value.action) == (0, 4, 2)


def test_cfcql_fixed_point_rejects_per_state_lambda(rng):
    model = ToyMMDP(3).exact_model()
    pi = random_factored_policy(rng, 3, model.n_states, 3)
    for lam, message in [
        # an (S, n) table with n == |A| would broadcast against (S, A) arrays
        (np.full((27, 3), 1 / 3), r"lambda has shape \(27, 3\), expected \(3,\)"),
        # D_CF is E_pi of the penalty only when lambda lies on the simplex
        ([0.5, 0.5, np.nan], r"lambda is \[0\.5, 0\.5, nan\]"),
        ([0.5, 0.5, np.inf], r"lambda is \[0\.5, 0\.5, inf\]"),
        ([0.75, 0.5, -0.25], r"lambda is \[0\.75, 0\.5, -0\.25\]"),
        ([0.5, 0.5, 0.5], r"lambda is \[0\.5, 0\.5, 0\.5\]; it must be finite, >= 0 and sum"),
        ([0.5, 0.5, 1e-8], r"lambda is \[0\.5, 0\.5, 1e-08\]"),
    ]:
        with pytest.raises(ValueError, match=message):
            cfcql_fixed_point(model, pi, pi, np.asarray(lam), alpha=1.0)
    cfcql_fixed_point(model, pi, pi, np.array([0.5, 0.5, 1e-10]), alpha=1.0)  # within 1e-9


def detour_model(gamma=0.9):
    """Single agent, three states. From state 0, action 0 pays 1 once and
    ends in the zero-reward state 1; action 1 pays 0 and moves to state 2,
    which pays 1 forever. The reward-greedy start picks action 0, so policy
    iteration needs a second step."""
    next_states = np.array([[1, 2], [1, 1], [2, 2]], dtype=np.int64)[:, :, None]
    return MMDPModel(
        n_states=3,
        n_agents=1,
        n_actions=2,
        gamma=gamma,
        next_states=next_states,
        next_probs=np.ones((3, 2, 1)),
        rewards=np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
    )


def test_nonconvergence_raises():
    model = detour_model()
    with pytest.raises(ConvergenceError) as err:
        value_iteration(model, max_iter=1)
    assert err.value.iterations == 1
    _, v, report = value_iteration(model, max_iter=2)
    assert report.iterations == 2
    np.testing.assert_allclose(v, [0.9 / (1 - 0.9), 0.0, 1 / (1 - 0.9)], rtol=0, atol=1e-12)


def reference_value_iteration(model):
    """Q <- r + gamma * E[max Q(s', .)] from zero until a sweep changes Q by
    at most 1e-13 * max(1, max|Q|)."""
    q = np.zeros_like(model.rewards)
    for _ in range(100_000):
        q_new = model.rewards + model.gamma * model.expected_next_values(q.max(axis=1))
        done = np.max(np.abs(q_new - q)) <= 1e-13 * max(1.0, np.max(np.abs(q_new)))
        q = q_new
        if done:
            return q
    raise AssertionError("reference value iteration did not converge")


@pytest.mark.parametrize("case", ["toy_n3", "two_successor"])
def test_value_iteration_matches_reference_sweeps(case, rng):
    model = ToyMMDP(3, gamma=0.9).exact_model() if case == "toy_n3" else two_successor_model(rng)
    q, v, report = value_iteration(model)
    expected = reference_value_iteration(model)
    scale = max(1.0, np.max(np.abs(expected)))
    np.testing.assert_allclose(q, expected, rtol=0, atol=1e-9 * scale)
    assert report.residual <= 1e-10
    bellman = model.rewards + model.gamma * model.expected_next_values(q.max(axis=1)) - q
    assert report.residual == np.max(np.abs(bellman))
    _, v_greedy, _ = exact_policy_eval(model, greedy_policy_from_q(model, q))
    np.testing.assert_allclose(v_greedy, v, rtol=0, atol=1e-10)


def test_greedy_policy_breaks_ties_to_lowest_joint_index():
    model = ToyMMDP(2).exact_model()  # 9 joint actions
    up = np.nextafter
    q = np.zeros((model.n_states, model.n_joint_actions))
    q[0, [2, 5]] = [1.0, up(1.0, 2.0)]  # one ulp apart: tied
    q[1, [3, 4]] = [-2.0, up(-2.0, 0.0)]
    q[1, [0, 1, 2, 5, 6, 7, 8]] = -3.0
    q[2, [1, 7]] = [1e6, 1e6 + 1e-7]  # tied within 1e-12 relative
    q[3, [1, 7]] = [1e6, 1e6 + 1e-3]  # not tied
    best = np.argmax(q, axis=1)
    assert list(best[:4]) == [5, 4, 7, 7]  # np.argmax lets rounding decide
    policy = greedy_policy_from_q(model, q)
    assert policy.shape == (2, model.n_states, 3) and policy.dtype == np.float64
    np.testing.assert_array_equal(policy.sum(axis=2), 1.0)
    chosen = encode_joint(policy[:, :4].argmax(axis=2).T, 3)
    assert list(chosen) == [2, 3, 1, 7]


# -- the policy's support against the dense (S, |A|^n) forms -------------------


def dense_joint_policy(per_agent):
    """(S, |A|^n) product policy, multiplied agent by agent in order 0..n-1."""
    n, n_states, n_actions = per_agent.shape
    digits = all_joint_actions(n, n_actions)
    joint = np.ones((n_states, len(digits)))
    for i in range(n):
        joint *= per_agent[i][:, digits[:, i]]
    return joint


def dense_transition_matrix(model, joint_pi):
    """(S, S) matrix from a bincount over every (s, a, k)."""
    n = model.n_states
    cells = np.arange(n)[:, None, None] * n + model.next_states
    weights = joint_pi[:, :, None] * model.next_probs
    return np.bincount(cells.ravel(), weights=weights.ravel(), minlength=n * n).reshape(n, n)


def dense_solve_v(model, joint_pi, r_pi):
    """V solving (I - gamma * P_pi) V = r_pi by the LU, with the dense P_pi."""
    system = dense_transition_matrix(model, joint_pi)
    system *= -model.gamma
    system.flat[::model.n_states + 1] += 1.0
    return np.linalg.solve(system, r_pi)


def dense_v_residual(model, joint_pi, r_pi, v):
    """Sup-norm residual of (I - gamma * P_pi) V = r_pi, with the dense P_pi."""
    return float(np.max(np.abs(r_pi + model.gamma * dense_transition_matrix(model, joint_pi) @ v
                               - v)))


def dense_evaluate(model, joint_pi, base):
    """Direct solve on the dense policy: Q, V = E_pi[Q] and the Bellman residual."""
    v = dense_solve_v(model, joint_pi, (joint_pi * base).sum(axis=1))
    q = base + model.gamma * model.expected_next_values(v)
    v = (joint_pi * q).sum(axis=1)
    residual = float(np.max(np.abs(base + model.gamma * model.expected_next_values(v) - q)))
    return q, v, residual


def dense_penalties(pi_d, beta_d, lam):
    """cfcql's sum_i lambda_i pi_i/beta_i - 1 and macql's prod_i pi_i/beta_i over every
    joint action, gathered agent by agent."""
    n, n_states, n_actions = pi_d.shape
    digits = all_joint_actions(n, n_actions)
    ratios = np.where(pi_d > 0, pi_d / beta_d, 0.0)
    cf_penalty = -np.ones((n_states, len(digits)))
    joint_ratio = np.ones((n_states, len(digits)))
    for i in range(n):
        cf_penalty += lam[i] * ratios[i][:, digits[:, i]]
        joint_ratio *= ratios[i][:, digits[:, i]]
    return cf_penalty, joint_ratio


def policy_array(kind, rng, n_agents, n_states, n_actions):
    """(n, S, A) per-agent probabilities: one-hot, stochastic, or stochastic
    with about 40% of the entries zeroed."""
    if kind == "onehot":
        return np.eye(n_actions)[rng.integers(0, n_actions, size=(n_agents, n_states))]
    probs = rng.dirichlet(np.ones(n_actions), size=(n_agents, n_states))
    if kind == "partly_zero":
        probs[rng.random(probs.shape) < 0.4] = 0.0
        probs[..., 0] += probs.sum(axis=2) == 0
        probs /= probs.sum(axis=2, keepdims=True)
    return probs


def support_case_model(case, n, rng):
    if case == "toy":
        return ToyMMDP(n, gamma=0.9).exact_model()
    return two_successor_model(rng, n_states=5, n_agents=n)


@pytest.mark.parametrize("kind", ["onehot", "stochastic", "partly_zero"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["toy", "two_successor"])
def test_support_and_transition_matrix_equal_dense_forms(case, n, kind, rng):
    model = support_case_model(case, n, rng)
    per_agent = policy_array(kind, rng, n, model.n_states, model.n_actions)
    rows, actions, probs = joint_policy_support(per_agent)
    joint_pi = dense_joint_policy(per_agent)
    dense_rows, dense_actions = np.nonzero(joint_pi)
    np.testing.assert_array_equal(rows, dense_rows)
    np.testing.assert_array_equal(actions, dense_actions)
    assert probs.tobytes() == joint_pi[dense_rows, dense_actions].tobytes()
    assert np.all(np.diff(rows * model.n_joint_actions + actions) > 0)  # row-major
    if kind == "onehot":
        np.testing.assert_array_equal(rows, np.arange(model.n_states))
    matrix = model.transition_matrix(rows, actions, probs)
    assert matrix.tobytes() == dense_transition_matrix(model, joint_pi).tobytes()


def doubling_bound(model, base):
    """Largest gap allowed between pointer doubling and the LU on a model whose
    one-hot policy gives each state one successor, for V and Q alike.

    With scale = max|base| / (1 - gamma), a bound on every partial sum, each
    doubling pass rounds once (passes * eps * scale), and the rounded powers
    gamma^(2^j) add at most sum_j 2^j gamma^(2^j) eps * scale <=
    cond * eps * scale. The LU's forward error is at most cond * eps * scale,
    with cond(I - gamma P_pi) <= (1 + gamma) / (1 - gamma) in the sup norm.
    Q = base + gamma * E[V] rounds once more.
    """
    gamma = model.gamma
    passes = 0 if gamma == 0 else int(np.ceil(np.log2(np.log(DOUBLING_FLOOR) / np.log(gamma))))
    cond = (1 + gamma) / (1 - gamma)
    scale = np.max(np.abs(base)) / (1 - gamma)
    return (passes + 2 * cond + 1) * np.finfo(float).eps * scale


ALPHA = 0.5  # penalty weight of the one-hot evaluator cases


def one_hot_evaluator_cases(model, rng, sure=1.0):
    """The dense joint policy of a random one-hot pi, exact_policy_eval on it,
    and the two penalized evaluators on it, each with E_pi of its dense
    penalty table. ``sure`` is the one positive entry of each agent's row."""
    n, n_states = model.n_agents, model.n_states
    pi = sure * policy_array("onehot", rng, n, n_states, model.n_actions)
    beta = random_factored_policy(rng, n, n_states, model.n_actions, floor=1e-2)
    lam = lambda_uniform(n)
    joint_pi = dense_joint_policy(pi)
    cf_penalty, joint_ratio = dense_penalties(pi, beta, lam)
    penalized = [
        (cfcql_fixed_point(model, pi, beta, lam, ALPHA), (joint_pi * cf_penalty).sum(axis=1)),
        (macql_fixed_point(model, pi, beta, ALPHA),
         (joint_pi * (joint_ratio - 1.0)).sum(axis=1)),
    ]
    return joint_pi, exact_policy_eval(model, pi), penalized


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_evaluators_equal_dense_evaluate_on_one_hot_policies(n, rng):
    # Each state has one successor: doubling against the LU, within the bound.
    model = ToyMMDP(n, gamma=0.9).exact_model()
    joint_pi, (q, v, report), penalized = one_hot_evaluator_cases(model, rng)
    q_ref, v_ref, residual_ref = dense_evaluate(model, joint_pi, model.rewards)
    bound = doubling_bound(model, model.rewards)
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=bound)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=bound)
    assert abs(report.residual - residual_ref) <= bound
    for (d, v, report), d_ref in penalized:
        np.testing.assert_allclose(d, d_ref, rtol=1e-13, atol=0)
        r_pi = (joint_pi * model.rewards).sum(axis=1) - ALPHA * d
        v_ref = dense_solve_v(model, joint_pi, r_pi)
        bound = doubling_bound(model, r_pi)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=bound)
        assert abs(report.residual - dense_v_residual(model, joint_pi, r_pi, v)) <= bound


@pytest.mark.parametrize("case", ["two_successor_n1", "two_successor_n2", "toy_sure_below_1"])
def test_lu_runs_unless_each_state_has_one_sure_successor(case, rng):
    # Two successors of probability in (0.2, 0.8), or a policy entry of
    # 1 - 5e-10 (within the row-sum check): the LU, with the dense LU's bits.
    if case.startswith("two_successor"):
        model, sure = two_successor_model(rng, n_states=5, n_agents=int(case[-1])), 1.0
    else:
        model, sure = ToyMMDP(2, gamma=0.9).exact_model(), 1.0 - 5e-10
    joint_pi, (q, v, report), penalized = one_hot_evaluator_cases(model, rng, sure)
    q_ref, v_ref, residual_ref = dense_evaluate(model, joint_pi, model.rewards)
    assert q.tobytes() == q_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()
    assert report.residual == residual_ref
    # D's product form takes each agent's row to sum to 1; rows that sum to
    # sure move it by about n * (1 - sure) * (1 + D)
    slack = 4 * model.n_agents * (1.0 - sure)
    for (d, v, report), d_ref in penalized:
        np.testing.assert_allclose(d, d_ref, rtol=1e-13 + slack, atol=slack)
        r_pi = (joint_pi * model.rewards).sum(axis=1) - ALPHA * d
        assert v.tobytes() == dense_solve_v(model, joint_pi, r_pi).tobytes()
        # P_pi V sums over the support here and over every column there
        assert abs(report.residual - dense_v_residual(model, joint_pi, r_pi, v)) <= (
            doubling_bound(model, r_pi))


def test_penalized_evaluators_build_no_joint_action_table(rng):
    # At toy n = 6 one (S, |A|^n) float64 table is 4.25 MB; the evaluators
    # need only (n, S, A) arrays and the policy's support.
    n = 6
    model = ToyMMDP(n, gamma=0.9).exact_model()
    pi = policy_array("onehot", rng, n, model.n_states, model.n_actions)
    beta = random_factored_policy(rng, n, model.n_states, model.n_actions, floor=1e-2)
    lam = lambda_uniform(n)
    for solve in (lambda: cfcql_fixed_point(model, pi, beta, lam, ALPHA),
                  lambda: macql_fixed_point(model, pi, beta, ALPHA)):
        tracemalloc.start()
        try:
            solve()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.rewards.nbytes


def test_gamma_zero_gives_the_one_step_reward(rng):
    model = ToyMMDP(3, gamma=0.0).exact_model()
    pi_d = policy_array("onehot", rng, 3, model.n_states, model.n_actions)
    rows, actions, _ = joint_policy_support(pi_d)
    q, v, _ = exact_policy_eval(model, pi_d)
    assert q.tobytes() == model.rewards.tobytes()
    assert v.tobytes() == model.rewards[rows, actions].tobytes()
    _, v_star, report = value_iteration(model)
    assert v_star.tobytes() == model.rewards.max(axis=1).tobytes()
    assert report.iterations == 1


def functional_graph_model(successors, rewards, gamma):
    """One agent with one action: state s pays rewards[s] and moves to successors[s]."""
    n_states = len(successors)
    return MMDPModel(
        n_states=n_states,
        n_agents=1,
        n_actions=1,
        gamma=gamma,
        next_states=np.asarray(successors, dtype=np.int64)[:, None, None],
        next_probs=np.ones((n_states, 1, 1)),
        rewards=np.asarray(rewards, dtype=np.float64)[:, None],
    )


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("graph", ["ring", "chains"])
def test_doubling_matches_the_lu_on_rings_and_chains(graph, gamma, rng, monkeypatch):
    n_states = 1000
    if graph == "ring":
        successors = (np.arange(n_states) + 1) % n_states
    else:
        # every state points to a lower one, so each chain ends in a self-loop
        successors = np.concatenate(([0], rng.integers(0, np.arange(1, n_states))))
        loops = np.flatnonzero(rng.random(n_states) < 0.02)
        successors[loops] = loops
    model = functional_graph_model(successors, rng.uniform(-1, 1, n_states), gamma)
    # a second successor slot of probability 0 leaves one successor per state
    padded = dataclasses.replace(
        model, next_states=np.concatenate([model.next_states, model.next_states[::-1]], axis=2),
        next_probs=np.concatenate([model.next_probs, np.zeros_like(model.next_probs)], axis=2))
    with monkeypatch.context() as patch:
        patch.setattr(MMDPModel, "transition_matrix", None)  # the LU's input
        q, v, _ = exact_policy_eval(model, uniform_policy(1, n_states, 1))
        q_padded, _, _ = exact_policy_eval(padded, uniform_policy(1, n_states, 1))
    assert q_padded.tobytes() == q.tobytes()
    q_ref, v_ref, _ = dense_evaluate(model, np.ones((n_states, 1)), model.rewards)
    bound = doubling_bound(model, model.rewards)
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=bound)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=bound)


@pytest.mark.parametrize("gamma", [1 - 1e-12, np.nextafter(1.0, 0.0)])
def test_doubling_ends_for_gamma_just_below_one(gamma):
    # State 0 loops paying 1; state 1 pays 0.5 once and moves to it. The
    # bound is loose this close to 1: the point is that the passes end.
    model = functional_graph_model([0, 0], [1.0, 0.5], gamma)
    _, v, _ = exact_policy_eval(model, uniform_policy(1, 2, 1))
    expected = np.array([1.0 / (1.0 - gamma), 0.5 + gamma / (1.0 - gamma)])
    np.testing.assert_allclose(v, expected, rtol=0, atol=doubling_bound(model, model.rewards))


def test_one_successor_backup_has_the_bits_of_the_sum(rng):
    d = random_toy_dataset(rng, n_agents=3, n_transitions=600, episodes=6)
    models = [ToyMMDP(3).exact_model(), empirical_model(d, d.header.spec),
              two_successor_model(rng, n_states=6, n_agents=2)]
    assert [m.next_states.shape[2] for m in models] == [1, 1, 2]
    for model in models:
        values = rng.normal(size=model.n_states)
        summed = (model.next_probs * values[model.next_states]).sum(axis=2)
        assert model.expected_next_values(values).tobytes() == summed.tobytes()


def model_fields(**changes):
    fields = dict(n_states=2, n_agents=1, n_actions=2, gamma=0.9,
                  next_states=np.zeros((2, 2, 1), dtype=np.int64), next_probs=np.ones((2, 2, 1)),
                  rewards=np.zeros((2, 2)))
    fields.update(changes)
    return fields


@pytest.mark.parametrize("changes, message", [
    (dict(gamma=1.0), r"gamma is 1\.0; it must lie in \[0, 1\)"),
    (dict(gamma=-0.1), r"gamma is -0\.1"),
    (dict(gamma=float("nan")), r"gamma is nan"),
    (dict(next_states=np.zeros((2, 2), dtype=np.int64)), r"next_states has shape \(2, 2\)"),
    (dict(next_states=np.zeros((2, 3, 1), dtype=np.int64)), r"next_states has shape \(2, 3, 1\)"),
    (dict(next_states=np.zeros((2, 2, 0), dtype=np.int64)), r"next_states has shape \(2, 2, 0\)"),
    (dict(next_states=np.full((2, 2, 1), 2)), r"next_states must lie in \[0, 2\)"),
    (dict(next_states=np.full((2, 2, 1), -1)), r"next_states must lie in \[0, 2\)"),
    (dict(next_probs=np.ones((2, 2, 2))), r"next_probs has shape \(2, 2, 2\)"),
    (dict(rewards=np.zeros((2, 3))), r"rewards has shape \(2, 3\), expected \(2, 2\)"),
])
def test_model_rejects_bad_gamma_and_shapes(changes, message):
    MMDPModel(**model_fields())
    with pytest.raises(ValueError, match=message):
        MMDPModel(**model_fields(**changes))


def dense_policy_iteration(model):
    """Howard policy iteration on dense one-hot policies, ties to the lowest
    joint action within TIE_EPS relative: Q, V and the step count."""
    def floor(q):
        row_max = q.max(axis=1)
        return row_max - TIE_EPS * np.maximum(1.0, np.abs(row_max))

    def lowest_tied(q):
        return np.argmax(q >= floor(q)[:, None], axis=1)

    rows = np.arange(model.n_states)
    actions = lowest_tied(model.rewards)
    for it in range(1, 1000):
        joint_pi = np.zeros_like(model.rewards)
        joint_pi[rows, actions] = 1.0
        q, v, _ = dense_evaluate(model, joint_pi, model.rewards)
        switch = q[rows, actions] < floor(q)
        if not switch.any():
            return q, v, it
        actions = np.where(switch, lowest_tied(q), actions)
    raise AssertionError("dense policy iteration did not stop")


@pytest.mark.parametrize("case", ["toy_n2", "toy_n3", "toy_n4", "toy_n5", "toy_n6",
                                  "empirical_n4"])
def test_value_iteration_equals_dense_policy_iteration(case, rng):
    # Each step evaluates by doubling, the reference by the LU: the same pi*
    # and step count, values within the bound.
    n = int(case[-1])
    if case.startswith("toy"):
        model = ToyMMDP(n, gamma=0.9).exact_model()
    else:
        d = random_toy_dataset(rng, n_agents=n, n_transitions=1500, episodes=15)
        model = empirical_model(d, d.header.spec)
        assert model.unseen_mask.any() and not model.unseen_mask.all()
    q, v, report = value_iteration(model)
    q_ref, v_ref, iterations = dense_policy_iteration(model)
    np.testing.assert_array_equal(_lowest_tied(q), _lowest_tied(q_ref))
    assert report.iterations == iterations
    bound = doubling_bound(model, model.rewards)
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=bound)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=bound)


@pytest.mark.parametrize("entry, message", [
    (-0.25, "agent 1, action 2 at state 4 is -0.25"),
    (np.nan, "agent 1, action 2 at state 4 is nan"),
    (np.inf, "agent 1, action 2 at state 4 is inf"),
])
def test_solvers_reject_a_negative_or_non_finite_probability(entry, message):
    model = ToyMMDP(2).exact_model()
    good = uniform_policy(2, model.n_states, 3)
    bad = good.copy()
    bad[:, 4] = [[1 / 3, 1 / 3, 1 / 3], [0.75, 0.5, entry]]
    lam = lambda_uniform(2)
    for solve in (lambda: exact_policy_eval(model, bad),
                  lambda: cfcql_fixed_point(model, bad, good, lam, 1.0),
                  lambda: cfcql_fixed_point(model, good, bad, lam, 1.0),
                  lambda: macql_fixed_point(model, good, bad, 1.0)):
        with pytest.raises(ValueError, match=re.escape(message)):
            solve()


def test_solvers_reject_a_row_that_does_not_sum_to_one():
    model = ToyMMDP(2).exact_model()
    good = uniform_policy(2, model.n_states, 3)
    bad = good.copy()
    bad[:, 7] = [[0.5, 0.5, 1e-8], [1 / 3, 1 / 3, 1 / 3]]
    with pytest.raises(ValueError, match=r"agent 0 at state 7 sum to 1\.00000001, not 1"):
        exact_policy_eval(model, bad)
    with pytest.raises(ValueError, match=r"agent 0 at state 7 sum to"):
        macql_fixed_point(model, good, bad, 1.0)
    bad[:, 7] = [[0.5, 0.5, 1e-10], [1 / 3, 1 / 3, 1 / 3]]  # within 1e-9
    exact_policy_eval(model, bad)


@pytest.mark.parametrize("shape", [(9, 2, 3), (2, 8, 3)], ids=["transposed", "wrong_S"])
def test_solvers_reject_a_policy_of_another_shape(shape):
    # the (S, n, A) layout, or one state short, names the expected (n, S, A)
    model = ToyMMDP(2).exact_model()
    good = uniform_policy(2, model.n_states, 3)
    bad = np.full(shape, 1.0 / 3.0)
    lam = lambda_uniform(2)
    message = re.escape(f"policy has shape {shape}, expected (n, S, A) = (2, 9, 3)")
    for solve in (lambda: exact_policy_eval(model, bad),
                  lambda: cfcql_fixed_point(model, bad, good, lam, 1.0),
                  lambda: cfcql_fixed_point(model, good, bad, lam, 1.0),
                  lambda: macql_fixed_point(model, bad, good, 1.0),
                  lambda: macql_fixed_point(model, good, bad, 1.0)):
        with pytest.raises(ValueError, match=message):
            solve()


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -0.5])
def test_solvers_reject_a_non_finite_or_negative_alpha(alpha, rng):
    # nan used to give a nan V from the evaluators and a LinAlgError from
    # learner_fixed_point
    model = ToyMMDP(2).exact_model()
    pi = uniform_policy(2, model.n_states, 3)
    message = re.escape(f"alpha must be finite and >= 0, got {alpha}")
    d = random_toy_dataset(rng, n_agents=2, n_transitions=200, episodes=10)
    for solve in (lambda: cfcql_fixed_point(model, pi, pi, lambda_uniform(2), alpha),
                  lambda: macql_fixed_point(model, pi, pi, alpha),
                  lambda: learner_fixed_point(d, alpha)):
        with pytest.raises(ValueError, match=message):
            solve()


# -- empirical model -----------------------------------------------------------


def test_empirical_model_recovers_deterministic_model():
    env = ToyMMDP(2, gamma=0.9)
    model = env.exact_model()
    spec = env.spec()
    rows = []
    joint = all_joint_actions(2, 3)
    for s in range(model.n_states):
        for a in range(model.n_joint_actions):
            rows.append((s, joint[a], model.rewards[s, a], model.next_states[s, a, 0], False))
    d = make_dataset(rows, spec, starts=(0,))
    hat = empirical_model(d, spec)
    assert not hat.unseen_mask.any()
    np.testing.assert_allclose(hat.rewards, model.rewards)
    np.testing.assert_array_equal(hat.next_states[:, :, 0], model.next_states[:, :, 0])


def test_empirical_model_flags_unseen_as_self_loop():
    env = ToyMMDP(2, gamma=0.9)
    spec = env.spec()
    d = make_dataset([(0, (1, 1), 1.0, 4, True)], spec, starts=(0,))
    hat = empirical_model(d, spec)
    joint_idx = int(encode_joint(np.array([1, 1]), 3))
    assert not hat.unseen_mask[0, joint_idx]
    assert hat.unseen_mask[0, 0]
    assert hat.next_states[3, 0, 0] == 3  # self loop
    assert hat.rewards[3, 0] == 0.0


def test_empirical_model_concentrates_on_truth(rng):
    spec = ToyMMDP(1).spec()  # discrete single-agent spec shell: 3 states, 3 actions
    model = two_successor_model(rng, n_states=3)
    n_states, n_joint = model.n_states, model.n_joint_actions
    rows = []
    for _ in range(40_000):
        s = int(rng.integers(0, n_states))
        a = int(rng.integers(0, n_joint))
        k = int(rng.random() > model.next_probs[s, a, 0])
        rows.append((s, (a,), model.rewards[s, a], model.next_states[s, a, k], False))
    d = make_dataset(rows, spec, starts=(0,))
    hat = empirical_model(d, spec)
    for a in range(n_joint):
        onehot = (np.arange(n_states), np.full(n_states, a), np.ones(n_states))
        rows_true = model.transition_matrix(*onehot)
        rows_hat = hat.transition_matrix(*onehot)
        tv = 0.5 * np.abs(rows_true - rows_hat).sum(axis=1)
        assert np.all(tv < 0.02)


# -- the learner's own fixed point ---------------------------------------------


def fully_seen_single_agent_dataset(rng):
    d = random_toy_dataset(rng, n_agents=1, n_transitions=300, episodes=10)
    model = empirical_model(d, d.header.spec)
    assert not model.unseen_mask.any()
    return d, model


def test_learner_fixed_point_single_agent_alpha_zero_is_value_iteration(rng):
    d, model = fully_seen_single_agent_dataset(rng)
    table, report = learner_fixed_point(d, 0.0)
    assert report.residual <= 1e-10
    q_star, _, _ = value_iteration(model)
    np.testing.assert_allclose(table[:, 0, :], q_star, atol=1e-8, rtol=0)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_learner_fixed_point_single_agent_penalty_equation(alpha, rng):
    """Seen pairs satisfy Q = y - alpha * (softmax(Q) / beta_hat - 1)."""
    d, model = fully_seen_single_agent_dataset(rng)
    table, _ = learner_fixed_point(d, alpha)
    q = table[:, 0, :]
    y = model.rewards + model.gamma * model.expected_next_values(q.max(axis=1))
    beta = empirical_behavior(d)[0]
    expected = y - alpha * (softmax(q, axis=1) / beta - 1.0)
    np.testing.assert_allclose(q, expected, atol=1e-8, rtol=0)


def test_learner_fixed_point_support_error_names_state_agent_action():
    spec = ToyMMDP(2).spec()
    # agent 0 never takes action 2 in state 4; agent 1 takes every action
    actions = [(0, 0), (1, 1), (0, 2), (1, 0)]
    d = make_dataset([(4, a, 0.5, 4, False) for a in actions], spec)
    with pytest.raises(SupportError) as err:
        learner_fixed_point(d, 1.0)
    assert (err.value.state, err.value.agent, err.value.action) == (4, 0, 2)
    # without the penalty the entry gets no gradient and keeps its initial 0
    table, _ = learner_fixed_point(d, 0.0)
    assert abs(table[4, 0, 2]) < 1e-12


def test_learner_fixed_point_rejects_continuous_states():
    spec = EqualLine(2).spec()
    d = make_dataset([((0.0, 1.0), (0, 1), 0.0, (0.0, 1.0), False)], spec)
    with pytest.raises(ValueError, match="discrete"):
        learner_fixed_point(d, 1.0)


def test_learner_fixed_point_nonconvergence_raises(rng):
    d = random_toy_dataset(rng, n_agents=2, n_transitions=200, episodes=10)
    with pytest.raises(ConvergenceError) as err:
        learner_fixed_point(d, 1.0, max_iter=3)
    assert err.value.iterations == 3
