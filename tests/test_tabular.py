import numpy as np
import pytest

from cfcql_lab.core import FactoredPolicy, empirical_behavior, uniform_policy
from cfcql_lab.divergence import LambdaWeights, SupportError, lambda_uniform
from cfcql_lab.envs import EqualLine, MMDPModel, ToyMMDP, all_joint_actions, encode_joint
from cfcql_lab.neural import softmax
from cfcql_lab.tabular import (
    ConvergenceError,
    cfcql_fixed_point,
    empirical_model,
    exact_policy_eval,
    greedy_policy_from_q,
    learner_fixed_point,
    macql_fixed_point,
    value_iteration,
)

from conftest import make_dataset, random_toy_dataset


def random_factored_policy(rng, n_agents, n_states, n_actions, floor=0.0):
    table = {}
    for s in range(n_states):
        probs = rng.dirichlet(np.ones(n_actions), size=n_agents)
        if floor > 0:
            probs = (1 - floor * n_actions) * probs + floor
        table[s] = probs
    return FactoredPolicy(n_agents, n_actions, table)


def single_state_model(reward=1.0, gamma=0.9):
    return MMDPModel(
        n_states=1,
        n_agents=1,
        n_actions=2,
        gamma=gamma,
        r_max=abs(reward) or 1.0,
        next_states=np.zeros((1, 2, 1), dtype=np.int64),
        next_probs=np.ones((1, 2, 1)),
        rewards=np.full((1, 2), reward),
        initial_distribution=np.ones(1),
    )


def two_successor_model(rng, n_states=4, n_joint=3):
    """Single-agent model whose every (s, a) row has two random successors."""
    next_states = np.stack(
        [rng.integers(0, n_states, size=(n_states, n_joint)) for _ in range(2)], axis=2
    )
    p = rng.uniform(0.2, 0.8, size=(n_states, n_joint))
    return MMDPModel(
        n_states=n_states,
        n_agents=1,
        n_actions=n_joint,
        gamma=0.9,
        r_max=1.0,
        next_states=next_states,
        next_probs=np.stack([p, 1 - p], axis=2),
        rewards=rng.uniform(-1, 1, size=(n_states, n_joint)),
        initial_distribution=np.full(n_states, 1.0 / n_states),
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
    q, v, report = exact_policy_eval(model, uniform_policy(1, 2))
    assert report.converged
    np.testing.assert_allclose(q.values, 0.0)
    np.testing.assert_allclose(v, 0.0)


def test_geometric_series_value():
    model = single_state_model(reward=1.0, gamma=0.9)
    q, v, _ = exact_policy_eval(model, uniform_policy(1, 2))
    np.testing.assert_allclose(q.values, 10.0, atol=1e-8)
    np.testing.assert_allclose(v, 10.0, atol=1e-8)


def test_policy_eval_matches_monte_carlo():
    env = ToyMMDP(2, gamma=0.9)
    model = env.exact_model()
    pi = uniform_policy(2, 3)
    _, v, _ = exact_policy_eval(model, pi)

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
    for lam in (lambda_uniform(1), LambdaWeights(1, {0: np.ones(1)})):
        _, v_cf, _ = cfcql_fixed_point(model, pi, beta, lam, alpha=0.7)
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
    pi_d, beta_d = pi.dense(n_states), beta.dense(n_states)
    joint_pi = np.ones((n_states, model.n_joint_actions))
    cf_penalty = np.full((n_states, model.n_joint_actions), -1.0)
    joint_ratio = np.ones((n_states, model.n_joint_actions))
    for a, digits in enumerate(all_joint_actions(n, model.n_actions)):
        for i, b in enumerate(digits):
            ratio = pi_d[i, :, b] / beta_d[i, :, b]
            joint_pi[:, a] *= pi_d[i, :, b]
            cf_penalty[:, a] += lam.default[i] * ratio
            joint_ratio[:, a] *= ratio
    cases = [
        (exact_policy_eval(model, pi), model.rewards),
        (cfcql_fixed_point(model, pi, beta, lam, alpha), model.rewards - alpha * cf_penalty),
        (macql_fixed_point(model, pi, beta, alpha), model.rewards - alpha * (joint_ratio - 1.0)),
    ]
    for (q, v, report), base in cases:
        expected = reference_sweeps(model, joint_pi, base)
        scale = max(1.0, np.max(np.abs(expected)))
        np.testing.assert_allclose(q.values, expected, rtol=0, atol=1e-11 * scale)
        np.testing.assert_allclose(v, (joint_pi * expected).sum(axis=1), rtol=0,
                                   atol=1e-11 * scale)
        bellman = base + model.gamma * model.expected_next_values(
            (joint_pi * q.values).sum(axis=1)) - q.values
        assert report.iterations == 1 and report.converged
        assert report.residual == pytest.approx(np.max(np.abs(bellman)), rel=0,
                                                abs=1e-14 * scale)


def test_support_error_identifies_agent_state_action():
    env = ToyMMDP(2, gamma=0.9)
    model = env.exact_model()
    pi_table = {s: np.full((2, 3), 1.0 / 3.0) for s in range(9)}
    beta_table = {s: np.full((2, 3), 1.0 / 3.0) for s in range(9)}
    beta_table[4] = np.array([[0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    pi = FactoredPolicy(2, 3, pi_table)
    beta = FactoredPolicy(2, 3, beta_table)
    with pytest.raises(SupportError) as err:
        cfcql_fixed_point(model, pi, beta, lambda_uniform(2), alpha=1.0)
    assert (err.value.agent, err.value.state, err.value.action) == (0, 4, 2)


def test_nonconvergence_raises():
    model = single_state_model(reward=1.0, gamma=0.9)
    with pytest.raises(ConvergenceError):
        value_iteration(model, max_iter=3)


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
    assert hat.initial_distribution[0] == 1.0


def test_empirical_model_concentrates_on_truth(rng):
    model = two_successor_model(rng)
    n_states, n_joint = model.n_states, model.n_joint_actions
    spec = ToyMMDP(1).spec()  # discrete single-agent spec shell
    rows = []
    for _ in range(40_000):
        s = int(rng.integers(0, n_states))
        a = int(rng.integers(0, n_joint))
        k = int(rng.random() > model.next_probs[s, a, 0])
        rows.append((s, (a,), model.rewards[s, a], model.next_states[s, a, k], False))
    d = make_dataset(rows, spec, starts=(0,))
    hat = empirical_model(d, spec, n_states=n_states)
    for a in range(n_joint):
        onehot = np.zeros((n_states, n_joint))
        onehot[:, a] = 1.0
        rows_true = model.transition_matrix(onehot)
        rows_hat = hat.transition_matrix(onehot)
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
    assert report.converged and report.residual <= 1e-10
    q_star, _, _ = value_iteration(model)
    np.testing.assert_allclose(table[:, 0, :], q_star.values, atol=1e-8, rtol=0)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_learner_fixed_point_single_agent_penalty_equation(alpha, rng):
    """Seen pairs satisfy Q = y - alpha * (softmax(Q) / beta_hat - 1)."""
    d, model = fully_seen_single_agent_dataset(rng)
    table, _ = learner_fixed_point(d, alpha)
    q = table[:, 0, :]
    y = model.rewards + model.gamma * model.expected_next_values(q.max(axis=1))
    beta = empirical_behavior(d).dense(model.n_states)[0]
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
