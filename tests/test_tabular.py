import re

import numpy as np
import pytest

from cfcql_lab.core import FactoredPolicy, empirical_behavior
from cfcql_lab.divergence import SupportError, lambda_uniform
from cfcql_lab.envs import EqualLine, MMDPModel, ToyMMDP, all_joint_actions, encode_joint
from cfcql_lab.neural import softmax
from cfcql_lab.tabular import (
    TIE_EPS,
    ConvergenceError,
    JointQTable,
    cfcql_fixed_point,
    empirical_model,
    exact_policy_eval,
    greedy_policy_from_q,
    joint_policy_support,
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
    q, v, report = exact_policy_eval(model, FactoredPolicy(1, 2))
    assert report.converged
    np.testing.assert_allclose(q.values, 0.0)
    np.testing.assert_allclose(v, 0.0)


def test_geometric_series_value():
    model = single_state_model(reward=1.0, gamma=0.9)
    q, v, _ = exact_policy_eval(model, FactoredPolicy(1, 2))
    np.testing.assert_allclose(q.values, 10.0, atol=1e-8)
    np.testing.assert_allclose(v, 10.0, atol=1e-8)


def test_policy_eval_matches_monte_carlo():
    env = ToyMMDP(2, gamma=0.9)
    model = env.exact_model()
    pi = FactoredPolicy(2, 3)
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
    pi_d, beta_d = pi.dense(n_states), beta.dense(n_states)
    joint_pi = np.ones((n_states, model.n_joint_actions))
    cf_penalty = np.full((n_states, model.n_joint_actions), -1.0)
    joint_ratio = np.ones((n_states, model.n_joint_actions))
    for a, digits in enumerate(all_joint_actions(n, model.n_actions)):
        for i, b in enumerate(digits):
            ratio = pi_d[i, :, b] / beta_d[i, :, b]
            joint_pi[:, a] *= pi_d[i, :, b]
            cf_penalty[:, a] += lam[i] * ratio
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


def test_cfcql_fixed_point_rejects_per_state_lambda(rng):
    # an (S, n) table with n == |A| would broadcast against the (S, A) ratios
    model = ToyMMDP(3).exact_model()
    pi = random_factored_policy(rng, 3, model.n_states, 3)
    with pytest.raises(ValueError, match=r"lambda has shape \(27, 3\), expected \(3,\)"):
        cfcql_fixed_point(model, pi, pi, np.full((model.n_states, 3), 1 / 3), alpha=1.0)


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
        r_max=1.0,
        next_states=next_states,
        next_probs=np.ones((3, 2, 1)),
        rewards=np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
        initial_distribution=np.full(3, 1.0 / 3.0),
    )


def test_nonconvergence_raises():
    model = detour_model()
    with pytest.raises(ConvergenceError) as err:
        value_iteration(model, max_iter=1)
    assert err.value.iterations == 1
    _, v, report = value_iteration(model, max_iter=2)
    assert report.converged and report.iterations == 2
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
    np.testing.assert_allclose(q.values, expected, rtol=0, atol=1e-9 * scale)
    assert report.converged and report.residual <= 1e-10
    bellman = model.rewards + model.gamma * model.expected_next_values(
        q.values.max(axis=1)) - q.values
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
    policy = greedy_policy_from_q(model, JointQTable(q))
    chosen = encode_joint(np.stack([policy.probs(s).argmax(axis=1) for s in range(4)]), 3)
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


def dense_evaluate(model, joint_pi, base):
    """Direct solve on the dense policy: Q, V = E_pi[Q] and the Bellman residual."""
    system = dense_transition_matrix(model, joint_pi)
    system *= -model.gamma
    system.flat[::model.n_states + 1] += 1.0
    v = np.linalg.solve(system, (joint_pi * base).sum(axis=1))
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


def as_policy(per_agent):
    n, n_states, n_actions = per_agent.shape
    return FactoredPolicy(n, n_actions, {s: per_agent[:, s] for s in range(n_states)})


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_evaluators_equal_dense_evaluate_on_one_hot_policies(n, rng):
    model = ToyMMDP(n, gamma=0.9).exact_model()
    pi_d = policy_array("onehot", rng, n, model.n_states, model.n_actions)
    beta = random_factored_policy(rng, n, model.n_states, model.n_actions, floor=1e-2)
    lam, alpha = lambda_uniform(n), 0.5
    pi = as_policy(pi_d)
    joint_pi = dense_joint_policy(pi_d)
    cf_penalty, joint_ratio = dense_penalties(pi_d, beta.dense(model.n_states), lam)
    cases = [
        (exact_policy_eval(model, pi), model.rewards),
        (cfcql_fixed_point(model, pi, beta, lam, alpha), model.rewards - alpha * cf_penalty),
        (macql_fixed_point(model, pi, beta, alpha), model.rewards - alpha * (joint_ratio - 1.0)),
    ]
    for (q, v, report), base in cases:
        q_ref, v_ref, residual_ref = dense_evaluate(model, joint_pi, base)
        assert q.values.tobytes() == q_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        assert report.residual == residual_ref


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


@pytest.mark.parametrize("case", ["toy_n2", "toy_n3", "toy_n4", "toy_n5", "empirical_n4"])
def test_value_iteration_equals_dense_policy_iteration(case, rng):
    n = int(case[-1])
    if case.startswith("toy"):
        model = ToyMMDP(n, gamma=0.9).exact_model()
    else:
        d = random_toy_dataset(rng, n_agents=n, n_transitions=1500, episodes=15)
        model = empirical_model(d, d.header.spec)
        assert model.unseen_mask.any() and not model.unseen_mask.all()
    q, v, report = value_iteration(model)
    q_ref, v_ref, iterations = dense_policy_iteration(model)
    assert q.values.tobytes() == q_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()
    assert report.iterations == iterations


@pytest.mark.parametrize("entry, message", [
    (-0.25, "agent 1, action 2 at state 4 is -0.25"),
    (np.nan, "agent 1, action 2 at state 4 is nan"),
    (np.inf, "agent 1, action 2 at state 4 is inf"),
])
def test_solvers_reject_a_negative_or_non_finite_probability(entry, message):
    model = ToyMMDP(2).exact_model()
    table = {s: np.full((2, 3), 1.0 / 3.0) for s in range(model.n_states)}
    table[4] = np.array([[1 / 3, 1 / 3, 1 / 3], [0.75, 0.5, entry]])
    bad, good = FactoredPolicy(2, 3, table), FactoredPolicy(2, 3)
    lam = lambda_uniform(2)
    for solve in (lambda: exact_policy_eval(model, bad),
                  lambda: cfcql_fixed_point(model, bad, good, lam, 1.0),
                  lambda: cfcql_fixed_point(model, good, bad, lam, 1.0),
                  lambda: macql_fixed_point(model, good, bad, 1.0)):
        with pytest.raises(ValueError, match=re.escape(message)):
            solve()


def test_solvers_reject_a_row_that_does_not_sum_to_one():
    model = ToyMMDP(2).exact_model()
    table = {s: np.full((2, 3), 1.0 / 3.0) for s in range(model.n_states)}
    table[7] = np.array([[0.5, 0.5, 1e-8], [1 / 3, 1 / 3, 1 / 3]])
    with pytest.raises(ValueError, match=r"agent 0 at state 7 sum to 1\.00000001, not 1"):
        exact_policy_eval(model, FactoredPolicy(2, 3, table))
    with pytest.raises(ValueError, match=r"agent 0 at state 7 sum to"):
        macql_fixed_point(model, FactoredPolicy(2, 3), FactoredPolicy(2, 3, table), 1.0)
    table[7] = np.array([[0.5, 0.5, 1e-10], [1 / 3, 1 / 3, 1 / 3]])  # within 1e-9
    exact_policy_eval(model, FactoredPolicy(2, 3, table))


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
