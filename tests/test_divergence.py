import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcql_lab.divergence import (
    SupportError,
    check_ratio_bound_probs,
    d_cf_cql,
    d_cf_cql_probs,
    d_cql,
    d_cql_probs,
    kl_scores,
    lambda_uniform,
    log_ratio_factors,
)
from cfcql_lab.envs import all_joint_actions
from cfcql_lab.learner import batch_lambda


def random_simplexes(rng, n_agents, n_actions, floor=0.0):
    probs = rng.dirichlet(np.ones(n_actions), size=n_agents)
    if floor > 0.0:
        probs = (1 - floor * n_actions) * probs + floor
    return probs


def joint_probs(per_agent):
    """Brute-force joint distribution over all joint actions."""
    n, n_actions = per_agent.shape
    digits = all_joint_actions(n, n_actions)
    joint = np.ones(digits.shape[0])
    for i in range(n):
        joint *= per_agent[i, digits[:, i]]
    return joint, digits


def bruteforce_d_cql(pi, beta):
    jp, _ = joint_probs(pi)
    jb, _ = joint_probs(beta)
    mask = jp > 0
    return float((jp[mask] * (jp[mask] / jb[mask] - 1.0)).sum() + (jp[~mask] * -1).sum())


def bruteforce_d_cf(pi, beta, lam):
    jp, digits = joint_probs(pi)
    total = 0.0
    for a_idx, p in enumerate(jp):
        if p == 0:
            continue
        inner = sum(
            lam[i] * pi[i, digits[a_idx, i]] / beta[i, digits[a_idx, i]]
            for i in range(pi.shape[0])
        )
        total += p * (inner - 1.0)
    return total


# -- KL ------------------------------------------------------------------------


def test_kl_identical_is_zero():
    p = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]])
    np.testing.assert_allclose(kl_scores(p, p), 0.0, rtol=0, atol=1e-15)


def test_kl_closed_form():
    pi = np.array([[[1.0, 0.0], [0.5, 0.5]]])
    beta = np.array([[[0.5, 0.5], [1.0, 0.0]]])
    kl = kl_scores(pi, beta)
    assert kl.shape == (1, 2)
    assert kl[0, 0] == pytest.approx(np.log(2.0))
    # beta never takes action 1: the clamp at 1e-12 keeps the term finite
    assert kl[0, 1] == pytest.approx(np.log(0.5) - 0.5 * np.log(1e-12))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_kl_nonnegative(seed, k):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k))
    q = rng.dirichlet(np.ones(k)) + 1e-9
    q /= q.sum()
    assert kl_scores(p, q) >= -1e-12


# -- divergences ---------------------------------------------------------------


def test_d_cql_zero_at_equal_policies(rng):
    pi = random_simplexes(rng, 3, 4)
    assert d_cql_probs(pi, pi) == pytest.approx(0.0, abs=1e-12)


def test_d_cql_two_point_hand_case():
    pi = np.array([[1.0, 0.0]])
    beta = np.array([[0.5, 0.5]])
    assert d_cql_probs(pi, beta) == pytest.approx(1.0)


def test_d_cql_matches_bruteforce(rng):
    for _ in range(50):
        pi = random_simplexes(rng, 3, 4)
        beta = random_simplexes(rng, 3, 4, floor=1e-3)
        assert d_cql_probs(pi, beta) == pytest.approx(
            bruteforce_d_cql(pi, beta), abs=1e-9, rel=1e-9
        )


def test_d_cql_support_error_names_agent_action():
    pi = np.array([[0.5, 0.5], [1.0, 0.0]])
    beta = np.array([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(SupportError) as err:
        d_cql_probs(pi, beta)
    assert err.value.agent == 1 and err.value.action == 0


def per_agent_log_ratio_factors(pi, beta):
    """Reference: one log-sum-exp per agent over that agent's support."""
    out = np.empty(pi.shape[0])
    for i in range(pi.shape[0]):
        support = pi[i] > 0
        logs = 2.0 * np.log(pi[i, support]) - np.log(beta[i, support])
        m = logs.max()
        out[i] = m + np.log(np.exp(logs - m).sum())
    return out


@pytest.mark.parametrize("n_actions", [1, 2, 3, 5, 7, 12])
def test_log_ratio_factors_match_per_agent_loop(n_actions, rng):
    for _ in range(50):
        n = int(rng.integers(1, 7))
        pi = random_simplexes(rng, n, n_actions)
        beta = random_simplexes(rng, n, n_actions)
        # zero-mass actions: off pi's support, and off both supports
        pi[rng.random(pi.shape) < 0.3] = 0.0
        pi[np.arange(n), rng.integers(0, n_actions, n)] += 0.1
        pi /= pi.sum(axis=1, keepdims=True)
        beta[(pi == 0) & (rng.random(pi.shape) < 0.5)] = 0.0
        got = log_ratio_factors(pi, beta)
        expected = per_agent_log_ratio_factors(pi, beta)
        if n_actions < 8:
            assert got.tobytes() == expected.tobytes()
        else:
            # from 8 terms on numpy sums pairwise, and the zeros off the
            # support move terms between its partial sums
            np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_divergences_at_every_state_have_the_per_state_bits(n, rng):
    # (n, S, A) inputs give each state's value with the bits of its (n, A) call
    n_states, n_actions = 11, 3
    pi = rng.dirichlet(np.ones(n_actions), size=(n, n_states))
    pi[rng.random(pi.shape) < 0.3] = 0.0
    pi[..., 0] += pi.sum(axis=2) == 0
    pi /= pi.sum(axis=2, keepdims=True)
    beta = rng.dirichlet(np.ones(n_actions), size=(n, n_states))
    lam = rng.dirichlet(np.ones(n))
    d_cf, d_cql = d_cf_cql_probs(pi, beta, lam), d_cql_probs(pi, beta)
    assert d_cf.shape == d_cql.shape == (n_states,)
    assert d_cf.tobytes() == np.array(
        [d_cf_cql_probs(pi[:, s], beta[:, s], lam) for s in range(n_states)]).tobytes()
    assert d_cql.tobytes() == np.array(
        [d_cql_probs(pi[:, s], beta[:, s]) for s in range(n_states)]).tobytes()


@pytest.mark.parametrize("state", [-1, 9])
def test_one_state_divergences_reject_a_state_outside_the_policy(state, rng):
    # numpy would read -1 as state S - 1 and raise its own IndexError at S
    pi = rng.dirichlet(np.ones(3), size=(2, 9))
    beta = rng.dirichlet(np.ones(3), size=(2, 9))
    message = rf"state {state} is not in \[0, S\) with S = 9"
    with pytest.raises(ValueError, match=message):
        d_cql(pi, beta, state)
    with pytest.raises(ValueError, match=message):
        d_cf_cql(pi, beta, lambda_uniform(2), state)


def test_d_cf_zero_at_equal_policies(rng):
    pi = random_simplexes(rng, 4, 3)
    lam = rng.dirichlet(np.ones(4))
    assert d_cf_cql_probs(pi, pi, lam) == pytest.approx(0.0, abs=1e-12)


def test_d_cf_single_agent_equals_d_cql(rng):
    pi = random_simplexes(rng, 1, 5)
    beta = random_simplexes(rng, 1, 5, floor=1e-3)
    assert d_cf_cql_probs(pi, beta, np.ones(1)) == pytest.approx(
        d_cql_probs(pi, beta), rel=1e-12
    )


def test_d_cf_matches_bruteforce_uniform_lambda(rng):
    for _ in range(30):
        pi = random_simplexes(rng, 4, 3)
        beta = random_simplexes(rng, 4, 3, floor=1e-3)
        lam = np.full(4, 0.25)
        assert d_cf_cql_probs(pi, beta, lam) == pytest.approx(
            bruteforce_d_cf(pi, beta, lam), abs=1e-9, rel=1e-9
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 5))
def test_d_cf_between_zero_and_d_cql(seed, n, k):
    rng = np.random.default_rng(seed)
    pi = random_simplexes(rng, n, k)
    beta = random_simplexes(rng, n, k, floor=1e-4)
    lam = rng.dirichlet(np.ones(n))
    d_cf = d_cf_cql_probs(pi, beta, lam)
    d_cql = d_cql_probs(pi, beta)
    assert -1e-12 <= d_cf <= d_cql + 1e-9 * max(1.0, abs(d_cql))


def test_support_bound_on_divergences(rng):
    """With beta_i >= eps everywhere: D_CF <= 1/eps - 1 and D_CQL <= 1/eps^n - 1."""
    eps = 0.05
    for _ in range(20):
        n = int(rng.integers(2, 5))
        pi = random_simplexes(rng, n, 4)
        beta = random_simplexes(rng, n, 4, floor=eps)
        lam = rng.dirichlet(np.ones(n))
        assert d_cf_cql_probs(pi, beta, lam) <= 1.0 / eps - 1.0 + 1e-9
        assert d_cql_probs(pi, beta) <= 1.0 / eps**n - 1.0 + 1e-9


# -- ratio bound ---------------------------------------------------------------


def test_ratio_bound_two_agents_one_matched(rng):
    pi = random_simplexes(rng, 2, 3)
    beta = pi.copy()
    beta[0] = random_simplexes(rng, 1, 3, floor=1e-3)[0]
    report = check_ratio_bound_probs(pi, beta)
    assert report.holds
    kls = kl_scores(pi, beta)
    if report.argmax_agent == 1:
        assert report.rhs == pytest.approx(np.exp(kls[0]))
    else:
        assert report.rhs == pytest.approx(1.0)


def test_ratio_bound_random_draws(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        pi = random_simplexes(rng, n, k)
        beta = random_simplexes(rng, n, k, floor=1e-4)
        report = check_ratio_bound_probs(pi, beta)
        assert report.holds
        assert report.lhs >= report.rhs - 1e-9


def test_ratio_bound_near_identical_policies(rng):
    # perturb a single agent; with all penalty weight on it both sides -> 1
    pi = random_simplexes(rng, 3, 4, floor=0.05)
    beta = pi.copy()
    beta[1] += 1e-6 * rng.normal(size=4)
    beta[1] = np.abs(beta[1])
    beta[1] /= beta[1].sum()
    lam = np.zeros(3)
    lam[1] = 1.0
    report = check_ratio_bound_probs(pi, beta, lam=lam)
    assert report.holds
    assert report.lhs == pytest.approx(1.0, abs=1e-3)
    assert report.rhs == pytest.approx(1.0, abs=1e-3)


def test_ratio_bound_undefined_at_equal_policies(rng):
    pi = random_simplexes(rng, 2, 3)
    with pytest.raises(ValueError, match="bound undefined"):
        check_ratio_bound_probs(pi, pi.copy())


# -- lambda weights --------------------------------------------------------------


def test_lambda_uniform():
    lam = lambda_uniform(4)
    assert lam.dtype == np.float64
    np.testing.assert_array_equal(lam, np.full(4, 0.25))


def test_softmax_lambda_kl_form_hand_case():
    # KL per agent: log 2, 0 and -log 0.8, so the weights are exp(-KL)
    # = 0.5, 1 and 0.8 over their sum
    pi = np.array([[[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]]])
    beta = np.array([[[0.5, 0.5], [0.5, 0.5], [0.8, 0.2]]])
    w = batch_lambda(pi, beta)
    np.testing.assert_allclose(w, [[0.5 / 2.3, 1.0 / 2.3, 0.8 / 2.3]], rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_softmax_lambda_is_simplex(seed, n):
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(3), size=(4, n))
    beta = rng.dirichlet(np.ones(3), size=(4, n))
    w = batch_lambda(pi, beta)
    assert w.shape == (4, n)
    assert np.all(w >= 0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # the least-divergent agent of each row weighs most
    np.testing.assert_array_equal(w.argmax(axis=1), kl_scores(pi, beta).argmin(axis=1))
