import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcql_lab.divergence import (
    SupportError,
    check_ratio_bound_probs,
    d_cf_cql_probs,
    d_cql_probs,
    kl_categorical,
    kl_scores,
    lambda_uniform,
    log_ratio_factors,
    onehot_from_scores,
    softmax_from_scores,
)
from cfcql_lab.envs import all_joint_actions


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
    p = np.array([0.2, 0.5, 0.3])
    assert kl_categorical(p, p) == pytest.approx(0.0)


def test_kl_closed_form():
    assert kl_categorical([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0))


def test_kl_support_violation():
    with pytest.raises(SupportError):
        kl_categorical([0.5, 0.5], [1.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_kl_nonnegative(seed, k):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k))
    q = rng.dirichlet(np.ones(k)) + 1e-9
    q /= q.sum()
    assert kl_categorical(p, q) >= -1e-12


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


def test_softmax_lambda_tau_zero_is_exactly_uniform(rng):
    scores = rng.normal(size=6)
    w = softmax_from_scores(scores, tau=0.0, form="ratio")
    np.testing.assert_array_equal(w, np.full(6, 1.0 / 6.0))


def test_softmax_lambda_large_tau_matches_onehot(rng):
    for _ in range(100):
        scores = rng.normal(size=5)
        while np.sort(scores)[-1] - np.sort(scores)[-2] < 1e-3:
            scores = rng.normal(size=5)
        w = softmax_from_scores(scores, tau=1e6, form="ratio")
        np.testing.assert_array_equal(w, onehot_from_scores(scores))


def test_softmax_lambda_kl_form_hand_case():
    scores = np.array([0.1, 0.5, 0.2])
    w = softmax_from_scores(scores, tau=1.0, form="kl")
    raw = np.exp([-0.1, -0.5, -0.2])
    np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-12)


def test_softmax_lambda_rejects_negative_tau():
    with pytest.raises(ValueError):
        softmax_from_scores(np.ones(3), tau=-1.0)


def test_onehot_ties_break_to_lowest_index():
    w = onehot_from_scores(np.array([2.0, 5.0, 5.0]))
    np.testing.assert_array_equal(w, [0.0, 1.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 100.0), st.integers(2, 6))
def test_softmax_lambda_is_simplex(seed, tau, n):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    for form in ("ratio", "kl"):
        w = softmax_from_scores(scores, tau, form)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_lambda_argmax_weight_monotone_in_tau(rng):
    scores = rng.normal(size=5)
    taus = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 1e3]
    j = int(np.argmax(scores))
    weights = [softmax_from_scores(scores, t, "ratio")[j] for t in taus]
    assert all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
    # kl form: the least-divergent agent gains weight as tau grows
    j_min = int(np.argmin(scores))
    weights = [softmax_from_scores(scores, t, "kl")[j_min] for t in taus]
    assert all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
