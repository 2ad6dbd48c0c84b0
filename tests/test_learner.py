import numpy as np
import pytest

from cfcql_lab import autodiff as ad
from cfcql_lab.core import RngStream, Tier
from cfcql_lab.envs import EqualLine, ToyMMDP, all_joint_actions
from cfcql_lab.learner import (
    Batch,
    FactoredQ,
    ScoreRefs,
    TrainConfig,
    batch_lambda,
    cfcql_loss,
    counterfactual_rows,
    evaluate_policy,
    macql_loss,
    normalized_score,
    td_targets,
    train_offline,
)
from cfcql_lab.rollouts import RandomActor
from cfcql_lab.tabular import DEFAULT_TOL, learner_fixed_point

from conftest import make_dataset, random_toy_dataset


def tabular_q(n_agents, n_actions, n_states, values=None, mixer="additive", rng=None):
    q = FactoredQ(n_agents, n_actions, "tabular", n_states=n_states, mixer=mixer, rng=rng)
    if values is not None:
        q.table.data = np.asarray(values, dtype=np.float64).reshape(
            n_states, n_agents * n_actions
        )
    return q


def make_batch(ids, actions, rewards, next_ids, beta=None):
    return Batch(
        inputs=np.asarray(ids),
        actions=np.asarray(actions),
        rewards=np.asarray(rewards, dtype=np.float64),
        next_inputs=np.asarray(next_ids),
        beta_probs=beta,
    )


def full_batch(d):
    """Every transition of a tabular dataset."""
    return make_batch(d.states, d.actions, d.rewards, d.next_states)


def data_and_greedy_q(table, d):
    """Mean Q_tot of the data's and of the greedy joint actions (additive mixer)."""
    values = table[d.states]
    chosen = np.take_along_axis(values, d.actions[:, :, None], axis=2)[:, :, 0]
    return chosen.sum(axis=1).mean(), values.max(axis=2).sum(axis=1).mean()


# -- loss hand cases -----------------------------------------------------------


def test_cfcql_loss_hand_case():
    # one transition, 2 agents, 2 actions, hand-set tabular Q, uniform lambda
    q = tabular_q(2, 2, 2, values=[[1.0, 2.0, 0.5, -1.0], [0.0, 0.0, 0.0, 0.0]])
    target = q.copy()
    batch = make_batch([0], [[0, 1]], [0.3], [1])
    alpha, gamma = 0.7, 0.9
    loss, stats = cfcql_loss(batch, q, target, None, alpha, gamma)

    q_data = 1.0 + (-1.0)
    lse0 = np.log(np.exp(1.0 + (-1.0)) + np.exp(2.0 + (-1.0)))
    lse1 = np.log(np.exp(0.5 + 1.0) + np.exp(-1.0 + 1.0))
    y = 0.3 + gamma * (0.0 + 0.0)
    td = 0.5 * (q_data - y) ** 2
    expected = alpha * (0.5 * (lse0 + lse1) - q_data) + td
    assert loss.data == pytest.approx(expected, abs=1e-12)
    assert stats["td"] == pytest.approx(td, abs=1e-12)


def test_alpha_zero_is_pure_td(rng):
    q = tabular_q(2, 3, 9, values=rng.normal(size=(9, 6)))
    target = tabular_q(2, 3, 9, values=rng.normal(size=(9, 6)))
    ids = rng.integers(0, 9, size=16)
    batch = make_batch(ids, rng.integers(0, 3, size=(16, 2)), rng.normal(size=16),
                       rng.integers(0, 9, size=16))
    loss, _ = cfcql_loss(batch, q, target, None, 0.0, 0.95)
    y = td_targets(target, batch, 0.95)
    vals = q.values(batch.inputs).data
    q_data = np.take_along_axis(vals, batch.actions[:, :, None], 2)[:, :, 0].sum(1)
    assert loss.data == pytest.approx(0.5 * ((q_data - y) ** 2).mean(), abs=1e-12)


def test_macql_exhaustive_matches_joint_enumeration(rng):
    n_agents, n_actions = 2, 3
    q = tabular_q(n_agents, n_actions, 5, values=rng.normal(size=(5, 6)))
    target = q.copy()
    ids = rng.integers(0, 5, size=8)
    batch = make_batch(ids, rng.integers(0, 3, size=(8, 2)), rng.normal(size=8),
                       rng.integers(0, 5, size=8))
    loss, _ = macql_loss(batch, q, target, 1.3, 9, None, 0.9)

    vals = q.values(batch.inputs).data
    joints = all_joint_actions(n_agents, n_actions)
    q_rows = np.stack(
        [vals[:, 0, joints[:, 0]][k] + vals[:, 1, joints[:, 1]][k] for k in range(8)]
    )
    m = q_rows.max(axis=1, keepdims=True)
    lse = (m[:, 0] + np.log(np.exp(q_rows - m).sum(axis=1)))
    q_data = np.take_along_axis(vals, batch.actions[:, :, None], 2)[:, :, 0].sum(1)
    y = td_targets(target, batch, 0.9)
    expected = 1.3 * (lse - q_data).mean() + 0.5 * ((q_data - y) ** 2).mean()
    assert loss.data == pytest.approx(expected, abs=1e-9)


def test_macql_sampling_constant(rng):
    """Sampled estimator carries the log(|A|^n / N) importance constant."""
    q = tabular_q(2, 3, 4, values=np.zeros((4, 6)))
    target = q.copy()
    batch = make_batch([0], [[0, 0]], [0.0], [1])
    loss, stats = macql_loss(batch, q, target, 1.0, 4, np.random.default_rng(0), 0.9)
    # all Q values are zero: lse over 4 samples = log 4; constant = log(9/4)
    assert stats["penalty"] == pytest.approx(np.log(4.0) + np.log(9.0 / 4.0), abs=1e-12)


# -- n = 1 collapse ------------------------------------------------------------


def reference_single_agent_cql_loss(table, target_table, batch, alpha, gamma):
    """Independent single-agent conservative loss (fresh implementation)."""
    ids = batch.inputs
    acts = batch.actions[:, 0]
    qsa = table[ids, acts]
    rows = table[ids]
    m = rows.max(axis=1)
    lse = m + np.log(np.exp(rows - m[:, None]).sum(axis=1))
    y = batch.rewards + gamma * target_table[batch.next_inputs].max(axis=1)
    td = 0.5 * ((qsa - y) ** 2).mean()
    return alpha * (lse.mean() - qsa.mean()) + td


def test_single_agent_losses_coincide(rng):
    n_states, n_actions = 3, 3
    for trial in range(100):
        table = rng.normal(size=(n_states, n_actions))
        target_table = rng.normal(size=(n_states, n_actions))
        q = tabular_q(1, n_actions, n_states, values=table)
        target = tabular_q(1, n_actions, n_states, values=target_table)
        b = 8
        batch = make_batch(
            rng.integers(0, n_states, size=b),
            rng.integers(0, n_actions, size=(b, 1)),
            rng.normal(size=b),
            rng.integers(0, n_states, size=b),
        )
        alpha = float(rng.uniform(0.1, 5.0))
        cf, _ = cfcql_loss(batch, q, target, np.ones((b, 1)), alpha, 0.9)
        ma, _ = macql_loss(batch, q, target, alpha, n_actions, None, 0.9)
        ref = reference_single_agent_cql_loss(table, target_table, batch, alpha, 0.9)
        assert cf.data == pytest.approx(ref, abs=1e-9)
        assert ma.data == pytest.approx(ref, abs=1e-9)
        assert cf.data == ma.data  # identical computation path at n=1


def test_single_agent_training_bit_identical():
    env = ToyMMDP(1, gamma=0.9)
    rng = np.random.default_rng(0)
    d = random_toy_dataset(rng, n_agents=1, n_transitions=120, episodes=6)
    cfg = TrainConfig(alpha=1.0, total_steps=150, batch_size=16, target_interval=25,
                      cql_joint_samples=3, record_interval=50, eval_episodes=4,
                      lambda_mode="softmax", seed=3)
    res_cf = train_offline(cfg, d, "cfcql")
    res_ma = train_offline(cfg, d, "macql")
    np.testing.assert_array_equal(res_cf.losses, res_ma.losses)
    np.testing.assert_array_equal(res_cf.q.table.data, res_ma.q.table.data)
    assert res_cf.metrics == res_ma.metrics


# -- gradients through the full loss graph --------------------------------------


@pytest.mark.parametrize("mixer", ["additive", "monotonic"])
def test_cfcql_loss_gradients_match_finite_differences(mixer, rng):
    n_states = 4
    q = tabular_q(2, 2, n_states, values=rng.normal(size=(n_states, 4)),
                  mixer=mixer, rng=rng)
    target = tabular_q(2, 2, n_states, values=rng.normal(size=(n_states, 4)),
                       mixer=mixer, rng=rng)
    b = 6
    batch = make_batch(
        rng.integers(0, n_states, size=b),
        rng.integers(0, 2, size=(b, 2)),
        rng.normal(size=b),
        rng.integers(0, n_states, size=b),
    )
    lam = rng.dirichlet(np.ones(2), size=b)

    def loss_value():
        loss, _ = cfcql_loss(batch, q, target, lam, 0.8, 0.9)
        return float(loss.data)

    params = q.parameters()
    for p in params:
        p.zero_grad()
    loss, _ = cfcql_loss(batch, q, target, lam, 0.8, 0.9)
    ad.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    h = 1e-6
    for pi_, p in enumerate(params):
        flat = p.data.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_value()
            flat[k] = orig - h
            down = loss_value()
            flat[k] = orig
            numeric = (up - down) / (2 * h)
            assert analytic[pi_].ravel()[k] == pytest.approx(numeric, abs=2e-6, rel=1e-4)


# -- structural properties -------------------------------------------------------


@pytest.mark.parametrize("mixer", ["additive", "monotonic"])
def test_igm_greedy_matches_joint_argmax(mixer, rng):
    q = tabular_q(3, 3, 2, values=rng.normal(size=(2, 9)), mixer=mixer, rng=rng)
    vals = q.values(np.array([0, 1])).data
    joints = all_joint_actions(3, 3)
    per_state_best = []
    for s in range(2):
        q_tot = q.mix(np.stack([vals[s, i, joints[:, i]] for i in range(3)], axis=1)).data
        per_state_best.append(joints[np.argmax(q_tot)])
    np.testing.assert_array_equal(vals.argmax(axis=2), per_state_best)


def neural_q(mixer, rng):
    return FactoredQ(3, 4, "neural", feature_dim=5, hidden=(6,), mixer=mixer, rng=rng)


@pytest.mark.parametrize("mixer", ["additive", "monotonic"])
def test_values_and_mix_are_the_same_bytes_under_no_grad(mixer, rng):
    for q, inputs in ((tabular_q(3, 4, 7, values=rng.normal(size=(7, 12)), mixer=mixer,
                                 rng=rng), rng.integers(0, 7, size=9)),
                      (neural_q(mixer, rng), rng.normal(size=(9, 3, 5)))):
        values = q.values(inputs)
        mixed = q.mix(values.data.max(axis=2))
        with ad.no_grad():
            values_ng = q.values(inputs)
            mixed_ng = q.mix(values_ng.data.max(axis=2))
        assert values.requires_grad and not values_ng.requires_grad
        assert values.data.tobytes() == values_ng.data.tobytes()
        assert mixed.data.tobytes() == mixed_ng.data.tobytes()


@pytest.mark.parametrize("mixer", ["additive", "monotonic"])
def test_counterfactual_rows_match_bruteforce(mixer, rng):
    b, n, n_actions, n_states = 6, 3, 4, 5
    # quarter-integer values: the additive sums are exact in any order
    q = tabular_q(n, n_actions, n_states, mixer=mixer, rng=rng,
                  values=rng.integers(-40, 40, size=(n_states, n * n_actions)) / 4.0)
    values = q.values(rng.integers(0, n_states, size=b))
    actions = rng.integers(0, n_actions, size=(b, n))
    expected = np.empty((b, n, n_actions))
    for i in range(n):
        for a in range(n_actions):
            joint = actions.copy()
            joint[:, i] = a
            chosen = np.take_along_axis(values.data, joint[:, :, None], axis=2)[:, :, 0]
            expected[:, i, a] = q.mix(chosen).data
    rows = counterfactual_rows(q, values, actions)
    assert rows.requires_grad
    if mixer == "additive":
        np.testing.assert_array_equal(rows.data, expected)
    else:
        np.testing.assert_allclose(rows.data, expected, rtol=0, atol=1e-12)


def test_lambda_mode_changes_penalty_not_td(rng):
    q = tabular_q(3, 3, 5, values=rng.normal(size=(5, 9)))
    target = q.copy()
    b = 10
    beta = rng.dirichlet(np.ones(3), size=(b, 3))
    batch = make_batch(rng.integers(0, 5, size=b), rng.integers(0, 3, size=(b, 3)),
                       rng.normal(size=b), rng.integers(0, 5, size=b), beta=beta)
    lam_uniform = np.full((b, 3), 1 / 3)
    lam_onehot = batch_lambda(q, batch, "onehot", 0.0)
    _, s1 = cfcql_loss(batch, q, target, lam_uniform, 1.0, 0.9)
    _, s2 = cfcql_loss(batch, q, target, lam_onehot, 1.0, 0.9)
    assert s1["td"] == s2["td"]
    assert s1["penalty"] != s2["penalty"]


def test_batch_lambda_is_simplex_and_modes_differ(rng):
    q = tabular_q(4, 3, 6, values=rng.normal(size=(6, 12)))
    b = 12
    beta = rng.dirichlet(np.ones(3), size=(b, 4))
    batch = make_batch(rng.integers(0, 6, size=b), rng.integers(0, 3, size=(b, 4)),
                       rng.normal(size=b), rng.integers(0, 6, size=b), beta=beta)
    for mode, tau in (("uniform", 0.0), ("onehot", 0.0), ("softmax", 2.0)):
        lam = batch_lambda(q, batch, mode, tau)
        assert lam.shape == (b, 4)
        np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(lam >= 0)
    one = batch_lambda(q, batch, "onehot", 0.0)
    assert set(np.unique(one)) == {0.0, 1.0}


# -- training loop ----------------------------------------------------------------


def test_train_offline_deterministic(rng):
    d = random_toy_dataset(rng, n_agents=2, n_transitions=200, episodes=10)
    cfg = TrainConfig(alpha=1.0, total_steps=120, batch_size=16, target_interval=30,
                      record_interval=60, eval_episodes=4, seed=9)
    r1 = train_offline(cfg, d, "cfcql")
    r2 = train_offline(cfg, d, "cfcql")
    np.testing.assert_array_equal(r1.q.table.data, r2.q.table.data)
    assert r1.metrics == r2.metrics


def test_train_offline_penalty_direction(rng):
    """The penalty pulls the greedy values back toward the data's actions.

    The premise holds at the fixed point of the learner's objective, not
    along the way: far from it the alpha=0 values have not yet separated
    the actions, and the gap is small only for that reason. So the claim
    is checked at the exact fixed point first, then the learner is shown to
    have reached it (mean data-Q within 5% of the oracle's; a reading at
    1500 steps and lr=1e-3 is ~80% low), then the claim is checked on the
    learner's own values.
    """
    d = random_toy_dataset(rng, n_agents=2, n_transitions=600, episodes=30)
    base = TrainConfig(total_steps=3000, batch_size=128, lr=1e-2, target_interval=50,
                       record_interval=3000, eval_episodes=4, seed=1,
                       lambda_mode="uniform")
    oracle_gap, gap = {}, {}
    for alpha in (0.0, 2.0):
        table, _ = learner_fixed_point(d, alpha)
        data_q, greedy_q = data_and_greedy_q(table, d)
        oracle_gap[alpha] = data_q - greedy_q
        res = train_offline(TrainConfig(**{**base.__dict__, "alpha": alpha}), d, "cfcql")
        final = res.metrics[-1]
        assert final["mean_data_q"] == pytest.approx(data_q, rel=0.05)
        gap[alpha] = final["mean_data_q"] - final["mean_policy_q"]
    assert oracle_gap[2.0] > oracle_gap[0.0]
    assert gap[2.0] > gap[0.0]


@pytest.mark.parametrize("alpha", [0.0, 2.0])
def test_cfcql_loss_gradient_vanishes_at_learner_fixed_point(alpha, rng):
    """Full-batch cfcql_loss, target = table = the oracle: the gradient is zero.

    The mean loss has O(1) curvature per entry and the oracle stops within
    ~tol of its fixed point, so the gradient is O(tol).
    """
    d = random_toy_dataset(rng, n_agents=2, n_transitions=600, episodes=30)
    table, _ = learner_fixed_point(d, alpha)
    q = tabular_q(2, 3, table.shape[0], values=table)
    loss, _ = cfcql_loss(full_batch(d), q, q.copy(), None, alpha, d.header.spec.gamma)
    ad.backward(loss)
    assert np.max(np.abs(q.table.grad)) <= 10 * DEFAULT_TOL


def test_train_offline_neural_smoke(rng):
    env = EqualLine(2, episode_limit=5)
    spec = env.spec()
    rows = []
    pos = env.reset_batch(rng, 12)
    for t in range(5):
        acts = rng.integers(0, env.n_actions, size=(12, 2))
        nxt, rew = env.step_batch(pos, acts)
        rows.extend(zip(pos, acts, rew, nxt, [t == 4] * 12))
        pos = nxt
    order = np.arange(60).reshape(5, 12).T.ravel()
    d = make_dataset([rows[k] for k in order], spec, starts=tuple(range(0, 60, 5)),
                     tier=Tier.RANDOM)
    cfg = TrainConfig(alpha=1.0, total_steps=60, batch_size=16, target_interval=20,
                      record_interval=30, eval_episodes=2, hidden=(16,), bc_steps=100,
                      seed=0)
    res = train_offline(cfg, d, "cfcql")
    assert res.policy is None
    assert len(res.metrics) == 2
    assert all(np.isfinite(row["eval_return"]) for row in res.metrics)


def test_evaluate_policy_normalization():
    assert normalized_score(7.5, ScoreRefs(5.0, 10.0)) == pytest.approx(50.0)
    assert normalized_score(10.0, ScoreRefs(5.0, 10.0)) == pytest.approx(100.0)
    assert normalized_score(5.0, ScoreRefs(5.0, 10.0)) == pytest.approx(0.0)
    env = ToyMMDP(2, episode_limit=4)
    res = evaluate_policy(env, RandomActor(2, 3), 8, np.random.default_rng(0))
    assert res.normalized_score is None
    assert 0.0 <= res.mean_return <= 4.0
