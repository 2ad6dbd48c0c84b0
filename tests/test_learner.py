import functools
import hashlib

import numpy as np
import pytest

from cfcql_lab import autodiff as ad
from cfcql_lab import learner
from cfcql_lab.core import RngStream, Tier
from cfcql_lab.datagen import OnlineTrainConfig, random_dataset, train_online
from cfcql_lab.envs import EqualLine, ToyMMDP, all_joint_actions
from cfcql_lab.learner import (
    METHODS,
    Batch,
    FactoredQ,
    ScoreRefs,
    TrainConfig,
    batch_lambda,
    cfcql_loss,
    encode_transitions,
    evaluate_policy,
    macql_loss,
    normalized_score,
    td_targets,
    train_offline,
)
from cfcql_lab.neural import HIDDEN, Adam, GroupedMlp, softmax
from cfcql_lab.rollouts import RandomActor
from cfcql_lab.tabular import DEFAULT_TOL, learner_fixed_point

import chains
from conftest import make_dataset, random_toy_dataset

# Q_tot is the sum of the per-agent values (VDN's additive mixer); the tests of
# properties a mixer must have carry its name in their ids.
ADDITIVE = pytest.mark.parametrize("mixer", ["additive"])


def tabular_q(n_agents, n_actions, n_states, values=None):
    q = FactoredQ(n_agents, n_actions, "tabular", n_states=n_states)
    if values is not None:
        q.table.data = np.asarray(values, dtype=np.float64).reshape(
            n_states, n_agents, n_actions
        )
    return q


def make_batch(ids, actions, rewards, next_ids):
    return Batch(
        inputs=np.asarray(ids),
        actions=np.asarray(actions),
        rewards=np.asarray(rewards, dtype=np.float64),
        next_inputs=np.asarray(next_ids),
    )


def full_batch(d):
    """Every transition of a tabular dataset."""
    return make_batch(d.states, d.actions, d.rewards, d.next_states)


def data_and_greedy_q(table, d):
    """Mean Q_tot of the data's and of the greedy joint actions."""
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
    loss, _, stats = cfcql_loss(batch, q, target, None, alpha, gamma)

    q_data = 1.0 + (-1.0)
    lse0 = np.log(np.exp(1.0 + (-1.0)) + np.exp(2.0 + (-1.0)))
    lse1 = np.log(np.exp(0.5 + 1.0) + np.exp(-1.0 + 1.0))
    y = 0.3 + gamma * (0.0 + 0.0)
    td = 0.5 * (q_data - y) ** 2
    expected = alpha * (0.5 * (lse0 + lse1) - q_data) + td
    assert loss == pytest.approx(expected, abs=1e-12)
    assert stats["td"] == pytest.approx(td, abs=1e-12)


def test_alpha_zero_is_pure_td(rng):
    q = tabular_q(2, 3, 9, values=rng.normal(size=(9, 6)))
    target = tabular_q(2, 3, 9, values=rng.normal(size=(9, 6)))
    ids = rng.integers(0, 9, size=16)
    batch = make_batch(ids, rng.integers(0, 3, size=(16, 2)), rng.normal(size=16),
                       rng.integers(0, 9, size=16))
    loss, _, _ = cfcql_loss(batch, q, target, None, 0.0, 0.95)
    y = td_targets(target, batch, 0.95)
    vals = q.values(batch.inputs).data
    q_data = np.take_along_axis(vals, batch.actions[:, :, None], 2)[:, :, 0].sum(1)
    assert loss == pytest.approx(0.5 * ((q_data - y) ** 2).mean(), abs=1e-12)


def test_macql_exhaustive_matches_joint_enumeration(rng):
    n_agents, n_actions = 2, 3
    q = tabular_q(n_agents, n_actions, 5, values=rng.normal(size=(5, 6)))
    target = q.copy()
    ids = rng.integers(0, 5, size=8)
    batch = make_batch(ids, rng.integers(0, 3, size=(8, 2)), rng.normal(size=8),
                       rng.integers(0, 5, size=8))
    loss, _, _ = macql_loss(batch, q, target, 1.3, 9, None, 0.9)

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
    assert loss == pytest.approx(expected, abs=1e-9)


def test_macql_sampling_constant(rng):
    """Sampled estimator carries the log(|A|^n / N) importance constant."""
    q = tabular_q(2, 3, 4, values=np.zeros((4, 6)))
    target = q.copy()
    batch = make_batch([0], [[0, 0]], [0.0], [1])
    _, _, stats = macql_loss(batch, q, target, 1.0, 4, np.random.default_rng(0), 0.9)
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
        cf, _, _ = cfcql_loss(batch, q, target, lambda _: np.ones((b, 1)), alpha, 0.9)
        ma, _, _ = macql_loss(batch, q, target, alpha, n_actions, None, 0.9)
        ref = reference_single_agent_cql_loss(table, target_table, batch, alpha, 0.9)
        assert cf == pytest.approx(ref, abs=1e-9)
        assert ma == pytest.approx(ref, abs=1e-9)
        assert cf == ma  # identical computation path at n=1


def test_single_agent_training_bit_identical():
    env = ToyMMDP(1, gamma=0.9)
    rng = np.random.default_rng(0)
    d = random_toy_dataset(rng, n_agents=1, n_transitions=120, episodes=6)
    cfg = TrainConfig(alpha=1.0, total_steps=150, batch_size=16, target_interval=25,
                      record_interval=50, eval_episodes=4, lambda_mode="softmax", seed=3)
    res_cf = train_offline(cfg, d, "cfcql")
    res_ma = train_offline(cfg, d, "macql")
    np.testing.assert_array_equal(res_cf.losses, res_ma.losses)
    np.testing.assert_array_equal(res_cf.q.table.data, res_ma.q.table.data)
    assert res_cf.metrics == res_ma.metrics


# -- gradients of the full losses ----------------------------------------------


def assert_gradients_match_finite_differences(q, loss_of):
    """``q.backward`` of the gradient ``loss_of()`` returns against central
    differences of its loss."""
    params = q.parameters()
    for p in params:
        p.zero_grad()
    q.backward(loss_of()[1])
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    h = 1e-6
    for pi_, p in enumerate(params):
        flat = p.data.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_of()[0]
            flat[k] = orig - h
            down = loss_of()[0]
            flat[k] = orig
            numeric = (up - down) / (2 * h)
            assert analytic[pi_].ravel()[k] == pytest.approx(numeric, abs=2e-6, rel=1e-4)


def random_q_and_batch(n_agents, n_actions, rng, n_states=4, b=6):
    q = tabular_q(n_agents, n_actions, n_states,
                  values=rng.normal(size=(n_states, n_agents * n_actions)))
    target = q.copy()
    target.table.data = rng.normal(size=target.table.data.shape)
    batch = make_batch(
        rng.integers(0, n_states, size=b),
        rng.integers(0, q.n_actions, size=(b, n_agents)),
        rng.normal(size=b),
        rng.integers(0, n_states, size=b),
    )
    return q, target, batch


@ADDITIVE
def test_cfcql_loss_gradients_match_finite_differences(mixer, rng):
    n_states = 4
    q = tabular_q(2, 2, n_states, values=rng.normal(size=(n_states, 4)))
    target = tabular_q(2, 2, n_states, values=rng.normal(size=(n_states, 4)))
    b = 6
    batch = make_batch(
        rng.integers(0, n_states, size=b),
        rng.integers(0, 2, size=(b, 2)),
        rng.normal(size=b),
        rng.integers(0, n_states, size=b),
    )
    lam = rng.dirichlet(np.ones(2), size=b)
    assert_gradients_match_finite_differences(
        q, lambda: cfcql_loss(batch, q, target, lambda _: lam, 0.8, 0.9))


@ADDITIVE
@pytest.mark.parametrize("n_agents, n_actions, n_samples", [(2, 2, 4), (4, 3, 16)],
                         ids=["enumerated", "sampled"])
def test_macql_loss_gradients_match_finite_differences(mixer, n_agents, n_actions, n_samples,
                                                        rng):
    """n = 2 with 2 actions enumerates its 4 joints; n = 4 samples 16 of 81,
    the same 16 on every evaluation (a fresh generator of one seed)."""
    q, target, batch = random_q_and_batch(n_agents, n_actions, rng)
    assert_gradients_match_finite_differences(
        q, lambda: macql_loss(batch, q, target, 0.8, n_samples, np.random.default_rng(5), 0.9))


def tape_nodes(root):
    """Every tensor reachable from ``root`` through ``parents``, root included."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return list(seen.values())


def neural_q_and_batch(n_agents, rng, b=6, feature_dim=4):
    q = FactoredQ(n_agents, 3, "neural", feature_dim=feature_dim, rng=rng)
    batch = make_batch(rng.normal(size=(b, n_agents, feature_dim)),
                       rng.integers(0, 3, size=(b, n_agents)), rng.normal(size=b),
                       rng.normal(size=(b, n_agents, feature_dim)))
    return q, q.copy(), batch


def assert_only_the_network_is_taped(q, grad):
    """The tape ``q.backward`` reverses is the network's forward: its L + 2
    nodes (the L layers, the output swap and the untaped input swap) and its
    2L parameters, with no loss node on it."""
    nodes = tape_nodes(grad.values)
    layers = len(q.net.weights)
    assert len(nodes) == 3 * layers + 2
    assert {id(p) for p in nodes if p.requires_grad and p.bwd is None} == {
        id(p) for p in q.parameters()}


@ADDITIVE
def test_macql_tape_does_not_grow_with_agents(mixer, rng):
    """Tabular values tape nothing; a network's tape is its forward, at every n."""
    for n_agents in (2, 5):
        q, target, batch = random_q_and_batch(n_agents, 3, rng)
        _, grad, _ = macql_loss(batch, q, target, 1.0, 4, np.random.default_rng(0), 0.9)
        assert tape_nodes(grad.values) == [grad.values] and not grad.values.requires_grad
        q, target, batch = neural_q_and_batch(n_agents, rng)
        _, grad, _ = macql_loss(batch, q, target, 1.0, 4, np.random.default_rng(0), 0.9)
        assert_only_the_network_is_taped(q, grad)


def loss_and_table_grad(q, loss_of):
    """The loss ``loss_of()`` returns and the table gradient of q.backward."""
    q.table.zero_grad()
    loss, grad, _ = loss_of()
    q.backward(grad)
    return loss, q.table.grad.copy()


def chain_loss_and_table_grad(q, build):
    """The loss tensor ``build()`` makes and the table gradient of its tape."""
    q.table.zero_grad()
    loss = build()
    ad.backward(loss)
    return float(loss.data), q.table.grad.copy()


@pytest.mark.parametrize("penalty", [False, True], ids=["td_alone", "with_block"])
def test_table_backward_matches_add_at_byte_for_byte(penalty, rng):
    """Both tabular scatters of q.backward against np.add.at. TD alone adds
    each row's g_tot at its B * n chosen entries; with a block, g_tot is added
    into the block at the chosen entries and then the rows go in. States
    repeat, so entries accumulate, in row order."""
    n, n_actions, n_states, b = 3, 4, 5, 11
    q = tabular_q(n, n_actions, n_states)
    ids = rng.integers(0, n_states, size=b)
    actions = rng.integers(0, n_actions, size=(b, n))
    g_tot = rng.normal(size=b)
    block = rng.normal(size=(b, n, n_actions)) if penalty else None
    rows = np.zeros((b, n, n_actions)) if block is None else block.copy()
    np.add.at(rows, (np.arange(b)[:, None], np.arange(n), actions), g_tot[:, None])
    expected = np.zeros((n_states, n, n_actions))
    np.add.at(expected, ids, rows)
    entries = None if penalty else q.chosen_entries(ids, actions)
    q.backward(learner.ValuesGrad(ids, actions, q.values(ids), entries, g_tot, block))
    assert q.table.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_agents", [2, 3])
def test_additive_macql_is_cfcql_at_n_times_alpha(n_agents, rng):
    """log sum_a exp sum_i Q_i(a_i) = sum_i logsumexp Q_i, so with every joint
    enumerated, macql at alpha is uniform-lambda cfcql at n * alpha."""
    q, target, batch = random_q_and_batch(n_agents, 3, rng, n_states=5, b=12)
    alpha, n_joint = 0.7, q.n_actions**n_agents
    macql, macql_grad = loss_and_table_grad(
        q, lambda: macql_loss(batch, q, target, alpha, n_joint, None, 0.9))
    cfcql, cfcql_grad = loss_and_table_grad(
        q, lambda: cfcql_loss(batch, q, target, None, n_agents * alpha, 0.9))
    assert macql == pytest.approx(cfcql, rel=1e-12)
    np.testing.assert_allclose(macql_grad, cfcql_grad, rtol=0, atol=1e-12)


# -- structural properties -------------------------------------------------------


def test_chosen_entries_hold_the_rows_values_and_reject_bad_inputs(rng):
    """The table entries a tabular TD term reads are those of the gathered
    rows at the data's actions, byte for byte; a bad state id, action or
    shape raises."""
    q = tabular_q(3, 4, 7, values=rng.normal(size=(7, 12)))
    ids = rng.integers(0, 7, size=9)
    actions = rng.integers(0, 4, size=(9, 3))
    want = np.take_along_axis(q.values(ids).data, actions[:, :, None], axis=2)[:, :, 0]
    got = q.table.data.reshape(-1)[q.chosen_entries(ids, actions)]
    assert got.tobytes() == want.tobytes()
    for bad in (4, -1):
        bad_actions = actions.copy()
        bad_actions[5, 2] = bad
        with pytest.raises(ValueError, match=f"^action {bad} is outside 0..3$"):
            q.chosen_entries(ids, bad_actions)
    for bad in (7, -2):
        with pytest.raises(ValueError, match=f"^state id {bad} is outside 0..6$"):
            q.chosen_entries(np.r_[ids[:8], bad], actions)
    with pytest.raises(ValueError, match=r"actions of shape \(9, 2\) for 9 rows of 3 agents"):
        q.chosen_entries(ids, actions[:, :2])


@ADDITIVE
def test_igm_greedy_matches_joint_argmax(mixer, rng):
    q = tabular_q(3, 3, 2, values=rng.normal(size=(2, 9)))
    vals = q.values(np.array([0, 1])).data
    joints = all_joint_actions(3, 3)
    per_state_best = []
    for s in range(2):
        q_tot = q.mix(np.stack([vals[s, i, joints[:, i]] for i in range(3)], axis=1)).data
        per_state_best.append(joints[np.argmax(q_tot)])
    np.testing.assert_array_equal(vals.argmax(axis=2), per_state_best)


def neural_q(rng):
    return FactoredQ(3, 4, "neural", feature_dim=5, rng=rng)


@pytest.mark.parametrize("mode", ["tabular", "neural"])
def test_copy_is_an_independent_clone_with_the_same_bytes(mode, rng):
    if mode == "tabular":
        q = tabular_q(3, 4, 7, values=rng.normal(size=(7, 12)))
    else:
        q = neural_q(rng)
    clone = q.copy()
    pairs = list(zip(q.parameters(), clone.parameters()))
    assert len(pairs) == len(q.parameters()) == len(clone.parameters())
    before = [p.data.tobytes() for p in q.parameters()]
    for p, c in pairs:
        assert c is not p and not np.shares_memory(c.data, p.data)
        assert (c.data.dtype, c.data.shape, c.data.tobytes()) == (
            p.data.dtype, p.data.shape, p.data.tobytes())
        p.grad = rng.normal(size=p.shape)
    Adam(q.parameters(), lr=0.1).step()
    for (p, c), old in zip(pairs, before):
        assert p.data.tobytes() != old
        assert c.data.tobytes() == old


def test_neural_init_draws_only_the_per_agent_networks():
    n, d, n_actions = 3, 5, 4
    q = FactoredQ(n, n_actions, "neural", feature_dim=d, rng=np.random.default_rng(21))
    net = GroupedMlp(n, (d, *HIDDEN, n_actions), np.random.default_rng(21))
    assert [p.data.tobytes() for p in q.parameters()] == [
        p.data.tobytes() for p in net.parameters()]


@ADDITIVE
def test_values_and_mix_are_the_same_bytes_under_no_grad(mixer, rng):
    """Only a network's values are taped: tabular ones never need a tape."""
    for q, inputs in ((tabular_q(3, 4, 7, values=rng.normal(size=(7, 12))),
                       rng.integers(0, 7, size=9)),
                      (neural_q(rng), rng.normal(size=(9, 3, 5)))):
        values = q.values(inputs)
        mixed = q.mix(values.data.max(axis=2))
        with ad.no_grad():
            values_ng = q.values(inputs)
            mixed_ng = q.mix(values_ng.data.max(axis=2))
        assert values.requires_grad == (q.mode == "neural") and not values_ng.requires_grad
        assert values.data.tobytes() == values_ng.data.tobytes()
        assert mixed.data.tobytes() == mixed_ng.data.tobytes()


def counterfactual_rows(values, actions):
    """(B, n, A) Q_tot rows: row (b, i) varies agent i's action, the others
    held at ``actions``."""
    chosen = ad.gather_last(values, actions[:, :, None])  # (B, n, 1)
    return chains.add(values,
                      ad.reshape(ad.tsum(chosen, axis=1), (len(actions), 1, 1)) - chosen)


@ADDITIVE
def test_counterfactual_rows_match_bruteforce(mixer, rng):
    b, n, n_actions, n_states = 6, 3, 4, 5
    # quarter-integer values: the sums are exact in any order
    q = tabular_q(n, n_actions, n_states,
                  values=rng.integers(-40, 40, size=(n_states, n * n_actions)) / 4.0)
    values = chains.taped_values(q, rng.integers(0, n_states, size=b))
    actions = rng.integers(0, n_actions, size=(b, n))
    expected = np.empty((b, n, n_actions))
    for i in range(n):
        for a in range(n_actions):
            joint = actions.copy()
            joint[:, i] = a
            chosen = np.take_along_axis(values.data, joint[:, :, None], axis=2)[:, :, 0]
            expected[:, i, a] = q.mix(chosen).data
    rows = counterfactual_rows(values, actions)
    assert rows.requires_grad
    np.testing.assert_array_equal(rows.data, expected)


def boltzmann(q, batch):
    """The counterfactual Boltzmann policy recomputed from Q_tot's rows."""
    with ad.no_grad():
        return softmax(counterfactual_rows(q.values(batch.inputs), batch.actions).data)


def reference_cfcql_loss(batch, q, target, lam, alpha, gamma):
    """The penalty built from the (B, n, A) counterfactual rows of Q_tot."""
    values = chains.taped_values(q, batch.inputs)
    q_data = chains.q_tot_data(values, batch.actions)
    td = chains.td_chain(q_data, td_targets(target, batch, gamma))
    lse = ad.logsumexp_t(counterfactual_rows(values, batch.actions), axis=-1)
    penalty = chains.mul(ad.tmean(ad.tsum(chains.mul(lam, lse), axis=1) - q_data), alpha)
    return chains.add(penalty, td)


@pytest.mark.parametrize("n_agents", [2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["uniform", "onehot", "softmax"])
def test_additive_cfcql_loss_matches_the_counterfactual_rows(n_agents, mode, rng):
    """The per-agent form sum_i lambda_i (lse Q_i - chosen_i) gives the loss
    and table gradient of the rows' logsumexp, to rounding."""
    q, target, batch = random_q_and_batch(n_agents, 3, rng, n_states=7, b=16)
    beta = rng.dirichlet(np.ones(3), size=(16, n_agents))
    if mode == "softmax":
        lam = batch_lambda(boltzmann(q, batch), beta)
    elif mode == "onehot":  # all of each row's weight on one agent
        lam = np.eye(n_agents)[rng.integers(0, n_agents, size=16)]
    else:
        lam = np.full((16, n_agents), 1.0 / n_agents)
    got_loss, got_grad = loss_and_table_grad(
        q, lambda: cfcql_loss(batch, q, target, None if mode == "uniform" else lambda _: lam,
                              0.8, 0.9))
    want_loss, want_grad = chain_loss_and_table_grad(
        q, lambda: reference_cfcql_loss(batch, q, target, lam, 0.8, 0.9))
    assert got_loss == pytest.approx(want_loss, rel=1e-12)
    np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12,
                               atol=1e-12 * np.abs(want_grad).max())


@ADDITIVE
@pytest.mark.parametrize("n_agents", [2, 3, 5])
def test_lambda_from_the_loss_forward_equals_the_recompute(mixer, n_agents, rng):
    """cfcql_loss hands lam the Boltzmann policy of its own forward pass, once:
    the softmax of Q_i, which is the softmax of the counterfactual rows."""
    q, target, batch = random_q_and_batch(n_agents, 3, rng, n_states=7, b=16)
    beta = rng.dirichlet(np.ones(3), size=(16, n_agents))
    seen = []

    def lam(pi):
        seen.append(pi)
        return batch_lambda(pi, beta)

    cfcql_loss(batch, q, target, lam, 0.8, 0.9)
    assert len(seen) == 1
    recomputed = boltzmann(q, batch)
    weights = batch_lambda(seen[0], beta)
    recomputed_weights = batch_lambda(recomputed, beta)
    np.testing.assert_allclose(seen[0], recomputed, rtol=0, atol=1e-12)
    np.testing.assert_allclose(weights, recomputed_weights, rtol=0, atol=1e-12)


def joint_bruteforce(values, actions):
    """Per row: logsumexp over every joint action of sum_i Q_i(a_i) minus the
    data's Q_tot, and its gradient in ``values`` (joint-softmax marginals
    minus the data's one-hot)."""
    b, n, n_actions = values.shape
    joints = all_joint_actions(n, n_actions)  # (K, n)
    agents = np.arange(n)
    excess, grad = np.empty(b), np.zeros_like(values)
    for k in range(b):
        q_joint = values[k, agents, joints].sum(axis=1)  # (K,)
        m = q_joint.max()
        p = np.exp(q_joint - m) / np.exp(q_joint - m).sum()
        excess[k] = m + np.log(np.exp(q_joint - m).sum()) - values[k, agents, actions[k]].sum()
        for i in range(n):
            grad[k, i] = np.bincount(joints[:, i], weights=p, minlength=n_actions)
        grad[k, agents, actions[k]] -= 1.0
    return excess, grad


@pytest.mark.parametrize("n_agents", [1, 2, 3])
def test_enumerated_additive_macql_matches_joint_bruteforce(n_agents, rng):
    """Every joint enumerated: loss and table gradient equal the explicit
    logsumexp over the |A|^n joints, without building them."""
    q, target, batch = random_q_and_batch(n_agents, 3, rng, n_states=5, b=10)
    alpha, gamma, b = 1.3, 0.9, 10
    loss, grad = loss_and_table_grad(
        q, lambda: macql_loss(batch, q, target, alpha, 3**n_agents, None, gamma))

    values = q.table.data[batch.inputs]
    excess, d_excess = joint_bruteforce(values, batch.actions)
    chosen = np.take_along_axis(values, batch.actions[:, :, None], 2)[:, :, 0]
    err = chosen.sum(axis=1) - td_targets(target, batch, gamma)
    assert loss == pytest.approx(alpha * excess.mean() + 0.5 * (err**2).mean(), rel=1e-12)
    d_values = alpha / b * d_excess
    np.put_along_axis(d_values, batch.actions[:, :, None],
                      np.take_along_axis(d_values, batch.actions[:, :, None], 2)
                      + (err / b)[:, None, None], axis=2)
    want = np.zeros_like(q.table.data)
    np.add.at(want, batch.inputs, d_values)
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_additive_cfcql_tape_does_not_grow_with_agents(rng):
    """Tabular values tape nothing; a network's tape is its forward, at every n."""
    for n_agents in (2, 5):
        for q, target, batch in (random_q_and_batch(n_agents, 3, rng),
                                 neural_q_and_batch(n_agents, rng)):
            beta = rng.dirichlet(np.ones(3), size=(len(batch), n_agents))
            lam = functools.partial(batch_lambda, beta_probs=beta)
            _, grad, _ = cfcql_loss(batch, q, target, lam, 1.0, 0.9)
            if q.mode == "tabular":
                assert tape_nodes(grad.values) == [grad.values]
                assert not grad.values.requires_grad
            else:
                assert_only_the_network_is_taped(q, grad)


@pytest.mark.parametrize("n_agents", [1, 2, 4, 5])
def test_a_loss_term_tapes_nothing(n_agents, rng):
    """TD alone, penalised cfcql, and enumerated and sampled macql each return
    a float loss and numpy gradients: the TD part (B,) and a (B, n, A)
    penalty block, or None for TD alone. No loss node is taped: tabular
    values have no tape, and a network's is its forward alone."""
    for q, target, batch in (random_q_and_batch(n_agents, 3, rng),
                             neural_q_and_batch(n_agents, rng)):
        beta = rng.dirichlet(np.ones(3), size=(len(batch), n_agents))
        lam = functools.partial(batch_lambda, beta_probs=beta)
        sampler = np.random.default_rng(0)
        results = [cfcql_loss(batch, q, target, None, 0.0, 0.9),
                   cfcql_loss(batch, q, target, lam, 1.0, 0.9),
                   macql_loss(batch, q, target, 1.0, 3**n_agents, None, 0.9),
                   macql_loss(batch, q, target, 1.0, 2, sampler, 0.9)]
        for k, (loss, grad, _) in enumerate(results):
            assert type(loss) is float
            assert type(grad.g_tot) is np.ndarray and grad.g_tot.shape == (len(batch),)
            if k == 0:
                assert grad.block is None
            else:
                assert type(grad.block) is np.ndarray
                assert grad.block.shape == (len(batch), n_agents, 3)
            if q.mode == "neural":
                assert_only_the_network_is_taped(q, grad)
            elif k == 0:  # TD alone reads the picked table entries, not the rows
                assert grad.values is None
            else:
                assert grad.values.parents == () and not grad.values.requires_grad


def test_tabular_training_reverses_no_tape(monkeypatch):
    """With autodiff.backward made to raise, train_online and all three
    methods of train_offline still run on toy n = 2."""
    def no_tape(*args):
        raise AssertionError("a tabular update reversed a tape")

    monkeypatch.setattr(ad, "backward", no_tape)
    env = ToyMMDP(2)
    config = OnlineTrainConfig(budget=600, n_parallel=4, updates_per_block=50,
                               eval_episodes=16, medium_fraction=0.9)
    online = train_online(env, config.budget, RngStream(2, "online"), config)
    assert online.expert.training_steps == config.budget
    d = random_dataset(env, 12, RngStream(4, "data"))
    cfg = TrainConfig(alpha=0.7, total_steps=40, batch_size=16, target_interval=20,
                      record_interval=40, eval_episodes=2, seed=5)
    for method in METHODS:
        assert np.isfinite(train_offline(cfg, d, method).losses).all()


def recorded_steps(monkeypatch):
    """Digests of every parameter gradient each Adam step reads, in order."""
    steps, step = [], Adam.step

    def recording(opt):
        steps.append([None if p.grad is None else hashlib.sha256(p.grad.tobytes()).hexdigest()
                      for p in opt.params])
        step(opt)

    monkeypatch.setattr(Adam, "step", recording)
    return steps


# (method, lambda_mode) runs: cfcql with both weightings, macql and naive
CHAIN_RUNS = [("cfcql", "softmax"), ("cfcql", "uniform"), ("macql", "softmax"),
              ("naive", "softmax")]


@pytest.mark.parametrize("make_env", [lambda: ToyMMDP(2), lambda: ToyMMDP(3),
                                      lambda: ToyMMDP(4), lambda: EqualLine(2, episode_limit=5)],
                         ids=["toy-n2", "toy-n3", "toy-n4", "line-n2"])
def test_training_has_the_bits_of_the_op_chain_losses(make_env, monkeypatch):
    """train_offline with the loss terms and q.backward, and with the op chains
    they replace reversed on the tape (tests/chains.py), gives the same
    losses, gradients at every step, parameters and metrics, byte for byte.
    Toy n = 2 and 3 enumerate macql's joints and toy n = 4 samples them
    (81 > 32); on the line the block seeds the network's backward."""
    env = make_env()
    d = random_dataset(env, 12, RngStream(4, "data"))
    for method, lambda_mode in CHAIN_RUNS:
        cfg = TrainConfig(alpha=0.7, total_steps=60, batch_size=16, target_interval=20,
                          record_interval=30, eval_episodes=2, bc_steps=20, seed=5,
                          lambda_mode=lambda_mode)
        runs = []
        for chain in (False, True):
            with monkeypatch.context() as patch:
                if chain:
                    patch.setattr(learner, "cfcql_loss", chains.cfcql_loss)
                    patch.setattr(learner, "macql_loss", chains.macql_loss)
                    patch.setattr(FactoredQ, "backward", chains.backward)
                grads = recorded_steps(patch)
                runs.append((train_offline(cfg, d, method), grads))
        (got, got_grads), (want, want_grads) = runs
        case = (method, lambda_mode)
        assert got.losses.tobytes() == want.losses.tobytes(), case
        # behavior cloning's Adam steps come first where softmax lambda needs them
        assert len(got_grads) >= cfg.total_steps and got_grads == want_grads, case
        for p, r in zip(got.q.parameters(), want.q.parameters(), strict=True):
            assert p.data.tobytes() == r.data.tobytes(), case
        assert got.metrics == want.metrics, case


def test_lambda_mode_changes_penalty_not_td(rng):
    q = tabular_q(3, 3, 5, values=rng.normal(size=(5, 9)))
    target = q.copy()
    b = 10
    beta = rng.dirichlet(np.ones(3), size=(b, 3))
    batch = make_batch(rng.integers(0, 5, size=b), rng.integers(0, 3, size=(b, 3)),
                       rng.normal(size=b), rng.integers(0, 5, size=b))
    _, _, s1 = cfcql_loss(batch, q, target, None, 1.0, 0.9)
    _, _, s2 = cfcql_loss(batch, q, target, lambda pi: batch_lambda(pi, beta), 1.0, 0.9)
    assert s1["td"] == s2["td"]
    assert s1["penalty"] != s2["penalty"]


def test_batch_lambda_is_simplex_and_modes_differ(rng):
    q = tabular_q(4, 3, 6, values=rng.normal(size=(6, 12)))
    b = 12
    beta = rng.dirichlet(np.ones(3), size=(b, 4))
    batch = make_batch(rng.integers(0, 6, size=b), rng.integers(0, 3, size=(b, 4)),
                       rng.normal(size=b), rng.integers(0, 6, size=b))
    lam = batch_lambda(boltzmann(q, batch), beta)
    assert lam.shape == (b, 4)
    np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(lam >= 0)
    # softmax weights differ from the uniform mode's 1/n
    assert np.abs(lam - 0.25).max() > 1e-3


# -- training loop ----------------------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("target_interval", 0), ("total_steps", 0), ("eval_episodes", 0),
    ("record_interval", 0), ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
    ("alpha", -0.5), ("alpha", float("nan")), ("bc_steps", -5), ("lambda_mode", "onehot"),
    ("alpha", float("inf")), ("lr", float("inf")), ("batch_size", 2.5), ("total_steps", 3.5),
    ("eval_episodes", 1.5), ("seed", 1.5), ("target_interval", 2.5), ("record_interval", 2.5),
    ("bc_steps", 2.5),
])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=f"^(unknown )?{field}"):
        TrainConfig(**{field: value})


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
    _, grad, _ = cfcql_loss(full_batch(d), q, q.copy(), None, alpha, d.header.spec.gamma)
    q.backward(grad)
    assert np.max(np.abs(q.table.grad)) <= 10 * DEFAULT_TOL


@pytest.mark.parametrize("state, next_state, encoded_ends", [
    (None, None, 0),
    (None, 7.25, 1),
    (0.0, -0.0, 1),
], ids=["sampled_tier", "next_state_is_not_next_row", "next_state_differs_in_zero_sign"])
def test_encode_transitions_equals_encoding_every_row(state, next_state, encoded_ends):
    # the edits set agent 0's position in row 4's state and in row 3's next
    # state, which the sampled tier makes equal
    env = EqualLine(3)
    d = random_dataset(env, 6, RngStream(11))
    states, next_states = d.states.copy(), d.next_states.copy()
    if state is not None:
        states[4, 0] = state
    if next_state is not None:
        next_states[3, 0] = next_state
    encoded = []

    def encode(rows):
        encoded.append(len(rows))
        return env.per_agent_features(rows)

    inputs, next_inputs = encode_transitions(encode, states, next_states)
    for got, raw in ((inputs, states), (next_inputs, next_states)):
        want = env.per_agent_features(raw)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    # states, then only the trajectory ends and the rows that break the pattern
    assert encoded == [len(d), len(d.starts) + encoded_ends]


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
                      record_interval=30, eval_episodes=2, bc_steps=100, seed=0)
    res = train_offline(cfg, d, "cfcql")
    assert res.policy is None
    assert len(res.metrics) == 2
    assert all(np.isfinite(row["eval_return"]) for row in res.metrics)


def test_evaluate_policy_normalization():
    assert normalized_score(7.5, ScoreRefs(5.0, 10.0)) == pytest.approx(50.0)
    assert normalized_score(10.0, ScoreRefs(5.0, 10.0)) == pytest.approx(100.0)
    assert normalized_score(5.0, ScoreRefs(5.0, 10.0)) == pytest.approx(0.0)
    assert normalized_score(7.5, ScoreRefs(10.0, 5.0)) == pytest.approx(50.0)
    # a zero or non-finite span fails at construction, not in the first evaluation
    for random_score, expert_score in ((2.0, 2.0), (float("nan"), 1.0), (0.0, float("inf"))):
        with pytest.raises(ValueError,
                           match=f"got random {random_score} and expert {expert_score}$"):
            ScoreRefs(random_score, expert_score)
    env = ToyMMDP(2, episode_limit=4)
    res = evaluate_policy(env, RandomActor(2, 3), 8, np.random.default_rng(0))
    assert res.normalized_score is None
    assert 0.0 <= res.mean_return <= 4.0
