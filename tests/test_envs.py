import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcql_lab.envs import (
    CapacityError,
    EqualLine,
    LINE_DISPLACEMENTS,
    ToyMMDP,
    all_joint_actions,
    decode_joint,
    encode_joint,
    min_pairwise_distance,
)
from cfcql_lab.rollouts import RandomActor, rollout_episodes


def test_joint_action_encoding_roundtrip():
    actions = all_joint_actions(3, 4)
    assert actions.shape == (64, 3)
    back = encode_joint(actions, 4)
    np.testing.assert_array_equal(back, np.arange(64))
    assert decode_joint(13, 3, 4).tolist() == [1, 3, 0]


# -- toy chain ---------------------------------------------------------------


def test_toy_reset_deterministic():
    env = ToyMMDP(5)
    a = env.reset_batch(np.random.default_rng(11), 4)
    b = env.reset_batch(np.random.default_rng(11), 4)
    np.testing.assert_array_equal(a, b)


def test_toy_reset_uniform_cells():
    env = ToyMMDP(5)
    cells = env.reset_batch(np.random.default_rng(0), 10000)
    freqs = np.stack([(cells == c).mean(axis=0) for c in range(3)])
    assert np.all(np.abs(freqs - 1 / 3) < 0.02)


def test_toy_reset_single_agent_shape():
    env = ToyMMDP(1)
    assert env.reset_batch(np.random.default_rng(3), 2).shape == (2, 1)


def test_toy_step_rewards():
    env = ToyMMDP(5)
    cells = np.array([[1, 1, 1, 1, 1]])
    nxt, r = env.step_batch(cells, np.zeros((1, 5), dtype=int))
    assert r[0] == pytest.approx(1.0)
    np.testing.assert_array_equal(nxt, cells)

    # two agents end in the target cell -> reward 0.4
    cells = np.array([[1, 1, 0, 0, 2]])
    actions = np.array([[0, 0, 0, 0, 0]])
    _, r = env.step_batch(cells, actions)
    assert r[0] == pytest.approx(0.4)


def test_toy_step_saturates_at_ends():
    env = ToyMMDP(1)
    nxt, _ = env.step_batch(np.array([[0]]), np.array([[2]]))  # down from cell 0
    assert nxt[0, 0] == 0
    nxt, _ = env.step_batch(np.array([[2]]), np.array([[1]]))  # up from cell 2
    assert nxt[0, 0] == 2


def test_toy_episode_limit():
    env = ToyMMDP(2, episode_limit=3)
    batch = rollout_episodes(env, RandomActor(2, 3), 4, np.random.default_rng(0))
    assert batch.states.shape[:2] == (3, 4)


def test_toy_exact_model_matches_single_steps():
    # every (state, joint action) cell, byte for byte, at n = 1..6
    for n in range(1, 7):
        env = ToyMMDP(n)
        model = env.exact_model()
        ids = np.arange(env.n_states)
        states, joint = np.repeat(ids, len(ids)), np.tile(ids, len(ids))
        nxt, rewards = env.step_batch(decode_joint(states, n, 3), decode_joint(joint, n, 3))
        assert model.next_states.shape == (env.n_states, env.n_states, 1)
        assert model.next_states[:, :, 0].ravel().tobytes() == env.encode_batch(nxt).tobytes()
        assert model.rewards.ravel().tobytes() == rewards.tobytes()


def test_toy_exact_model_agrees_with_step_on_random_probes():
    env = ToyMMDP(3)
    model = env.exact_model()
    np.testing.assert_allclose(model.next_probs.sum(axis=2), 1.0, rtol=0, atol=1e-12)
    assert np.all(model.next_probs >= 0)
    assert np.all(np.abs(model.rewards) <= env.spec().r_max)
    assert np.all((model.next_states >= 0) & (model.next_states < model.n_states))
    rng = np.random.default_rng(5)
    states = rng.integers(0, model.n_states, size=1000)
    actions = rng.integers(0, 3, size=(1000, 3))
    cells = decode_joint(states, 3, 3)
    nxt, rewards = env.step_batch(cells, actions)
    joint = encode_joint(actions, 3)
    np.testing.assert_array_equal(
        model.next_states[states, joint, 0], env.encode_batch(nxt)
    )
    np.testing.assert_allclose(model.rewards[states, joint], rewards)


def test_toy_exact_model_builds_no_per_agent_table():
    # At n = 6 one (S, |A|^n) int64 table is 4.25 MB; an (S, |A|^n, n) one
    # would be 25.5 MB. Agent by agent the build holds a few 2-D tables.
    env = ToyMMDP(6)
    tracemalloc.start()
    try:
        env.exact_model()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_toy_exact_model_rows_are_one_hot():
    model = ToyMMDP(2).exact_model()
    np.testing.assert_allclose(model.next_probs.sum(axis=2), 1.0)


def test_toy_exact_model_capacity_guard():
    with pytest.raises(CapacityError):
        ToyMMDP(9).exact_model()


# -- equal-spacing line ------------------------------------------------------


def test_line_requires_two_agents():
    with pytest.raises(ValueError):
        EqualLine(1)


def test_line_reset_bounds_and_determinism():
    env = EqualLine(4)
    s1 = env.reset_batch(np.random.default_rng(9), 50)
    s2 = env.reset_batch(np.random.default_rng(9), 50)
    np.testing.assert_array_equal(s1, s2)
    assert s1.shape == (50, 4)
    assert np.all((0.0 <= s1) & (s1 <= 2.0))


def test_line_reset_mean_position():
    env = EqualLine(3)
    pos = env.reset_batch(np.random.default_rng(1), 10000)
    assert abs(pos.mean() - 1.0) < 0.02


def test_line_step_zero_when_nobody_moves():
    env = EqualLine(3)
    pos = np.array([[0.3, 1.2, 1.9]])
    _, r = env.step_batch(pos, np.zeros((1, 3), dtype=int))
    assert r[0] == pytest.approx(0.0)


def test_line_step_hand_case():
    env = EqualLine(2)
    assert env.line_length == 10.0
    pos = np.array([[1.0, 1.5]])
    plus_one = int(np.flatnonzero(LINE_DISPLACEMENTS == 1.0)[0])
    nxt, r = env.step_batch(pos, np.array([[0, plus_one]]))
    np.testing.assert_allclose(nxt, [[1.0, 2.5]])
    assert r[0] == pytest.approx(1.0)  # 10 * 1 * (1.5 - 0.5) / 10


def test_line_step_clips_to_zero():
    env = EqualLine(2)
    minus = int(np.flatnonzero(LINE_DISPLACEMENTS == -0.01)[0])
    nxt, _ = env.step_batch(np.array([[0.005, 1.0]]), np.array([[minus, 0]]))
    assert nxt[0, 0] == pytest.approx(0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_line_return_telescopes(n_agents, seed):
    env = EqualLine(n_agents, episode_limit=12)
    rng = np.random.default_rng(seed)
    pos = env.reset_batch(rng, 3)
    initial = min_pairwise_distance(pos)
    total = np.zeros(3)
    for _ in range(env.episode_limit):
        actions = rng.integers(0, env.n_actions, size=(3, n_agents))
        pos, r = env.step_batch(pos, actions)
        total += r
    final = min_pairwise_distance(pos)
    expect = 10.0 * (n_agents - 1) * (final - initial) / env.line_length
    np.testing.assert_allclose(total, expect, atol=1e-9)


def test_line_rewards_within_r_max(rng):
    env = EqualLine(5)
    pos = env.reset_batch(rng, 200)
    for _ in range(50):
        actions = rng.integers(0, env.n_actions, size=(200, 5))
        pos, r = env.step_batch(pos, actions)
        assert np.all(np.abs(r) <= env.r_max + 1e-12)


def loop_line_features(env, positions):
    """EqualLine's features agent by agent: the others without agent i, their
    nearest positions at or below and above agent i, and their sort."""
    pos = np.asarray(positions, dtype=np.float64)
    m, n = pos.shape
    scale = 1.0 / env.line_length
    feats = np.empty((m, n, n + 3))
    min_gap = min_pairwise_distance(pos)
    for i in range(n):
        others = np.delete(pos, i, axis=1)
        below = np.where(others <= pos[:, i:i + 1], others, -np.inf).max(axis=1)
        above = np.where(others > pos[:, i:i + 1], others, np.inf).min(axis=1)
        left = np.where(np.isfinite(below), pos[:, i] - below, pos[:, i])
        right = np.where(np.isfinite(above), above - pos[:, i], env.line_length - pos[:, i])
        feats[:, i, 0] = pos[:, i] * scale
        feats[:, i, 1] = left * scale
        feats[:, i, 2] = right * scale
        feats[:, i, 3] = min_gap * scale
        feats[:, i, 4:] = np.sort(others, axis=1) * scale
    return feats


@pytest.mark.parametrize("n_agents", [2, 3, 4, 5])
def test_line_features_equal_the_per_agent_loop(n_agents):
    """Byte-equal on random rows, rows with ties (several agents on one point)
    and rows clamped to the walls, and row by row."""
    env = EqualLine(n_agents)
    rng = np.random.default_rng(n_agents)
    length = env.line_length
    walls = np.clip(rng.normal(0.0, 3.0, size=(300, n_agents)), 0.0, length)
    walls[rng.random(walls.shape) < 0.3] = length
    for pos in (rng.uniform(0.0, length, size=(300, n_agents)),
                rng.integers(0, 3, size=(300, n_agents)) * 0.5,
                np.round(rng.uniform(0.0, length, size=(300, n_agents)), 1),
                walls):
        got = env.per_agent_features(pos)
        assert got.tobytes() == loop_line_features(env, pos).tobytes()
        assert got[7:8].tobytes() == env.per_agent_features(pos[7:8]).tobytes()


def test_line_features_hand_case():
    env = EqualLine(3)  # L = 10
    got = env.per_agent_features(np.array([[4.0, 1.0, 4.0]])) * env.line_length
    np.testing.assert_allclose(got[0], [[4.0, 0.0, 6.0, 0.0, 1.0, 4.0],
                                        [1.0, 1.0, 3.0, 0.0, 4.0, 4.0],
                                        [4.0, 0.0, 6.0, 0.0, 1.0, 4.0]])
