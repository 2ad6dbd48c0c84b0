import numpy as np
import pytest

from cfcql_lab.core import RngStream, Tier, validate_dataset
from cfcql_lab.datagen import (
    OnlineTrainConfig,
    make_replay_dataset,
    mix,
    random_dataset,
    sample_dataset,
    train_online,
)
from cfcql_lab.envs import ToyMMDP

# Seed 2 at this budget first reaches 0.9 of the expert's return at its third
# checkpoint, so "the first checkpoint" and "the first one over the threshold"
# are different claims.
ONLINE = OnlineTrainConfig(budget=600, n_parallel=4, updates_per_block=50,
                           eval_episodes=16, medium_fraction=0.9)


def columns(d):
    return d.states, d.actions, d.rewards, d.next_states, d.dones, d.starts


def trajectories(d):
    ends = np.append(d.starts[1:], len(d))
    return list(zip(d.starts.tolist(), ends.tolist()))


def same_columns(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(columns(a), columns(b)))


@pytest.fixture(scope="module")
def env():
    return ToyMMDP(2)


@pytest.fixture(scope="module")
def online(env):
    return train_online(env, ONLINE.budget, RngStream(2, "online"), ONLINE)


@pytest.fixture(scope="module")
def tiers(env, online):
    rng = RngStream(5)
    medium = sample_dataset(env, online.medium, 30, rng.child("medium"), tier=Tier.MEDIUM)
    expert = sample_dataset(env, online.expert, 12, rng.child("expert"))
    return {
        "random": random_dataset(env, 10, rng.child("random")),
        "medium": medium,
        "expert": expert,
        "medium_replay": make_replay_dataset(env, online),
        "mixed": mix(medium, expert, rng.child("mixed")),
    }


def test_medium_is_first_checkpoint_over_threshold(online):
    threshold = ONLINE.medium_fraction * online.expert.eval_return
    assert online.expert is online.checkpoints[-1]
    assert online.expert.level == Tier.EXPERT and online.medium.level == Tier.MEDIUM
    first = next(ck for ck in online.checkpoints[:-1] if ck.eval_return >= threshold)
    assert online.medium is first
    assert online.checkpoints.index(online.medium) > 0


def test_replay_is_the_buffer_up_to_medium(env, online, tiers):
    replay = tiers["medium_replay"]
    cut = online.medium.buffer_len
    assert replay.header.tier == Tier.MEDIUM_REPLAY
    assert len(replay) == cut
    np.testing.assert_array_equal(replay.starts,
                                  online.episode_starts[online.episode_starts < cut])
    states, actions, rewards, next_states, dones, _ = columns(replay)
    np.testing.assert_array_equal(states, env.encode_batch(online.states[:cut]))
    np.testing.assert_array_equal(next_states, env.encode_batch(online.next_states[:cut]))
    np.testing.assert_array_equal(actions, online.actions[:cut])
    np.testing.assert_array_equal(rewards, online.rewards[:cut])
    np.testing.assert_array_equal(np.flatnonzero(dones) + 1,
                                  np.append(replay.starts[1:], cut))


def test_mix_takes_min_trajectories_from_each_side(env):
    a = random_dataset(env, 7, RngStream(21))
    b = random_dataset(env, 4, RngStream(22))
    mixed = mix(a, b, RngStream(23))
    k = 4
    assert mixed.header.tier == Tier.MIXED
    assert mixed.header.n_trajectories == 2 * k == len(mixed.starts)
    mixed_trajs = trajectories(mixed)
    for side, source in enumerate((a, b)):
        keys = [b"".join(col[lo:hi].tobytes() for col in columns(source)[:5])
                for lo, hi in trajectories(source)]
        assert len(set(keys)) == len(keys)  # random trajectories are distinct
        picked = [keys.index(b"".join(col[lo:hi].tobytes() for col in columns(mixed)[:5]))
                  for lo, hi in mixed_trajs[side * k:(side + 1) * k]]
        assert picked == sorted(set(picked))  # k distinct ones, in source order
    assert picked == [0, 1, 2, 3]  # the smaller side is taken whole


@pytest.mark.parametrize("tier", ["random", "medium", "expert", "medium_replay", "mixed"])
def test_every_tier_is_valid(env, tiers, tier):
    report = validate_dataset(tiers[tier], env.spec())
    assert report.ok, str(report)


def test_random_dataset_is_deterministic(env):
    a = random_dataset(env, 6, RngStream(11))
    b = random_dataset(env, 6, RngStream(11))
    c = random_dataset(env, 6, RngStream(12))
    assert a.header == b.header
    assert same_columns(a, b)
    assert not same_columns(a, c)
