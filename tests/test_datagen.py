import dataclasses
import re

import numpy as np
import pytest

from cfcql_lab import datagen
from cfcql_lab.core import RngStream, Tier, validate_dataset
from cfcql_lab.datagen import (
    MediumThresholdError,
    OnlineTrainConfig,
    make_replay_dataset,
    mix,
    random_dataset,
    sample_dataset,
    train_online,
)
from cfcql_lab.envs import ToyMMDP
from cfcql_lab.learner import Batch, FactoredQ, td_targets
from cfcql_lab.neural import Adam

import chains

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


def _recorded(td_term, losses):
    def loss(q, inputs, actions, y):
        out = td_term(q, inputs, actions, y)
        losses.append(np.float64(out[0]).tobytes())
        return out
    return loss


def _recorded_grads(monkeypatch):
    """Every table gradient an Adam step reads, in order."""
    grads, step = [], Adam.step

    def recording(opt):
        grads.append(opt.params[0].grad.tobytes())
        step(opt)

    monkeypatch.setattr(Adam, "step", recording)
    return grads


@pytest.mark.parametrize("per_block", [50, 70])
def test_train_online_has_the_bits_of_per_batch_targets_and_op_chain_losses(env, monkeypatch,
                                                                             per_block):
    """train_online's updates, with one td_targets pass per shared target
    network, the TD term and its B * n scatter into the table, against
    targets taken batch by batch and the op chain the term replaces, reversed
    on the tape through the table's rows (tests/chains.py): the same losses,
    table gradients, checkpoints and buffer, byte for byte. With 70 updates a
    block, target copies (every 200) fall inside blocks."""
    config = dataclasses.replace(ONLINE, updates_per_block=per_block)

    def per_batch_targets(q_target, batch, gamma):
        size = datagen.ONLINE_BATCH_SIZE
        return np.concatenate([
            td_targets(q_target, Batch(*(column[k:k + size] for column in (
                batch.inputs, batch.actions, batch.rewards, batch.next_inputs))), gamma)
            for k in range(0, len(batch), size)])

    runs = []
    for chain in (False, True):
        with monkeypatch.context() as patch:
            losses = []
            if chain:
                patch.setattr(datagen, "td_term", _recorded(chains.td_term, losses))
                patch.setattr(FactoredQ, "backward", chains.backward)
                patch.setattr(datagen, "td_targets", per_batch_targets)
            else:
                patch.setattr(datagen, "td_term", _recorded(datagen.td_term, losses))
            grads = _recorded_grads(patch)
            runs.append((train_online(env, config.budget, RngStream(2, "online"), config),
                         losses, grads))
    (terms, got, got_grads), (ops, want, want_grads) = runs
    assert len(got) == config.budget and got == want
    assert len(got_grads) == config.budget and got_grads == want_grads
    assert [ck.q.table.data.tobytes() for ck in terms.checkpoints] == \
        [ck.q.table.data.tobytes() for ck in ops.checkpoints]
    assert [ck.eval_return for ck in terms.checkpoints] == \
        [ck.eval_return for ck in ops.checkpoints]
    assert terms.states.tobytes() == ops.states.tobytes()


@pytest.mark.parametrize("high", [7, 1000, 2**31 + 1])
@pytest.mark.parametrize("size", [1, 3, 33, 64])
def test_one_block_draw_is_the_stream_of_per_update_draws(high, size):
    """train_online draws a block's batch rows in one call; the bit generator
    buffers the 32-bit halves of its outputs across calls, so the rows are
    those of one call per update, rejections included (about half of the
    draws are rejected below 2**31 + 1)."""
    block = np.random.default_rng(9).integers(0, high, size=(50, size))
    per_update = np.random.default_rng(9)
    assert block.tobytes() == np.stack(
        [per_update.integers(0, high, size=size) for _ in range(50)]).tobytes()


def test_train_online_rejects_a_config_with_another_budget(env):
    with pytest.raises(ValueError, match=r"budget 500 != config.budget 600"):
        train_online(env, 500, RngStream(2, "online"), ONLINE)


@pytest.mark.parametrize("field, value, message", [
    ("budget", 0, "budget must be >= 1, got 0"),
    ("n_parallel", 0, "n_parallel must be >= 1, got 0"),
    ("updates_per_block", 0, "updates_per_block must be >= 1, got 0"),
    ("eval_episodes", -1, "eval_episodes must be >= 1, got -1"),
    ("updates_per_block", 2.5, "updates_per_block must be an integer, got 2.5"),
    ("n_parallel", True, "n_parallel must be an integer, got True"),
    ("medium_fraction", float("nan"), "medium_fraction must be finite and in (0, 1], got nan"),
    ("medium_fraction", 0.0, "medium_fraction must be finite and in (0, 1], got 0.0"),
    ("medium_fraction", 1.5, "medium_fraction must be finite and in (0, 1], got 1.5"),
    ("medium_fraction", float("inf"), "medium_fraction must be finite and in (0, 1], got inf"),
    # one block: its only checkpoint is the expert, so none could be medium
    ("budget", 100, "budget (100) must exceed updates_per_block (100)"),
])
def test_online_config_rejects_bad_values(field, value, message):
    # updates_per_block=0 used to divide by zero, n_parallel=0 to fail in
    # numpy and medium_fraction=nan to raise MediumThresholdError
    with pytest.raises(ValueError, match=re.escape(message)):
        OnlineTrainConfig(**{field: value})
    OnlineTrainConfig(medium_fraction=1.0, n_parallel=np.int64(2))


# Two evaluated checkpoints: one after the first 50 updates, then the expert.
TWO_CHECKPOINTS = OnlineTrainConfig(budget=100, n_parallel=2, updates_per_block=50,
                                    eval_episodes=2, medium_fraction=0.5)


def scripted_returns(monkeypatch, returns):
    """Make each checkpoint evaluation return the next of ``returns``."""
    script = iter(returns)
    monkeypatch.setattr(datagen, "evaluate_actor",
                        lambda env, actor, episodes, rng: (next(script), 0.0))


def test_medium_threshold_error_names_a_collapsed_expert(env, monkeypatch):
    # an earlier checkpoint reached 4.53, but the expert collapsed to -0.1
    scripted_returns(monkeypatch, [4.53, -0.1])
    with pytest.raises(MediumThresholdError,
                       match=r"expert \(final checkpoint\) has a non-positive evaluation return "
                             r"-0\.1, .*best evaluation return before the expert was 4\.53"):
        train_online(env, 100, RngStream(3, "online"), TWO_CHECKPOINTS)


def test_medium_threshold_error_names_an_unreached_threshold(env, monkeypatch):
    scripted_returns(monkeypatch, [0.1, 4.0])
    with pytest.raises(MediumThresholdError,
                       match=r"budget too small to reach the medium threshold 2: .* was 0\.1"):
        train_online(env, 100, RngStream(3, "online"), TWO_CHECKPOINTS)
    scripted_returns(monkeypatch, [2.0, 4.0])  # the threshold itself counts
    online = train_online(env, 100, RngStream(3, "online"), TWO_CHECKPOINTS)
    assert online.medium.eval_return == 2.0
