"""Dataset tiers produced by an online TD trainer.

The trainer is the plain online value-decomposition learner (epsilon-greedy
acting, target network, additive mixing). Expert is the final
checkpoint; Medium is the earliest checkpoint reaching half the Expert's
evaluation return; Medium-Replay is the chronological buffer up to that
point; Mixed is an equal mixture of Medium and Expert trajectories.

Episodes are collected by a batch of lockstep workers; the buffer interleaves
whole trajectories in deterministic worker order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Dataset, DatasetHeader, EnvSpec, RngStream, Tier, check_types,
                   validate_dataset)
from .learner import (Batch, FactoredQ, encode_states, encode_transitions, make_greedy_actor,
                      td_targets, td_term)
from .neural import Adam
from .rollouts import RandomActor, evaluate_actor, rollout_episodes


class MediumThresholdError(RuntimeError):
    """No checkpoint before the expert reaches the medium threshold, or the
    expert's own return is <= 0, so that no checkpoint counts as medium."""

    def __init__(self, best_return: float, threshold: float, expert_return: float):
        self.best_return = best_return
        self.threshold = threshold
        if expert_return <= 0:
            cause = (f"the expert (final checkpoint) has a non-positive evaluation return "
                     f"{expert_return:.4g}, so no checkpoint can be medium")
        else:
            cause = (f"training budget too small to reach the medium threshold "
                     f"{threshold:.4g}")
        super().__init__(f"{cause}: best evaluation return before the expert was "
                         f"{best_return:.4g}")


ONLINE_BATCH_SIZE = 64
ONLINE_LR = 1e-3
EPSILON_START, EPSILON_END = 1.0, 0.05
EPSILON_ANNEAL_FRAC = 0.5  # share of the budget over which epsilon falls linearly
ONLINE_TARGET_INTERVAL = 200  # updates between target-network copies
N_CHECKPOINTS = 40  # evaluated checkpoints over the budget, at most


@dataclass
class OnlineTrainConfig:
    """Online training settings; bad values raise a ValueError naming the field."""

    budget: int = 60_000  # gradient updates
    n_parallel: int = 8  # lockstep episode workers
    updates_per_block: int = 100
    eval_episodes: int = 32
    medium_fraction: float = 0.5

    def __post_init__(self):
        counts = ("budget", "n_parallel", "updates_per_block", "eval_episodes")
        check_types(self, counts, ())
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.budget <= self.updates_per_block:
            # one block: its only checkpoint is the expert, so none can be medium
            raise ValueError(f"budget ({self.budget}) must exceed updates_per_block "
                             f"({self.updates_per_block}) so that a checkpoint comes before "
                             f"the expert")
        if not (np.isfinite(self.medium_fraction) and 0.0 < self.medium_fraction <= 1.0):
            raise ValueError(f"medium_fraction must be finite and in (0, 1], "
                             f"got {self.medium_fraction}")


@dataclass
class BehaviorCheckpoint:
    q: FactoredQ
    training_steps: int
    eval_return: float
    buffer_len: int


@dataclass
class OnlineResult:
    spec: EnvSpec
    checkpoints: list
    expert: BehaviorCheckpoint
    medium: BehaviorCheckpoint
    states: np.ndarray  # (N, ...) raw states, trajectory-contiguous
    actions: np.ndarray  # (N, n_agents)
    rewards: np.ndarray  # (N,)
    next_states: np.ndarray
    episode_starts: np.ndarray  # (n_episodes,) indices into the buffer
    horizon: int
    seed: int


def train_online(env, budget: int, rng: RngStream,
                 config: Optional[OnlineTrainConfig] = None) -> OnlineResult:
    """Epsilon-greedy TD training at the spec's gamma; returns checkpoints
    plus the whole buffer.

    ``budget`` is the number of gradient updates; a ``config`` must carry the
    same budget, and ``config=None`` means ``OnlineTrainConfig(budget=budget)``.
    """
    if config is None:
        config = OnlineTrainConfig(budget=budget)
    elif config.budget != budget:
        raise ValueError(f"train_online budget {budget} != config.budget {config.budget}")
    spec = env.spec()
    mode = "tabular" if spec.state_kind == "discrete" else "neural"
    horizon = env.episode_limit
    m = config.n_parallel

    blank_input = encode_states(env, mode, np.zeros((1, spec.n_agents)))
    q = FactoredQ(
        spec.n_agents, spec.n_actions, mode,
        n_states=env.n_states if mode == "tabular" else None,
        feature_dim=blank_input.shape[2] if mode == "neural" else None,
        rng=rng.child("init").generator(),
    )
    target = q.copy()
    opt = Adam(q.parameters(), lr=ONLINE_LR)
    actor = make_greedy_actor(q, env)

    n_blocks = max(1, int(np.ceil(budget / config.updates_per_block)))
    capacity = n_blocks * m * horizon
    states = np.empty((capacity, spec.n_agents))
    next_states = np.empty_like(states)
    actions = np.empty((capacity, spec.n_agents), dtype=np.int64)
    rewards = np.empty(capacity)
    # encoded rows of states and next_states: features are computed row by
    # row, so encoding each row once as it arrives gives the update's inputs
    inputs = np.empty((capacity, *blank_input.shape[1:]), dtype=blank_input.dtype)
    next_inputs = np.empty_like(inputs)
    filled = 0
    episode_starts = []

    roll_rng = rng.child("rollouts").generator()
    batch_rng = rng.child("batches").generator()
    checkpoints = []
    checkpoint_every = max(1, n_blocks // N_CHECKPOINTS)
    anneal_updates = max(1, int(budget * EPSILON_ANNEAL_FRAC))
    updates = 0

    def batch(idx) -> Batch:
        return Batch(inputs=inputs[idx], actions=actions[idx], rewards=rewards[idx],
                     next_inputs=next_inputs[idx])

    def batch_targets(rows) -> np.ndarray:
        """The (k, B) TD targets of the batches of buffer rows ``rows`` under
        ``target``. Tabular values are a gather, so one pass over all k * B
        rows gives each row the bits of its own batch's pass; a network
        forward's bits depend on its row count, so neural targets are taken
        batch by batch."""
        if mode == "tabular":
            return td_targets(target, batch(rows.ravel()), spec.gamma).reshape(rows.shape)
        return np.stack([td_targets(target, batch(idx), spec.gamma) for idx in rows])

    def take_checkpoint():
        eval_rng = rng.child(f"eval/{len(checkpoints)}").generator()
        mean, _ = evaluate_actor(env, make_greedy_actor(q, env),
                                 config.eval_episodes, eval_rng)
        checkpoints.append(BehaviorCheckpoint(
            q=q.copy(), training_steps=updates, eval_return=mean, buffer_len=filled,
        ))

    for block in range(n_blocks):
        frac = min(1.0, updates / anneal_updates)
        eps = EPSILON_START + frac * (EPSILON_END - EPSILON_START)
        batch_roll = rollout_episodes(env, actor, m, roll_rng, epsilon=eps)
        new_rows = slice(filled, filled + m * horizon)
        for w in range(m):  # deterministic worker-order merge, whole trajectories
            episode_starts.append(filled)
            sl = slice(filled, filled + horizon)
            states[sl] = batch_roll.states[:, w]
            next_states[sl] = batch_roll.next_states[:, w]
            actions[sl] = batch_roll.actions[:, w]
            rewards[sl] = batch_roll.rewards[:, w]
            filled += horizon
        inputs[new_rows], next_inputs[new_rows] = encode_transitions(
            lambda raw: encode_states(env, mode, raw), states[new_rows], next_states[new_rows])
        # The block's TD updates. One draw gives every batch's rows (the bit
        # generator buffers its 32-bit halves, so the stream is the one
        # per-update draws give). The updates up to the next target copy
        # share one target network, so their TD targets are computed first
        # (batch_targets). Each update is then cfcql_loss at alpha = 0 less
        # its target pass: the TD term with its per-row gradient, which
        # q.backward scatters into the B * n chosen table entries (or seeds a
        # network's backward with), and an Adam step.
        n_updates = min(config.updates_per_block, budget - updates)
        block_rows = batch_rng.integers(0, filled, size=(n_updates, ONLINE_BATCH_SIZE))
        while len(block_rows):
            shared = ONLINE_TARGET_INTERVAL - updates % ONLINE_TARGET_INTERVAL
            rows, block_rows = block_rows[:shared], block_rows[shared:]
            for idx, y in zip(rows, batch_targets(rows)):
                opt.zero_grad()
                _, grad = td_term(q, inputs[idx], actions[idx], y)
                q.backward(grad)
                opt.step()
                updates += 1
            if updates % ONLINE_TARGET_INTERVAL == 0:
                target = q.copy()
        if (block + 1) % checkpoint_every == 0 and updates < budget:
            take_checkpoint()

    take_checkpoint()  # final checkpoint = expert
    expert = checkpoints[-1]
    threshold = config.medium_fraction * expert.eval_return
    medium = None
    for ck in checkpoints[:-1]:
        if expert.eval_return > 0 and ck.eval_return >= threshold:
            medium = ck
            break
    if medium is None:
        best = max((ck.eval_return for ck in checkpoints[:-1]), default=float("-inf"))
        raise MediumThresholdError(best, threshold, expert.eval_return)

    return OnlineResult(
        spec=spec, checkpoints=checkpoints, expert=expert, medium=medium,
        states=states[:filled], actions=actions[:filled], rewards=rewards[:filled],
        next_states=next_states[:filled],
        episode_starts=np.asarray(episode_starts, dtype=np.int64),
        horizon=horizon, seed=rng.seed,
    )


# ---------------------------------------------------------------------------
# Dataset assembly.
# ---------------------------------------------------------------------------


def _dataset(spec, tier, seed, columns, starts) -> Dataset:
    """Validated Dataset from its states, actions, rewards, next_states, dones."""
    header = DatasetHeader(spec=spec, tier=tier, seed=seed, n_trajectories=len(starts))
    d = Dataset(header, *columns, starts=starts)
    report = validate_dataset(d, spec)
    if not report.ok:
        raise AssertionError(f"generated dataset failed validation:\n{report}")
    return d


def _dataset_columns(env, states, actions, rewards, next_states, dones) -> list:
    """Dataset columns from raw rollout rows: discrete states become ids."""
    if env.spec().state_kind == "discrete":
        states, next_states = env.encode_batch(states), env.encode_batch(next_states)
    return [states, actions, rewards, next_states, dones]


def _collect(spec, tier, seed, chunks, lengths) -> Dataset:
    """One Dataset from per-chunk columns and trajectory lengths."""
    columns = [np.concatenate(parts) for parts in zip(*chunks)]
    return _dataset(spec, tier, seed, columns, _starts(np.concatenate(lengths)))


def _episode_major(column: np.ndarray) -> np.ndarray:
    """(T, m, ...) rollout steps to (m * T, ...) rows, episode by episode."""
    return np.swapaxes(column, 0, 1).reshape(-1, *column.shape[2:])


def _run_rows(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row indices of the runs [first_k, first_k + lengths_k), concatenated."""
    return np.arange(lengths.sum()) + np.repeat(first - _starts(lengths), lengths)


def _starts(lengths: np.ndarray) -> np.ndarray:
    """First row of each of a sequence of runs of the given lengths."""
    return np.cumsum(lengths) - lengths


def sample_dataset(env, checkpoint, n_traj: int, rng: RngStream,
                   tier: Tier = Tier.EXPERT) -> Dataset:
    """Roll out ``n_traj`` full episodes of a policy, one trajectory each.

    ``checkpoint`` is a BehaviorCheckpoint, whose greedy policy acts, or any
    actor. The last step of each episode is flagged done.
    """
    if n_traj < 1:
        raise ValueError("empty dataset requested (need n_traj >= 1)")
    spec = env.spec()
    actor = (make_greedy_actor(checkpoint.q, env)
             if isinstance(checkpoint, BehaviorCheckpoint) else checkpoint)
    gen = rng.child("sample").generator()
    horizon = env.episode_limit

    chunks, lengths = [], []  # columns and trajectory lengths per rollout chunk
    chunk = 500
    remaining = n_traj
    while remaining > 0:
        m = min(chunk, remaining)
        roll = rollout_episodes(env, actor, m, gen)
        dones = np.zeros((horizon, m), dtype=bool)
        dones[-1] = True
        chunks.append(_dataset_columns(env, *map(_episode_major, (
            roll.states, roll.actions, roll.rewards, roll.next_states, dones))))
        lengths.append(np.full(m, horizon))
        remaining -= m
    return _collect(spec, tier, rng.seed, chunks, lengths)


def make_replay_dataset(env, result: OnlineResult) -> Dataset:
    """Chronological buffer up to the medium checkpoint, tier medium_replay."""
    cutoff = result.medium.buffer_len
    if cutoff == 0:
        raise ValueError("medium checkpoint precedes any collected data")
    dones = np.zeros(cutoff, dtype=bool)
    dones[result.horizon - 1 :: result.horizon] = True
    columns = _dataset_columns(env, result.states[:cutoff], result.actions[:cutoff],
                               result.rewards[:cutoff], result.next_states[:cutoff], dones)
    return _dataset(result.spec, Tier.MEDIUM_REPLAY, result.seed, columns,
                    result.episode_starts[result.episode_starts < cutoff])


def random_dataset(env, n_traj: int, rng: RngStream) -> Dataset:
    spec = env.spec()
    return sample_dataset(env, RandomActor(spec.n_agents, spec.n_actions),
                          n_traj, rng, tier=Tier.RANDOM)


def mix(a: Dataset, b: Dataset, rng: RngStream) -> Dataset:
    """Equal mixture: the larger side is downsampled uniformly at random."""
    if not a.header.spec.matches(b.header.spec):
        raise ValueError("datasets come from different environment specs")
    gen = rng.child("mix").generator()
    k = min(a.header.n_trajectories, b.header.n_trajectories)
    chunks, lengths = [], []
    for d in (a, b):
        pick = np.sort(gen.choice(len(d.starts), size=k, replace=False))
        picked = np.diff(np.append(d.starts, len(d)))[pick]
        rows = _run_rows(d.starts[pick], picked)
        chunks.append([d.states[rows], d.actions[rows], d.rewards[rows],
                       d.next_states[rows], d.dones[rows]])
        lengths.append(picked)
    return _collect(a.header.spec, Tier.MIXED, rng.seed, chunks, lengths)
