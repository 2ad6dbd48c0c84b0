"""Dataset tiers produced by an online TD trainer.

The trainer is the plain online value-decomposition learner (epsilon-greedy
acting, target network, additive mixing by default). Expert is the final
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

from . import autodiff as ad
from .core import Dataset, DatasetHeader, EnvSpec, RngStream, Tier, validate_dataset
from .learner import Batch, FactoredQ, cfcql_loss, make_greedy_actor
from .neural import Adam
from .rollouts import QValuesActor, RandomActor, evaluate_actor, rollout_episodes


class MediumThresholdError(RuntimeError):
    def __init__(self, best_return: float, threshold: float):
        self.best_return = best_return
        self.threshold = threshold
        super().__init__(
            f"training budget too small to reach the medium threshold "
            f"{threshold:.4g}: best evaluation return achieved was {best_return:.4g}"
        )


@dataclass
class OnlineTrainConfig:
    budget: int = 60_000  # gradient updates
    n_parallel: int = 8  # lockstep episode workers
    updates_per_block: int = 100
    batch_size: int = 64
    lr: float = 1e-3
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_anneal_frac: float = 0.5
    target_interval: int = 200
    hidden: tuple = (64, 64)
    mixer: str = "additive"
    n_checkpoints: int = 40
    eval_episodes: int = 32
    medium_fraction: float = 0.5


@dataclass
class BehaviorCheckpoint:
    q: FactoredQ
    level: Optional[Tier]
    training_steps: int
    eval_return: float
    buffer_len: int
    episode_count: int


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


def _encode_inputs(env, mode: str, raw: np.ndarray):
    if mode == "tabular":
        return env.encode_batch(raw)
    return env.per_agent_features(raw)


def train_online(env, budget: int, rng: RngStream,
                 config: Optional[OnlineTrainConfig] = None) -> OnlineResult:
    """Epsilon-greedy TD training at the spec's gamma; returns checkpoints
    plus the whole buffer."""
    config = config or OnlineTrainConfig()
    spec = env.spec()
    mode = "tabular" if spec.state_kind == "discrete" else "neural"
    horizon = env.episode_limit
    m = config.n_parallel

    q = FactoredQ(
        spec.n_agents, spec.n_actions, mode,
        n_states=env.n_states if mode == "tabular" else None,
        feature_dim=env.per_agent_features(np.zeros((1, spec.n_agents))).shape[2]
        if mode == "neural" else None,
        hidden=config.hidden, mixer=config.mixer,
        rng=rng.child("init").generator(),
    )
    target = q.copy()
    opt = Adam(q.parameters(), lr=config.lr)
    actor = make_greedy_actor(q, env, mode)

    n_blocks = max(1, int(np.ceil(budget / config.updates_per_block)))
    capacity = n_blocks * m * horizon
    states = np.empty((capacity, spec.n_agents))
    next_states = np.empty_like(states)
    actions = np.empty((capacity, spec.n_agents), dtype=np.int64)
    rewards = np.empty(capacity)
    filled = 0
    episode_starts = []

    roll_rng = rng.child("rollouts").generator()
    batch_rng = rng.child("batches").generator()
    checkpoints = []
    checkpoint_every = max(1, n_blocks // config.n_checkpoints)
    anneal_updates = max(1, int(budget * config.epsilon_anneal_frac))
    updates = 0

    def take_checkpoint():
        eval_rng = rng.child(f"eval/{len(checkpoints)}").generator()
        mean, _ = evaluate_actor(env, make_greedy_actor(q, env, mode),
                                 config.eval_episodes, eval_rng)
        checkpoints.append(BehaviorCheckpoint(
            q=q.copy(), level=None, training_steps=updates, eval_return=mean,
            buffer_len=filled, episode_count=len(episode_starts),
        ))

    for block in range(n_blocks):
        frac = min(1.0, updates / anneal_updates)
        eps = config.epsilon_start + frac * (config.epsilon_end - config.epsilon_start)
        batch_roll = rollout_episodes(env, actor, m, roll_rng, epsilon=eps)
        for w in range(m):  # deterministic worker-order merge, whole trajectories
            episode_starts.append(filled)
            sl = slice(filled, filled + horizon)
            states[sl] = batch_roll.states[:, w]
            next_states[sl] = batch_roll.next_states[:, w]
            actions[sl] = batch_roll.actions[:, w]
            rewards[sl] = batch_roll.rewards[:, w]
            filled += horizon
        for _ in range(min(config.updates_per_block, budget - updates)):
            idx = batch_rng.integers(0, filled, size=config.batch_size)
            batch = Batch(
                inputs=_encode_inputs(env, mode, states[idx]),
                actions=actions[idx],
                rewards=rewards[idx],
                next_inputs=_encode_inputs(env, mode, next_states[idx]),
            )
            opt.zero_grad()
            loss, _ = cfcql_loss(batch, q, target, None, 0.0, spec.gamma)
            ad.backward(loss)
            opt.step()
            updates += 1
            if updates % config.target_interval == 0:
                target = q.copy()
        if (block + 1) % checkpoint_every == 0 and updates < budget:
            take_checkpoint()

    take_checkpoint()  # final checkpoint = expert
    expert = checkpoints[-1]
    expert.level = Tier.EXPERT
    threshold = config.medium_fraction * expert.eval_return
    medium = None
    for ck in checkpoints[:-1]:
        if expert.eval_return > 0 and ck.eval_return >= threshold:
            medium = ck
            break
    if medium is None:
        best = max((ck.eval_return for ck in checkpoints[:-1]), default=float("-inf"))
        raise MediumThresholdError(best, threshold)
    medium.level = Tier.MEDIUM

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


def checkpoint_actor(env, checkpoint: BehaviorCheckpoint) -> QValuesActor:
    mode = checkpoint.q.mode
    return make_greedy_actor(checkpoint.q, env, mode)


def sample_dataset(env, checkpoint, n_traj: int, rng: RngStream,
                   tier: Tier = Tier.EXPERT) -> Dataset:
    """Roll out ``n_traj`` full episodes of a policy, one trajectory each.

    ``checkpoint`` is a BehaviorCheckpoint, whose greedy policy acts, or any
    actor. The last step of each episode is flagged done.
    """
    if n_traj < 1:
        raise ValueError("empty dataset requested (need n_traj >= 1)")
    spec = env.spec()
    actor = (checkpoint_actor(env, checkpoint)
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
