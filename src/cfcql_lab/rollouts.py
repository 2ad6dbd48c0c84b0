"""Vectorized policy rollouts shared by dataset generation and evaluation.

Both environments are fixed-horizon, so a batch of episodes steps in
lockstep; one rollout call covers evaluation, dataset sampling, and
reference-score estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class RandomActor:
    def __init__(self, n_agents: int, n_actions: int):
        self.n_agents = n_agents
        self.n_actions = n_actions

    def act(self, raw_states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.n_actions, size=(raw_states.shape[0], self.n_agents))


class QValuesActor:
    """Greedy decentralized actor over per-agent action values."""

    def __init__(self, values_fn: Callable[[np.ndarray], np.ndarray]):
        self.values_fn = values_fn  # raw states (m, ...) -> (m, n_agents, n_actions)

    def act(self, raw_states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.argmax(self.values_fn(raw_states), axis=2)


@dataclass
class RolloutBatch:
    states: np.ndarray  # (T, m, state...)
    actions: np.ndarray  # (T, m, n_agents)
    rewards: np.ndarray  # (T, m)
    next_states: np.ndarray  # (T, m, state...)

    def returns(self) -> np.ndarray:
        return self.rewards.sum(axis=0)


def rollout_episodes(env, actor, n_episodes: int, rng: np.random.Generator,
                     epsilon: float = 0.0) -> RolloutBatch:
    """Run n_episodes full episodes in lockstep and record every transition."""
    horizon = env.episode_limit
    raw = env.reset_batch(rng, n_episodes)
    states, actions, rewards, next_states = [], [], [], []
    for _ in range(horizon):
        acts = actor.act(raw, rng)
        if epsilon > 0.0:
            explore = rng.random((n_episodes, env.n_agents)) < epsilon
            randoms = rng.integers(0, env.n_actions, size=(n_episodes, env.n_agents))
            acts = np.where(explore, randoms, acts)
        nxt, rew = env.step_batch(raw, acts)
        states.append(raw)
        actions.append(acts)
        rewards.append(rew)
        next_states.append(nxt)
        raw = nxt
    return RolloutBatch(
        states=np.stack(states),
        actions=np.stack(actions),
        rewards=np.stack(rewards),
        next_states=np.stack(next_states),
    )


def evaluate_actor(env, actor, n_episodes: int, rng: np.random.Generator,
                   epsilon: float = 0.0):
    batch = rollout_episodes(env, actor, n_episodes, rng, epsilon)
    returns = batch.returns()
    return float(returns.mean()), float(returns.std())
