"""The two in-repo environments plus their exact tabular models.

Both environments are fixed-horizon, fully observable, and expose a batched
pure-transition API so rollouts and dataset generation can be vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import EnvId, EnvSpec


# ---------------------------------------------------------------------------
# Joint-action indexing (agent 0 is the least significant digit).
# ---------------------------------------------------------------------------


def encode_joint(actions: np.ndarray, n_actions: int) -> np.ndarray:
    actions = np.asarray(actions, dtype=np.int64)
    weights = n_actions ** np.arange(actions.shape[-1], dtype=np.int64)
    return actions @ weights


def decode_joint(index, n_agents: int, n_actions: int) -> np.ndarray:
    idx = np.asarray(index, dtype=np.int64)
    out = np.empty(idx.shape + (n_agents,), dtype=np.int64)
    for i in range(n_agents):
        out[..., i] = idx % n_actions
        idx = idx // n_actions
    return out


def all_joint_actions(n_agents: int, n_actions: int) -> np.ndarray:
    """(n_actions**n_agents, n_agents) table of every joint action."""
    return decode_joint(np.arange(n_actions**n_agents), n_agents, n_actions)


@dataclass(frozen=True)
class MMDPModel:
    """Tabular transition/reward tensors for exact solving.

    The transition function is stored sparsely: row (s, a) places probability
    ``next_probs[s, a, k]`` on state ``next_states[s, a, k]``.
    """

    n_states: int
    n_agents: int
    n_actions: int
    gamma: float
    next_states: np.ndarray  # (S, A_joint, K) int
    next_probs: np.ndarray  # (S, A_joint, K) float
    rewards: np.ndarray  # (S, A_joint) float
    unseen_mask: Optional[np.ndarray] = None  # (S, A_joint) bool

    def __post_init__(self):
        # gamma = 1 would make I - gamma * P_pi singular and pointer doubling
        # (tabular._doubling) endless.
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma is {self.gamma!r}; it must lie in [0, 1)")
        cells = (self.n_states, self.n_joint_actions)
        shape = np.shape(self.next_states)
        if len(shape) != 3 or shape[:2] != cells or shape[2] < 1:
            raise ValueError(f"next_states has shape {shape}, expected {cells} + (K,) with K >= 1")
        if np.shape(self.next_probs) != shape:
            raise ValueError(f"next_probs has shape {np.shape(self.next_probs)}, expected "
                             f"next_states' shape {shape}")
        if np.shape(self.rewards) != cells:
            raise ValueError(f"rewards has shape {np.shape(self.rewards)}, expected {cells}")
        if self.next_states.min() < 0 or self.next_states.max() >= self.n_states:
            raise ValueError(f"next_states must lie in [0, {self.n_states})")

    @property
    def n_joint_actions(self) -> int:
        return self.n_actions**self.n_agents

    def transition_matrix(self, rows: np.ndarray, actions: np.ndarray,
                          probs: np.ndarray) -> np.ndarray:
        """(S, S) state-to-state matrix sum_a pi(a|s) * T(s'|s, a).

        The policy comes as its support: entry j puts probability
        ``probs[j]`` on joint action ``actions[j]`` at state ``rows[j]``
        (``tabular.joint_policy_support``). Only the K successors of each
        entry are summed, in entry order and then k: S * K terms for a
        deterministic policy instead of S * A_joint * K. The (s, a) pairs the
        policy never takes would each add +0.0, so when the entries are in
        row-major order the matrix equals the sum over every (s, a, k) bit
        for bit.
        """
        n = self.n_states
        cells = rows[:, None] * n + self.next_states[rows, actions]
        weights = probs[:, None] * self.next_probs[rows, actions]
        return np.bincount(cells.ravel(), weights=weights.ravel(),
                           minlength=n * n).reshape(n, n)

    def expected_next_values(self, values: np.ndarray) -> np.ndarray:
        """E_{s'~T(.|s,a)}[values(s')] for every (s, a), shape (S, A_joint).

        With one successor slot (K = 1) the product is the sum over a length-1
        axis, bit for bit, so that axis is dropped.
        """
        if self.next_states.shape[2] == 1:
            return self.next_probs[..., 0] * values[self.next_states[..., 0]]
        return (self.next_probs * values[self.next_states]).sum(axis=2)


class CapacityError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Toy multi-agent MDP: three cells per agent, everyone wants the middle cell.
# ---------------------------------------------------------------------------

TOY_N_CELLS = 3
TOY_TARGET_CELL = 1
_TOY_DELTA = np.array([0, 1, -1], dtype=np.int64)  # per action: stay, up, down
TOY_MAX_AGENTS_EXACT = 8


class ToyMMDP:
    """Deterministic chain of three cells per agent.

    Actions: 0 stay, 1 up (+1), 2 down (-1), saturating at the chain ends.
    The shared reward is the fraction of agents occupying the target cell
    after the move, so r_max = 1.
    """

    def __init__(self, n_agents: int, episode_limit: int = 20, gamma: float = 0.9):
        if n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        self.n_agents = n_agents
        self.n_actions = TOY_N_CELLS
        self.episode_limit = episode_limit
        self.gamma = gamma

    def spec(self) -> EnvSpec:
        return EnvSpec(
            env_id=EnvId.TOY_MMDP,
            n_agents=self.n_agents,
            n_actions=self.n_actions,
            gamma=self.gamma,
            r_max=1.0,
            episode_limit=self.episode_limit,
            state_kind="discrete",
            state_codec="base-3 integer over per-agent cells, agent 0 least significant",
        )

    # -- pure batched dynamics ------------------------------------------------

    def reset_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.integers(0, TOY_N_CELLS, size=(m, self.n_agents))

    def step_batch(self, cells: np.ndarray, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        nxt = np.clip(cells + _TOY_DELTA[actions], 0, TOY_N_CELLS - 1)
        rewards = (nxt == TOY_TARGET_CELL).mean(axis=-1)
        return nxt, rewards

    # -- state codec -----------------------------------------------------------

    def encode_batch(self, cells: np.ndarray) -> np.ndarray:
        w = TOY_N_CELLS ** np.arange(self.n_agents, dtype=np.int64)
        return np.asarray(cells, dtype=np.int64) @ w

    @property
    def n_states(self) -> int:
        return TOY_N_CELLS**self.n_agents

    def per_agent_features(self, cells: np.ndarray) -> np.ndarray:
        """(m, n_agents, 3n) one-hot features: own cell first, then the others."""
        cells = np.asarray(cells, dtype=np.int64)
        m, n = cells.shape
        onehot = np.zeros((m, n, TOY_N_CELLS))
        onehot[np.arange(m)[:, None], np.arange(n)[None, :], cells] = 1.0
        feats = np.empty((m, n, n * TOY_N_CELLS))
        for i in range(n):
            others = np.delete(np.arange(n), i)
            order = np.concatenate(([i], others))
            feats[:, i, :] = onehot[:, order, :].reshape(m, n * TOY_N_CELLS)
        return feats

    def exact_model(self) -> MMDPModel:
        """Enumerate the full (state, joint action) table; requires n <= 8.

        The table is built one agent at a time, in n passes over (S, |A|^n):
        a state id and a joint-action id decode alike (base 3, agent 0 least
        significant), so agent i's cell and action are both ``id // 3**i % 3``.
        Each pass adds agent i's next cell times 3**i to the next-state ids
        and counts its landings on the target cell; the reward is that count
        over n, the bits of ``step_batch``'s mean. No (S, |A|^n, n) array is
        made: the passes hold two int64 tables and one int8 count.
        """
        n = self.n_agents
        if n > TOY_MAX_AGENTS_EXACT:
            raise CapacityError(
                f"exact model needs a {TOY_N_CELLS**n} x {TOY_N_CELLS**n} table; "
                f"n_agents must be <= {TOY_MAX_AGENTS_EXACT}"
            )
        n_states = self.n_states
        n_joint = n_states  # |A|^n == 3^n == |S|
        ids = np.arange(n_states, dtype=np.int64)
        next_states = np.zeros((n_states, n_joint), dtype=np.int64)
        hits = np.zeros((n_states, n_joint), dtype=np.int8)
        for i in range(n):
            weight = TOY_N_CELLS**i
            digit = ids // weight % TOY_N_CELLS  # agent i's cell, and its action
            nxt = digit[:, None] + _TOY_DELTA[digit][None, :]
            np.clip(nxt, 0, TOY_N_CELLS - 1, out=nxt)
            hits += nxt == TOY_TARGET_CELL
            nxt *= weight
            next_states += nxt
        rewards = hits / n
        return MMDPModel(
            n_states=n_states,
            n_agents=n,
            n_actions=TOY_N_CELLS,
            gamma=self.gamma,
            next_states=next_states[:, :, None],
            next_probs=np.ones((n_states, n_joint, 1)),
            rewards=rewards,
        )


# ---------------------------------------------------------------------------
# Equal-spacing line environment.
# ---------------------------------------------------------------------------

LINE_DISPLACEMENTS = np.array(
    [0.0, -0.01, -0.05, -0.1, -0.5, -1.0, 0.01, 0.05, 0.1, 0.5, 1.0]
)
LINE_N_ACTIONS = len(LINE_DISPLACEMENTS)
LINE_INIT_HIGH = 2.0


def min_pairwise_distance(positions: np.ndarray) -> np.ndarray:
    """Minimum pairwise gap; equals the min adjacent gap after sorting."""
    srt = np.sort(positions, axis=-1)
    return np.diff(srt, axis=-1).min(axis=-1)


class EqualLine:
    """n agents on a segment [0, L] rewarded for growing the minimum gap.

    Actions index a fixed displacement table; the shared reward is
    10 * (n-1) * (min_dis - prev_min_dis) / L, which telescopes over an
    episode to the net change in minimum spacing.
    """

    def __init__(self, n_agents: int, episode_limit: int = 50, gamma: float = 0.9):
        if n_agents < 2:
            raise ValueError("EqualLine needs n_agents >= 2 (pairwise distances)")
        self.n_agents = n_agents
        self.n_actions = LINE_N_ACTIONS
        self.episode_limit = episode_limit
        self.gamma = gamma
        self.line_length = max(10.0, 2.0 * n_agents)
        # Two agents of the binding pair can each move 1.0 apart in one step,
        # so the min gap moves by at most 2 per step.
        self.r_max = 10.0 * (n_agents - 1) * 2.0 / self.line_length

    def spec(self) -> EnvSpec:
        return EnvSpec(
            env_id=EnvId.EQUAL_LINE,
            n_agents=self.n_agents,
            n_actions=self.n_actions,
            gamma=self.gamma,
            r_max=self.r_max,
            episode_limit=self.episode_limit,
            state_kind="vector",
            state_codec=f"agent positions in [0, {self.line_length:g}]",
        )

    # -- pure batched dynamics ------------------------------------------------

    def reset_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.uniform(0.0, LINE_INIT_HIGH, size=(m, self.n_agents))

    def step_batch(self, positions: np.ndarray, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        prev = min_pairwise_distance(positions)
        nxt = np.clip(positions + LINE_DISPLACEMENTS[actions], 0.0, self.line_length)
        cur = min_pairwise_distance(nxt)
        rewards = 10.0 * (self.n_agents - 1) * (cur - prev) / self.line_length
        return nxt, rewards

    def per_agent_features(self, positions: np.ndarray) -> np.ndarray:
        """(m, n_agents, n_agents + 3) features per agent, all scaled by 1/L:
        own position, gap to the nearest neighbor (or wall) on each side,
        current minimum gap, and the other agents' positions in sorted order.

        Each row is sorted once; every agent's features are read off its slot
        in the sorted row. An agent that shares its position with another has
        a left gap of 0, and its right gap runs to the next larger position.
        """
        pos = np.asarray(positions, dtype=np.float64)
        m, n = pos.shape
        order = np.argsort(pos, axis=1, kind="stable")
        srt = np.take_along_axis(pos, order, axis=1)
        gaps = np.diff(srt, axis=1)
        # the next strictly larger position after each slot, inf after the last
        above = np.full((m, n), np.inf)
        above[:, :-1] = np.where(gaps > 0, srt[:, 1:], np.inf)
        above = np.minimum.accumulate(above[:, ::-1], axis=1)[:, ::-1]
        feats = np.empty((m, n, n + 3))  # by slot in the sorted row
        feats[:, :, 0] = srt
        left = feats[:, :, 1]
        left[:, 0] = srt[:, 0]
        left[:, 1:] = gaps
        left[:, :-1][gaps == 0] = 0.0
        feats[:, :, 2] = np.where(np.isfinite(above), above - srt, self.line_length - srt)
        feats[:, :, 3] = gaps.min(axis=1)[:, None]
        others = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)  # row k: all but k
        feats[:, :, 4:] = srt[:, others]
        feats *= 1.0 / self.line_length
        out = np.empty_like(feats)
        out[np.arange(m)[:, None], order] = feats
        return out


def make_env(spec: EnvSpec):
    if spec.env_id == EnvId.TOY_MMDP:
        return ToyMMDP(spec.n_agents, spec.episode_limit, spec.gamma)
    if spec.env_id == EnvId.EQUAL_LINE:
        return EqualLine(spec.n_agents, spec.episode_limit, spec.gamma)
    raise ValueError(f"unknown env id {spec.env_id}")
