"""Shared domain types, seeded randomness, and dataset integrity checks.

A ``Dataset`` is one set of read-only numpy columns (states, actions, rewards,
next_states, dones, trajectory starts; see its docstring for shapes and
dtypes) from rollout to learner. On disk it is plain text: one JSON header
line followed by one line per transition, so files can be diffed, inspected,
and reloaded bit-exactly. ``load_dataset`` rejects a malformed or invalid
file with a ``ValueError`` naming the path and line.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FORMAT_VERSION = 1
GENERATOR_VERSION = "0.1.0"

class EnvId(str, Enum):
    TOY_MMDP = "toy_mmdp"
    EQUAL_LINE = "equal_line"


class Tier(str, Enum):
    RANDOM = "random"
    MEDIUM = "medium"
    MEDIUM_REPLAY = "medium_replay"
    EXPERT = "expert"
    MIXED = "mixed"


@dataclass(frozen=True)
class EnvSpec:
    """Complete static description of a finite multi-agent MDP."""

    env_id: EnvId
    n_agents: int
    n_actions: int
    gamma: float
    r_max: float
    episode_limit: int
    state_kind: str  # "discrete" | "vector"
    state_codec: str  # human-readable description of the encoding

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.n_actions < 2:
            raise ValueError(f"n_actions must be >= 2, got {self.n_actions}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.r_max <= 0:
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if self.episode_limit < 1:
            raise ValueError(f"episode_limit must be >= 1, got {self.episode_limit}")

    def matches(self, other: "EnvSpec") -> bool:
        """True when two specs describe the same environment instance."""
        return (
            self.env_id == other.env_id
            and self.n_agents == other.n_agents
            and self.n_actions == other.n_actions
            and self.gamma == other.gamma
            and self.episode_limit == other.episode_limit
        )


@dataclass(frozen=True)
class DatasetHeader:
    spec: EnvSpec
    tier: Tier
    seed: int
    n_trajectories: int
    generator_version: str = GENERATOR_VERSION
    format_version: int = FORMAT_VERSION


@dataclass(frozen=True, eq=False)
class Dataset:
    """Persisted offline experience with provenance header, stored by column.

    Row k of every per-transition column is transition k:

    - ``states``, ``next_states``: (N,) int64 state ids for discrete specs,
      (N, n_agents) float64 positions for vector specs
    - ``actions``: (N, n_agents) int64 joint actions
    - ``rewards``: (N,) float64
    - ``dones``: (N,) bool

    Trajectories are contiguous runs of rows: ``starts`` is the (K,) int64
    array of their first rows, and trajectory k ends where k + 1 starts (the
    last one at row N).

    The constructor copies each column to its dtype and makes the copy
    read-only, so a dataset never aliases, or changes with, the arrays it was
    built from. It checks neither shapes nor contents; ``validate_dataset``
    reports every violation. ``==`` is identity (``eq=False``): compare
    columns by dtype, shape and bytes.
    """

    header: DatasetHeader
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        state_dtype = np.float64 if self.header.spec.state_kind == "vector" else np.int64
        dtypes = {"states": state_dtype, "actions": np.int64, "rewards": np.float64,
                  "next_states": state_dtype, "dones": np.bool_, "starts": np.int64}
        for name, dtype in dtypes.items():
            column = np.array(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.rewards)

    def trajectory_returns(self) -> np.ndarray:
        bounds = np.append(self.starts, len(self)).tolist()
        return np.array([self.rewards[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(self.violations)


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream.

    Identical (seed, stream_id) pairs always yield generators that produce
    identical outputs; child streams are derived by label so independent
    components never share draws.
    """

    seed: int
    stream_id: str = "root"

    def generator(self) -> np.random.Generator:
        digest = hashlib.blake2b(self.stream_id.encode("utf-8"), digest_size=8).digest()
        key = int.from_bytes(digest, "little")
        return np.random.default_rng(np.random.SeedSequence([self.seed & (2**64 - 1), key]))

    def child(self, label: str) -> "RngStream":
        return RngStream(self.seed, f"{self.stream_id}/{label}")


@dataclass
class FactoredPolicy:
    """Per-agent categorical action distributions conditioned on state.

    The joint policy is the product over agents. States missing from the
    table fall back to the uniform distribution.
    """

    n_agents: int
    n_actions: int
    table: dict = field(default_factory=dict)

    def probs(self, state) -> np.ndarray:
        row = self.table.get(state)
        if row is None:
            return np.full((self.n_agents, self.n_actions), 1.0 / self.n_actions)
        return row

    def dense(self, n_states: int) -> np.ndarray:
        """Materialize (n_agents, n_states, n_actions) for integer states."""
        out = np.full((self.n_agents, n_states, self.n_actions), 1.0 / self.n_actions)
        for s, row in self.table.items():
            out[:, s, :] = row
        return out

    def validate(self, atol: float = 1e-9) -> list:
        problems = []
        for s, row in self.table.items():
            if row.shape != (self.n_agents, self.n_actions):
                problems.append(f"state {s}: shape {row.shape}")
                continue
            if np.any(row < -atol):
                problems.append(f"state {s}: negative probability")
            if np.any(np.abs(row.sum(axis=1) - 1.0) > atol):
                problems.append(f"state {s}: rows do not sum to 1")
        return problems


def uniform_policy(n_agents: int, n_actions: int) -> FactoredPolicy:
    return FactoredPolicy(n_agents, n_actions, {})


def greedy_policy_from_actions(actions: np.ndarray, n_actions: int) -> FactoredPolicy:
    """One-hot FactoredPolicy over states 0..S-1 from their (S, n) actions."""
    actions = np.asarray(actions, dtype=np.int64)
    n_states, n_agents = actions.shape
    onehot = np.zeros((n_states, n_agents, n_actions))
    onehot[np.arange(n_states)[:, None], np.arange(n_agents), actions] = 1.0
    return FactoredPolicy(n_agents, n_actions, dict(enumerate(onehot)))


def validate_dataset(dataset: Dataset, spec: EnvSpec) -> ValidationReport:
    """Report every Dataset invariant violation and spec mismatch."""
    violations = []
    header = dataset.header
    if header.spec.env_id != spec.env_id:
        violations.append(f"header env_id {header.spec.env_id} != spec {spec.env_id}")
    if header.spec.n_agents != spec.n_agents:
        violations.append(f"header n_agents {header.spec.n_agents} != spec {spec.n_agents}")
    if header.spec.n_actions != spec.n_actions:
        violations.append(f"header n_actions {header.spec.n_actions} != spec {spec.n_actions}")

    n = len(dataset)
    state_shape = (n, spec.n_agents) if spec.state_kind == "vector" else (n,)
    shapes = {"states": state_shape, "actions": (n, spec.n_agents), "rewards": (n,),
              "next_states": state_shape, "dones": (n,), "starts": (len(dataset.starts),)}
    bad_shapes = [f"{name} shape {getattr(dataset, name).shape} != {shape}"
                  for name, shape in shapes.items() if getattr(dataset, name).shape != shape]
    if bad_shapes:  # the checks below index the columns by these shapes
        return ValidationReport(tuple(violations + bad_shapes))

    for idx, agent in np.argwhere((dataset.actions < 0) | (dataset.actions >= spec.n_actions)):
        violations.append(f"transition {idx}: agent {agent} action "
                          f"{dataset.actions[idx, agent]} outside [0, {spec.n_actions})")
    magnitude = np.abs(dataset.rewards)
    for idx in np.flatnonzero(~(magnitude <= spec.r_max + 1e-9)):
        violations.append(f"transition {idx}: |reward| {magnitude[idx]:.6g} "
                          f"exceeds r_max {spec.r_max:.6g}")

    starts = dataset.starts
    if n and (not len(starts) or starts[0] != 0):
        violations.append("trajectory boundaries do not start at 0")
    for k in np.flatnonzero(np.diff(starts) <= 0) + 1:
        violations.append(f"trajectory boundaries overlap at index {k}")
    if len(starts) and starts[-1] >= n and n > 0:
        violations.append("trajectory boundary beyond last transition")
    if header.n_trajectories != len(starts):
        violations.append(
            f"header n_trajectories {header.n_trajectories} != {len(starts)} partitions"
        )
    return ValidationReport(tuple(violations))


def empirical_behavior(dataset: Dataset, smoothing: float = 0.0) -> FactoredPolicy:
    """Counting estimate of the per-agent behavior policy.

    beta_i(a|s) = (count(s, a_i=a) + smoothing) / (count(s) + smoothing * |A|);
    states absent from the dataset map to the uniform distribution. Table
    keys are state ids, or tuples of floats for vector states.
    """
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")
    if not len(dataset):
        raise ValueError("empty dataset")
    spec = dataset.header.spec
    n, n_act = spec.n_agents, spec.n_actions
    keys, state_index = np.unique(dataset.states, axis=0, return_inverse=True)
    cells = (state_index.reshape(-1, 1) * n + np.arange(n)) * n_act + dataset.actions
    counts = np.bincount(cells.ravel(), minlength=len(keys) * n * n_act)
    counts = counts.reshape(len(keys), n, n_act).astype(np.float64)
    probs = (counts + smoothing) / (counts.sum(axis=2, keepdims=True) + smoothing * n_act)
    keys = map(tuple, keys.tolist()) if keys.ndim == 2 else keys.tolist()
    return FactoredPolicy(n, n_act, dict(zip(keys, probs)))


# ---------------------------------------------------------------------------
# Dataset file format: JSON header line + one CSV-ish record per transition,
#   state,actions,reward,next_state,done,trajectory
# with vector states as ";"-joined floats and actions space-joined. Floats
# are written with repr() so reloads are bit-exact.
# ---------------------------------------------------------------------------

_N_FIELDS = 6


def _state_text(states: np.ndarray) -> list:
    if states.ndim == 1:
        return list(map(str, states.tolist()))
    return [";".join(map(repr, row)) for row in states.tolist()]


def save_dataset(dataset: Dataset, path) -> None:
    header = dataset.header
    spec = header.spec
    meta = {
        "format_version": header.format_version,
        "generator_version": header.generator_version,
        "env_id": spec.env_id.value,
        "n_agents": spec.n_agents,
        "n_actions": spec.n_actions,
        "tier": header.tier.value,
        "seed": header.seed,
        "n_trajectories": header.n_trajectories,
        "gamma": spec.gamma,
        "r_max": spec.r_max,
        "episode_limit": spec.episode_limit,
        "state_kind": spec.state_kind,
        "state_codec": spec.state_codec,
    }
    lengths = np.diff(np.append(dataset.starts, len(dataset)))
    traj_ids = np.repeat(np.arange(len(lengths)), lengths)
    records = zip(
        _state_text(dataset.states),
        [" ".join(map(str, row)) for row in dataset.actions.tolist()],
        map(repr, dataset.rewards.tolist()),
        _state_text(dataset.next_states),
        np.where(dataset.dones, "1", "0").tolist(),
        map(str, traj_ids.tolist()),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        fh.writelines(",".join(fields) + "\n" for fields in records)


def _parse(texts, dtype, path, what: str, per_line: int = 1) -> np.ndarray:
    """Parse numbers, ``per_line`` to a record; the error names the first bad line."""
    try:
        return np.array(texts, dtype=dtype)
    except ValueError:
        for k, text in enumerate(texts):
            try:
                np.array(text, dtype=dtype)
            except ValueError:
                kind = "an integer" if dtype is np.int64 else "a number"
                raise ValueError(f"{path}: line {k // per_line + 2}: {what} entry {text!r} "
                                 f"is not {kind}") from None
        raise


def _parse_rows(column, sep: str, width: int, dtype, path, what: str) -> np.ndarray:
    """Parse ``sep``-joined rows of ``width`` numbers into an (N, width) array."""
    for k, text in enumerate(column):
        if text.count(sep) != width - 1:
            raise ValueError(f"{path}: line {k + 2}: {what} {text!r} does not have "
                             f"{width} {sep!r}-separated entries")
    parts = sep.join(column).split(sep) if column else []
    return _parse(parts, dtype, path, what, width).reshape(len(column), width)


def load_dataset(path) -> Dataset:
    """Read a dataset file; a malformed or invalid file raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        lines = fh.read().splitlines()
    try:
        meta = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line 1: header is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: line 1: header is not a JSON object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: line 1: unknown format_version "
                         f"{meta.get('format_version')!r} (expected {FORMAT_VERSION})")
    try:
        spec = EnvSpec(
            env_id=EnvId(meta["env_id"]),
            n_agents=meta["n_agents"],
            n_actions=meta["n_actions"],
            gamma=meta["gamma"],
            r_max=meta["r_max"],
            episode_limit=meta["episode_limit"],
            state_kind=meta["state_kind"],
            state_codec=meta["state_codec"],
        )
        header = DatasetHeader(
            spec=spec,
            tier=Tier(meta["tier"]),
            seed=meta["seed"],
            n_trajectories=meta["n_trajectories"],
            generator_version=meta["generator_version"],
            format_version=meta["format_version"],
        )
    except KeyError as exc:
        raise ValueError(f"{path}: line 1: header has no {exc.args[0]!r} key") from None
    except ValueError as exc:  # unknown env id or tier, or a spec field out of range
        raise ValueError(f"{path}: line 1: {exc}") from None
    records = [line.split(",") for line in lines]
    for k, fields in enumerate(records):
        if len(fields) != _N_FIELDS:
            raise ValueError(f"{path}: line {k + 2}: expected {_N_FIELDS} comma-separated "
                             f"fields, got {len(fields)}")
    columns = list(zip(*records)) or [()] * _N_FIELDS
    state_col, action_col, reward_col, next_col, done_col, traj_col = columns

    def states_of(column, what):
        if spec.state_kind == "vector":
            return _parse_rows(column, ";", spec.n_agents, np.float64, path, what)
        return _parse(column, np.int64, path, what)

    dones = _parse(done_col, np.int64, path, "done flag")
    not_flag = np.flatnonzero((dones != 0) & (dones != 1))
    if len(not_flag):
        k = int(not_flag[0])
        raise ValueError(f"{path}: line {k + 2}: done flag {done_col[k]!r} is not 0 or 1")
    traj = _parse(traj_col, np.int64, path, "trajectory id")
    starts = np.flatnonzero(np.diff(traj, prepend=traj[:1] - 1))
    _, first_runs = np.unique(traj[starts], return_index=True)
    if len(first_runs) != len(starts):
        k = int(starts[np.setdiff1d(np.arange(len(starts)), first_runs)[0]])
        raise ValueError(f"{path}: line {k + 2}: trajectory id {traj[k]} reappears "
                         "after its run ended")
    if header.n_trajectories != len(starts):
        raise ValueError(f"{path}: line 1: n_trajectories {header.n_trajectories} != "
                         f"{len(starts)} trajectories in the records")
    dataset = Dataset(
        header,
        states=states_of(state_col, "state"),
        actions=_parse_rows(action_col, " ", spec.n_agents, np.int64, path, "joint action"),
        rewards=_parse(reward_col, np.float64, path, "reward"),
        next_states=states_of(next_col, "next state"),
        dones=dones.astype(bool),
        starts=starts,
    )
    report = validate_dataset(dataset, spec)
    if not report.ok:
        raise ValueError(f"{path}: invalid dataset:\n{report}")
    return dataset
