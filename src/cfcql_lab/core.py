"""Shared domain types, seeded randomness, and dataset integrity checks.

A ``Dataset`` is one set of read-only numpy columns (states, actions, rewards,
next_states, dones, trajectory starts; see its docstring for shapes and
dtypes) from rollout to learner. On disk it is one JSON header line, then the
six columns' raw little-endian bytes in that order, each in C order: states
and next states as int64 ids (discrete specs) or float64 positions (vector
specs), actions and starts as int64, rewards as float64, and dones as one
byte each, 0 or 1. The header holds the spec, the provenance and the counts
``n_transitions`` and ``n_trajectories``, which fix every column's shape, so
``load_dataset`` knows the body's exact length from the header alone and
rejects a file of any other length before it makes an array. Reloads are
bit-exact, and ``head -1`` shows a file's provenance. Checkpoints
(``neural.save_params``) share this layout through ``write_header_file`` and
``read_header_file``. A malformed or invalid file raises a ``ValueError``
naming the path and the cause.

A tabular policy, the behavior estimate ``empirical_behavior`` included, is
a plain float64 (n, S, A) array, agent first: row ``[i, s]`` is agent i's
action distribution at state s, and the joint policy is the product over
agents. No class wraps it. The exact solvers in ``tabular`` check the array
they are given: shape (n, S, A), every entry finite and >= 0, every row
summing to 1.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

FORMAT_VERSION = 2
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


def check_types(fields, ints: tuple, numbers: tuple) -> None:
    """Raise a ValueError naming the first attribute of ``fields`` listed in
    ``ints`` that is not an integer, or in ``numbers`` that is not a real
    number; a bool is neither."""
    for names, kinds, what in ((ints, (int, np.integer), "an integer"),
                               (numbers, (int, float, np.integer, np.floating), "a number")):
        for name in names:
            value = getattr(fields, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{name} must be {what}, got {value!r}")


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
        check_types(self, ("n_agents", "n_actions", "episode_limit"), ("gamma", "r_max"))
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

    def __post_init__(self):
        check_types(self, ("seed", "n_trajectories"), ())
        if self.n_trajectories < 0:
            raise ValueError(f"n_trajectories must be >= 0, got {self.n_trajectories}")


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


def greedy_policy_from_actions(actions: np.ndarray, n_actions: int) -> np.ndarray:
    """One-hot (n, S, A) policy over states 0..S-1 from their (S, n) actions."""
    return np.eye(n_actions)[np.asarray(actions, dtype=np.int64).T]


def state_count(spec: EnvSpec) -> int:
    """Number S of discrete states: the ids of a discrete spec lie in [0, S).

    Only the toy MMDP has discrete states; it has three cells and three
    actions per agent, so S = n_actions ** n_agents.
    """
    if spec.state_kind != "discrete" or spec.env_id != EnvId.TOY_MMDP:
        raise ValueError(f"no discrete state count for {spec.env_id.value} "
                         f"with {spec.state_kind} states")
    return spec.n_actions**spec.n_agents


def _state_violations(name: str, states: np.ndarray, spec: EnvSpec) -> list:
    """Discrete ids outside [0, S), or vector states with a non-finite entry."""
    if spec.state_kind == "vector":
        return [f"transition {idx}: {name} {states[idx].tolist()} is not finite"
                for idx in np.flatnonzero(~np.isfinite(states).all(axis=1))]
    n_states = state_count(spec)
    return [f"transition {idx}: {name} {states[idx]} outside [0, {n_states})"
            for idx in np.flatnonzero((states < 0) | (states >= n_states))]


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

    bad_shapes = _shape_violations(dataset, spec)
    if bad_shapes:  # the checks below index the columns by these shapes
        return ValidationReport(tuple(violations + bad_shapes))

    try:
        violations += _state_violations("state", dataset.states, spec)
        violations += _state_violations("next state", dataset.next_states, spec)
    except ValueError as exc:  # a discrete spec with no state count
        violations.append(str(exc))
    # flat indices of the 1-D view, in row order: np.argwhere on the 2-D mask
    # took 0.9 ms for 40 000 rows of 6 agents with nothing out of range
    # (numpy 2.4.6), against 0.03 ms for np.flatnonzero
    actions = dataset.actions.ravel()
    for k in np.flatnonzero((actions < 0) | (actions >= spec.n_actions)):
        idx, agent = divmod(int(k), spec.n_agents)
        violations.append(f"transition {idx}: agent {agent} action "
                          f"{actions[k]} outside [0, {spec.n_actions})")
    magnitude = np.abs(dataset.rewards)
    for idx in np.flatnonzero(~(magnitude <= spec.r_max + 1e-9)):
        violations.append(f"transition {idx}: |reward| {magnitude[idx]:.6g} "
                          f"exceeds r_max {spec.r_max:.6g}")
    return ValidationReport(tuple(violations + _boundary_violations(dataset)))


def _shape_violations(dataset: Dataset, spec: EnvSpec) -> list:
    n = len(dataset)
    state_shape = (n, spec.n_agents) if spec.state_kind == "vector" else (n,)
    shapes = {"states": state_shape, "actions": (n, spec.n_agents), "rewards": (n,),
              "next_states": state_shape, "dones": (n,), "starts": (len(dataset.starts),)}
    return [f"{name} shape {getattr(dataset, name).shape} != {shape}"
            for name, shape in shapes.items() if getattr(dataset, name).shape != shape]


def _boundary_violations(dataset: Dataset) -> list:
    """Faults of ``starts`` as a partition of the rows into trajectories."""
    n, starts, violations = len(dataset), dataset.starts, []
    if n and (not len(starts) or starts[0] != 0):
        violations.append("trajectory boundaries do not start at 0")
    for k in np.flatnonzero(np.diff(starts) <= 0) + 1:
        violations.append(f"trajectory boundaries overlap at index {k}")
    if len(starts) and starts[-1] >= n:
        violations.append("trajectory boundary beyond last transition")
    if dataset.header.n_trajectories != len(starts):
        violations.append(
            f"header n_trajectories {dataset.header.n_trajectories} != {len(starts)} partitions"
        )
    return violations


def empirical_behavior(dataset: Dataset, smoothing: float = 0.0) -> np.ndarray:
    """Counting estimate of the per-agent behavior policy, as an (n, S, A) array.

    beta_i(a|s) = (count(s, a_i=a) + smoothing) / (count(s) + smoothing * |A|);
    a state absent from the dataset holds exactly 1 / |A|. The states index
    the array, so the dataset must have discrete states, and a state outside
    [0, ``state_count(spec)``) raises a ValueError naming the first such
    transition and its id.
    """
    if not (np.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(f"smoothing must be finite and >= 0, got {smoothing}")
    if not len(dataset):
        raise ValueError("empty dataset")
    spec = dataset.header.spec
    if spec.state_kind != "discrete":
        raise ValueError("empirical_behavior needs discrete (tabular) states; "
                         "estimate a vector-state behavior policy with neural.train_bc")
    bad_states = _state_violations("state", dataset.states, spec)
    if bad_states:
        raise ValueError(f"empirical_behavior: {bad_states[0]}")
    n, n_states, n_act = spec.n_agents, state_count(spec), spec.n_actions
    cells = (np.arange(n) * n_states + dataset.states[:, None]) * n_act + dataset.actions
    counts = np.bincount(cells.ravel(), minlength=n * n_states * n_act)
    counts = counts.reshape(n, n_states, n_act).astype(np.float64)
    visits = counts.sum(axis=2, keepdims=True)
    probs = np.full(counts.shape, 1.0 / n_act)
    # an unvisited state keeps 1 / |A|, with no 0 / 0 at smoothing 0
    np.divide(counts + smoothing, visits + smoothing * n_act, out=probs,
              where=visits > 0)
    return probs


# ---------------------------------------------------------------------------
# Files of one JSON header line + raw array bytes: datasets and checkpoints.
# ---------------------------------------------------------------------------


def write_header_file(path, header: dict, arrays) -> None:
    """Write ``header`` as one sorted-key JSON line, then the raw bytes of each
    of ``arrays`` in turn, in C order; ``read_header_file`` reads them back."""
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for array in arrays:
            fh.write(np.ascontiguousarray(array))


def read_header_file(path, layout) -> tuple:
    """Read a file that ``write_header_file`` wrote: ``(parsed, arrays)``.

    ``layout(header)`` takes the header's JSON object and returns what it
    parsed from it together with the (dtype, shape) of each array of the
    body, in file order; it raises a ValueError naming the cause when the
    header is bad. The body must be exactly as long as those arrays, which is
    checked before any array is made, so a header cannot make the reader
    allocate more than the file holds. The arrays are read-only views of the
    body. Every ValueError names ``path``.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        body = fh.read()
    try:
        header = json.loads(first.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: line 1: not UTF-8: byte 0x{first[exc.start]:02x} "
                         f"({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line 1: header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: line 1: header is not a JSON object")
    try:
        parsed, columns = layout(header)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    columns = [(np.dtype(dtype), shape, math.prod(shape)) for dtype, shape in columns]
    expected = sum(dtype.itemsize * count for dtype, _, count in columns)
    if len(body) != expected:
        raise ValueError(f"{path}: body has {len(body)} bytes, expected {expected} "
                         "from the header")
    arrays, offset = [], 0
    for dtype, shape, count in columns:
        arrays.append(np.frombuffer(body, dtype, count, offset).reshape(shape))
        offset += dtype.itemsize * count
    return parsed, arrays


def _columns(spec: EnvSpec, n_rows: int, n_trajectories: int) -> dict:
    """The file dtype and shape of each Dataset column, in file order."""
    state = (("<f8", (n_rows, spec.n_agents)) if spec.state_kind == "vector"
             else ("<i8", (n_rows,)))
    return {"states": state, "actions": ("<i8", (n_rows, spec.n_agents)),
            "rewards": ("<f8", (n_rows,)), "next_states": state, "dones": ("u1", (n_rows,)),
            "starts": ("<i8", (n_trajectories,))}


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` to ``path``, so that ``load_dataset`` reads it back.

    A dataset that ``validate_dataset`` faults against its own spec raises a
    ValueError naming ``path`` and every violation, before anything is
    written: ``load_dataset`` would reject the file.
    """
    header = dataset.header
    spec = header.spec
    report = validate_dataset(dataset, spec)
    if not report.ok:
        raise ValueError(f"{path}: cannot save an invalid dataset:\n{report}")
    meta = {
        "format_version": FORMAT_VERSION,
        "generator_version": header.generator_version,
        "env_id": spec.env_id.value,
        "n_agents": spec.n_agents,
        "n_actions": spec.n_actions,
        "tier": header.tier.value,
        "seed": header.seed,
        "n_transitions": len(dataset),
        "n_trajectories": header.n_trajectories,
        "gamma": spec.gamma,
        "r_max": spec.r_max,
        "episode_limit": spec.episode_limit,
        "state_kind": spec.state_kind,
        "state_codec": spec.state_codec,
    }
    columns = _columns(spec, len(dataset), header.n_trajectories)
    write_header_file(path, meta, [getattr(dataset, name).astype(dtype, copy=False)
                                   for name, (dtype, _) in columns.items()])


def _dataset_layout(meta: dict) -> tuple:
    """The DatasetHeader of a dataset file's header, and its columns' layout."""
    version = meta.get("format_version")
    if version is not None and (isinstance(version, bool) or not isinstance(version, int)):
        raise ValueError(f"line 1: format_version must be an integer, got {version!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"line 1: unknown format_version {version!r} "
                         f"(expected {FORMAT_VERSION})")
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
        )
        n_rows = meta["n_transitions"]
    except KeyError as exc:
        raise ValueError(f"line 1: header has no {exc.args[0]!r} key") from None
    except ValueError as exc:  # unknown env id or tier, or a spec field out of range
        raise ValueError(f"line 1: {exc}") from None
    if isinstance(n_rows, bool) or not isinstance(n_rows, int) or n_rows < 0:
        raise ValueError(f"line 1: n_transitions must be an integer >= 0, got {n_rows!r}")
    return header, _columns(spec, n_rows, header.n_trajectories).values()


def load_dataset(path) -> Dataset:
    """Read a dataset file; a malformed or invalid file raises ValueError."""
    header, columns = read_header_file(path, _dataset_layout)
    dones = columns[4]  # in Dataset field order, as _columns lists them
    not_flag = np.flatnonzero(dones > 1)
    if len(not_flag):
        k = int(not_flag[0])
        raise ValueError(f"{path}: transition {k}: done byte {dones[k]} is not 0 or 1")
    dataset = Dataset(header, *columns)
    report = validate_dataset(dataset, header.spec)
    if not report.ok:
        raise ValueError(f"{path}: invalid dataset:\n{report}")
    return dataset
