"""Shared domain types, seeded randomness, and dataset integrity checks.

A ``Dataset`` is one set of read-only numpy columns (states, actions, rewards,
next_states, dones, trajectory starts; see its docstring for shapes and
dtypes) from rollout to learner. On disk it is plain text: one JSON header
line followed by one line per transition, so files can be diffed, inspected,
and reloaded bit-exactly. Both directions are one vectorised pass over the
columns. ``save_dataset`` formats each distinct value once and assembles the
records as fixed-width byte columns. ``load_dataset`` checks the separators
of all records at once, then parses them with one ``np.loadtxt`` call,
reading integer fields as integers. A malformed or invalid file raises
a ``ValueError`` naming the path and, for a malformed record, its line.

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
from dataclasses import dataclass
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
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        check_types(self, ("seed", "n_trajectories", "format_version"), ())


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
    if len(starts) and starts[-1] >= n and n > 0:
        violations.append("trajectory boundary beyond last transition")
    if dataset.header.n_trajectories != len(starts):
        violations.append(
            f"header n_trajectories {dataset.header.n_trajectories} != {len(starts)} partitions"
        )
    return violations


def _unique_ints(values: np.ndarray):
    """``np.unique(values, return_inverse=True)`` of a 1-D int64 array.

    When the range max - min + 1 is at most the length, the distinct values
    are counted instead of sorted: offset by the minimum, ``np.bincount``
    marks the present values in ascending order, and the running count of
    present values maps each entry to its key. The count array is then never
    larger than the array itself; a wider range, or an empty array, is sorted.
    """
    if not len(values) or int(values.max()) - int(values.min()) >= len(values):
        return np.unique(values, return_inverse=True)
    low = values.min()
    offsets = values - low
    present = np.bincount(offsets) > 0
    return np.flatnonzero(present) + low, (np.cumsum(present) - 1)[offsets]


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
# Dataset file format: JSON header line + one CSV-ish record per transition,
#   state,actions,reward,next_state,done,trajectory
# with vector states as ";"-joined floats and actions space-joined. Floats
# are written with repr() so reloads are bit-exact.
#
# The writer makes the records column by column. Each distinct value of a
# column (distinct bit pattern for floats, so 0.0 and -0.0 stay apart) is
# formatted once, with str for an int and repr for a float, and every entry
# becomes a NUL-padded fixed-width byte column (_entry_texts). An int
# column's distinct values are counted when its range fits its length (ids,
# actions, flags), and sorted otherwise; a float column's are sorted by their
# bits. Both give the keys in ascending order, so the bytes do not depend on
# the path. Each entry is followed by its separator (_separators), a constant
# column. One np.concatenate lays the columns side by side, and
# bytes.translate deletes the padding, which leaves the records in file order.
#
# For a given spec every valid record has the same sequence of separators
# ("," ";" " " and the newline), so the reader checks the structure of all
# records in one pass: with every other character deleted, the body must
# equal that sequence repeated once per record. This also catches a line on
# which one field gains an entry and another loses one. It then maps ";" and
# " " to "," and parses the body with one np.loadtxt call into a structured
# array (_record_dtype); integer fields are read as int64, so "5.5" is not an
# integer, and comments=None, so "#" is no comment. Only when a file fails
# either step does _check_record walk its lines, to name the first bad one.
# ---------------------------------------------------------------------------

_N_FIELDS = 6
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",; \n")))
_TO_COMMA = bytes.maketrans(b"; ", b",,")


def _entry_texts(column: np.ndarray) -> list:
    """The text of each entry of an (N,) or (N, k) int64 or float64 column,
    as k (N, width) uint8 arrays.

    Texts are ASCII, NUL-padded on the right to the longest. Every distinct
    value is formatted once, an int with str and a float with repr. Ints are
    found by counting when their range fits the column, and sorted otherwise
    (_unique_ints); floats are sorted by their bits, so 0.0 and -0.0 each get
    their own text.
    """
    is_float = column.dtype == np.float64
    flat = column.reshape(-1)  # 1-D, so return_inverse is 1-D on every numpy
    keys, inverse = (np.unique(flat.view(np.int64), return_inverse=True) if is_float
                     else _unique_ints(flat))
    texts = np.array(list(map(repr, keys.view(np.float64).tolist())) if is_float
                     else list(map(str, keys.tolist())), dtype=np.bytes_)
    texts = texts[inverse].view(np.uint8).reshape(*column.shape, texts.itemsize)
    return [texts] if column.ndim == 1 else list(np.moveaxis(texts, 1, 0))


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
    n_rows = len(dataset)
    lengths = np.diff(np.append(dataset.starts, n_rows))
    traj_ids = np.repeat(np.arange(len(lengths)), lengths)
    # states and next states share one set of texts: most next states are
    # the next row's state
    both = _entry_texts(np.column_stack((dataset.states, dataset.next_states)))
    k = len(both) // 2
    entries = [*both[:k], *_entry_texts(dataset.actions), *_entry_texts(dataset.rewards),
               *both[k:], *_entry_texts(dataset.dones.astype(np.int64)),
               *_entry_texts(traj_ids)]
    pieces = []
    for entry, sep in zip(entries, _separators(spec), strict=True):
        pieces += [entry, np.full((n_rows, 1), ord(sep), dtype=np.uint8)]
    body = np.concatenate(pieces, axis=1).tobytes().translate(None, delete=b"\0")
    with open(path, "wb") as fh:
        fh.write((json.dumps(meta, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(body)


def _fields(spec: EnvSpec) -> list:
    """(name, in-field separator, dtype) of each record field, in file order."""
    state_sep, state_dtype = (";", np.float64) if spec.state_kind == "vector" else (None, np.int64)
    return [("state", state_sep, state_dtype), ("joint action", " ", np.int64),
            ("reward", None, np.float64), ("next state", state_sep, state_dtype),
            ("done flag", None, np.int64), ("trajectory id", None, np.int64)]


def _record_dtype(spec: EnvSpec) -> np.dtype:
    """One record as a structured dtype; a ``sep``-joined field is a subarray."""
    names = ("states", "actions", "rewards", "next_states", "dones", "traj")
    return np.dtype([(name, dtype) if sep is None else (name, dtype, (spec.n_agents,))
                     for name, (_, sep, dtype) in zip(names, _fields(spec))])


def _separators(spec: EnvSpec) -> str:
    """The separators of one valid record, in order, ending with its newline."""
    return ",".join("" if sep is None else sep * (spec.n_agents - 1)
                    for _, sep, _ in _fields(spec)) + "\n"


def _is_entry(text: str, dtype) -> bool:
    """True when the record parser reads ``text`` as one ``dtype`` value."""
    if not text or ";" in text or " " in text:  # loadtxt skips an empty line
        return False
    try:
        np.loadtxt([text], dtype=dtype, delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def _check_record(path, line_no: int, line: str, spec: EnvSpec) -> None:
    """Raise the ValueError naming ``line`` when the record on it is malformed."""
    fields = line.split(",")
    if len(fields) != _N_FIELDS:
        raise ValueError(f"{path}: line {line_no}: expected {_N_FIELDS} comma-separated "
                         f"fields, got {len(fields)}")
    for text, (what, sep, dtype) in zip(fields, _fields(spec)):
        if sep is not None and text.count(sep) != spec.n_agents - 1:
            raise ValueError(f"{path}: line {line_no}: {what} {text!r} does not have "
                             f"{spec.n_agents} {sep!r}-separated entries")
        for entry in [text] if sep is None else text.split(sep):
            if not _is_entry(entry, dtype):
                kind = "an integer" if dtype is np.int64 else "a number"
                raise ValueError(f"{path}: line {line_no}: {what} entry {entry!r} "
                                 f"is not {kind}")


def _read_records(path, body: str, spec: EnvSpec) -> np.ndarray:
    """Parse a file's records (every line after the header) into a structured array.

    A malformed record raises the ValueError of ``_check_record`` for the
    first bad line.
    """
    dtype = _record_dtype(spec)
    if not body:  # np.loadtxt warns on input with no data
        return np.empty(0, dtype)
    if not body.endswith("\n"):
        body += "\n"
    data = body.encode("utf-8")
    separators = data.translate(None, delete=_NOT_SEPARATOR)
    if separators == _separators(spec).encode("ascii") * data.count(b"\n"):
        try:
            # the lines as a list: an io.StringIO of the body would hold it as
            # UCS4, four times its size, and split "\n" only, as split does
            lines = data.translate(_TO_COMMA).decode("utf-8").split("\n")[:-1]
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            pass
    for k, line in enumerate(body.split("\n")[:-1]):
        _check_record(path, k + 2, line, spec)
    raise AssertionError(f"{path}: records rejected, but no line is malformed")


def _not_utf8(path) -> str:
    """The error for a file that is not UTF-8, naming the line of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end as the text reader ends them: at \n, \r\n or \r
        before = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = before.count(b"\n") + 1
        return f"{path}: line {line}: not UTF-8: byte 0x{raw[exc.start]:02x} ({exc.reason})"
    raise AssertionError(f"{path}: decoding failed, but the bytes are UTF-8")


def load_dataset(path) -> Dataset:
    """Read a dataset file; a malformed or invalid file raises ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            body = fh.read()
    except UnicodeDecodeError:
        raise ValueError(_not_utf8(path)) from None
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
    records = _read_records(path, body, spec)
    not_flag = np.flatnonzero((records["dones"] != 0) & (records["dones"] != 1))
    if len(not_flag):
        k = int(not_flag[0])
        flag = body.split("\n")[k].split(",")[4]
        raise ValueError(f"{path}: line {k + 2}: done flag {flag!r} is not 0 or 1")
    traj = records["traj"]
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
        states=records["states"],
        actions=records["actions"],
        rewards=records["rewards"],
        next_states=records["next_states"],
        dones=records["dones"].astype(bool),
        starts=starts,
    )
    report = validate_dataset(dataset, spec)
    if not report.ok:
        raise ValueError(f"{path}: invalid dataset:\n{report}")
    return dataset
