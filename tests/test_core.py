import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcql_lab.core import (
    FORMAT_VERSION,
    DatasetHeader,
    EnvId,
    EnvSpec,
    RngStream,
    Tier,
    empirical_behavior,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from cfcql_lab.datagen import random_dataset
from cfcql_lab.envs import EqualLine, ToyMMDP

from conftest import make_dataset, random_toy_dataset

TOY_SPEC = ToyMMDP(2).spec()


def test_env_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        EnvSpec(EnvId.TOY_MMDP, 0, 3, 0.9, 1.0, 20, "discrete", "x")
    with pytest.raises(ValueError):
        EnvSpec(EnvId.TOY_MMDP, 2, 1, 0.9, 1.0, 20, "discrete", "x")
    with pytest.raises(ValueError):
        EnvSpec(EnvId.TOY_MMDP, 2, 3, 1.0, 1.0, 20, "discrete", "x")


def test_rng_stream_determinism():
    a = RngStream(7, "rollout").generator().random(8)
    b = RngStream(7, "rollout").generator().random(8)
    c = RngStream(7, "train").generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    child1 = RngStream(7).child("x").generator().random(4)
    child2 = RngStream(7).child("x").generator().random(4)
    assert np.array_equal(child1, child2)


COLUMNS = ("states", "actions", "rewards", "next_states", "dones", "starts")


def _transition(s, actions, r, s2, done=False):
    return (s, actions, r, s2, done)


def assert_same_columns(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def test_validate_dataset_accepts_well_formed(rng):
    d = random_toy_dataset(rng, n_transitions=10, episodes=2)
    assert validate_dataset(d, TOY_SPEC).ok


def test_validate_dataset_flags_action_out_of_range():
    ts = [_transition(0, (0, 3), 0.5, 1, True)]  # 3 == n_actions
    d = make_dataset(ts, TOY_SPEC)
    report = validate_dataset(d, TOY_SPEC)
    assert not report.ok
    assert any("transition 0" in v and "action 3" in v for v in report.violations)


def test_validate_dataset_flags_overlapping_boundaries():
    ts = [_transition(0, (0, 0), 0.5, 1, False) for _ in range(4)]
    d = make_dataset(ts, TOY_SPEC, starts=(0, 2, 2))
    report = validate_dataset(d, TOY_SPEC)
    assert any("overlap" in v for v in report.violations)


def test_validate_dataset_flags_reward_above_rmax():
    ts = [_transition(0, (0, 0), 1.5, 1, True)]
    report = validate_dataset(make_dataset(ts, TOY_SPEC), TOY_SPEC)
    assert any("r_max" in v for v in report.violations)


def test_validate_dataset_flags_discrete_spec_without_state_count():
    spec = EnvSpec(EnvId.EQUAL_LINE, 2, 11, 0.9, 2.0, 50, "discrete", "ids")
    report = validate_dataset(make_dataset([_transition(0, (0, 0), 0.5, 1, True)], spec), spec)
    assert report.violations == ("no discrete state count for equal_line with discrete states",)


def test_empirical_behavior_counting():
    ts = [
        _transition(0, (1, 0), 0.0, 0),
        _transition(0, (1, 1), 0.0, 0),
        _transition(0, (1, 2), 0.0, 0),
        _transition(0, (0, 0), 0.0, 0, True),
    ]
    beta = empirical_behavior(make_dataset(ts, TOY_SPEC), smoothing=0.0)
    assert beta[0, 0, 1] == pytest.approx(0.75)


def test_empirical_behavior_laplace_smoothing():
    ts = [_transition(0, (1, 0), 0.0, 0) for _ in range(4)]
    beta = empirical_behavior(make_dataset(ts, TOY_SPEC), smoothing=1.0)
    np.testing.assert_allclose(beta[0, 0], [1 / 7, 5 / 7, 1 / 7])


@pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), -1.0])
def test_empirical_behavior_rejects_a_non_finite_or_negative_smoothing(smoothing):
    # nan passes a plain `smoothing < 0` check and inf gives inf / inf: both
    # would return nan rows for every visited state
    ts = [_transition(0, (1, 0), 0.0, 4), _transition(4, (2, 2), 0.0, 0, True)]
    with pytest.raises(ValueError, match=rf"smoothing must be finite and >= 0, got {smoothing}"):
        empirical_behavior(make_dataset(ts, TOY_SPEC), smoothing=smoothing)


def test_empirical_behavior_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        empirical_behavior(make_dataset([], TOY_SPEC, starts=()))


def test_empirical_behavior_matches_bruteforce_count(rng):
    d = random_toy_dataset(rng, n_agents=3, n_transitions=1000, episodes=10)
    spec = d.header.spec
    beta = empirical_behavior(d, smoothing=0.5)
    assert beta.shape == (spec.n_agents, 27, spec.n_actions) and beta.dtype == np.float64
    # independent counting pass
    counts = {}
    for state, joint_action in zip(d.states.tolist(), d.actions.tolist()):
        row = counts.setdefault(state, np.zeros((spec.n_agents, spec.n_actions)))
        for i, a in enumerate(joint_action):
            row[i, a] += 1
    for s in range(27):
        row = counts.get(s, np.zeros((spec.n_agents, spec.n_actions)))
        expect = (row + 0.5) / (row.sum(axis=1, keepdims=True) + 0.5 * spec.n_actions)
        np.testing.assert_allclose(beta[:, s], expect, atol=1e-12)


@pytest.mark.parametrize("bad", [-1, TOY_SPEC.n_actions**TOY_SPEC.n_agents])
def test_empirical_behavior_rejects_a_state_outside_the_ids(bad):
    # a state of -1 would otherwise count into another state's row
    ts = [_transition(0, (1, 0), 0.0, 1), _transition(bad, (0, 2), 0.0, 0),
          _transition(bad, (1, 1), 0.0, 0, True)]
    with pytest.raises(ValueError, match=rf"transition 1: state {bad} outside \[0, 9\)"):
        empirical_behavior(make_dataset(ts, TOY_SPEC))


def test_empirical_behavior_rejects_vector_states():
    d = make_dataset([((0.0, 1.0), (0, 1), 0.0, (0.0, 1.0), True)], EqualLine(2).spec())
    with pytest.raises(ValueError, match="empirical_behavior needs discrete"):
        empirical_behavior(d)


def test_empirical_behavior_unseen_state_is_uniform():
    # states 0 and 4 are visited, the other 7 of the 9 are not
    ts = [_transition(0, (1, 0), 0.0, 4), _transition(4, (2, 2), 0.0, 0, True)]
    for smoothing in (0.0, 1.0):  # 0 would divide 0 by 0 at an unvisited state
        beta = empirical_behavior(make_dataset(ts, TOY_SPEC), smoothing=smoothing)
        unseen = [1, 2, 3, 5, 6, 7, 8]
        assert np.all(beta[:, unseen] == 1.0 / 3.0)
        assert beta[0, 0, 1] == (1.0 + smoothing) / (1.0 + 3 * smoothing)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
def test_empirical_behavior_is_simplex(seed, smoothing):
    d = random_toy_dataset(np.random.default_rng(seed), n_transitions=60, episodes=3)
    beta = empirical_behavior(d, smoothing=smoothing)
    assert beta.shape == (2, 9, 3)
    assert np.all(beta >= 0)
    np.testing.assert_allclose(beta.sum(axis=2), 1.0, rtol=0, atol=1e-9)


def test_dataset_roundtrip_discrete(tmp_path, rng):
    d = random_toy_dataset(rng, n_transitions=50, episodes=5)
    path = tmp_path / "toy.dat"
    save_dataset(d, path)
    loaded = load_dataset(path)
    assert loaded.header == d.header
    assert_same_columns(loaded, d)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-1.0, 1.0),
            st.floats(0, 9.99),
            st.integers(0, 2),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_dataset_roundtrip_vector_states(tmp_path_factory, rows):
    spec = EnvSpec(EnvId.EQUAL_LINE, 2, 11, 0.99, 2.0, 50, "vector", "positions")
    ts = [((x, x + 1.0), (a0, a1), r, (x + 0.5, x), False) for (r, x, a0, a1) in rows]
    d = make_dataset(ts, spec, tier=Tier.RANDOM)
    path = tmp_path_factory.mktemp("ds") / "line.dat"
    save_dataset(d, path)
    loaded = load_dataset(path)
    assert_same_columns(loaded, d)
    assert loaded.header.spec == spec


# Floats whose text form is easy to get wrong: signed zero, the smallest
# subnormal and values repr() writes in exponent form.
FINITE_HARD = (st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, -1e16])
               | st.floats(allow_nan=False, allow_infinity=False))
INF = float("inf")


HARD_ROWS = st.lists(st.tuples(FINITE_HARD, FINITE_HARD, FINITE_HARD,
                               FINITE_HARD | st.sampled_from([INF, -INF])),
                     min_size=1, max_size=12)


def _hard_row_dataset(rows):
    # r_max = inf admits infinite rewards; states must be finite
    spec = EnvSpec(EnvId.EQUAL_LINE, 2, 11, 0.99, INF, 50, "vector", "positions")
    return make_dataset([((x, y), (1, 0), r, (y, z), False) for (x, y, z, r) in rows], spec)


@settings(max_examples=60, deadline=None)
@given(HARD_ROWS)
def test_dataset_roundtrip_vector_hard_floats(tmp_path_factory, rows):
    d = _hard_row_dataset(rows)
    path = tmp_path_factory.mktemp("ds") / "line.dat"
    save_dataset(d, path)
    loaded = load_dataset(path)
    assert_same_columns(loaded, d)
    save_dataset(loaded, path.with_suffix(".again"))
    assert path.with_suffix(".again").read_bytes() == path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(HARD_ROWS, st.tuples(st.integers(0, 3), st.sampled_from([float("nan"), INF, -INF])))
def test_save_dataset_writes_only_what_loads(tmp_path_factory, rows, poison):
    # ``poison`` puts nan or an infinity in one field of the first row: a
    # non-finite state or a nan reward makes the dataset invalid, and then
    # save_dataset raises with its validation report and writes nothing
    field, value = poison
    rows[0] = rows[0][:field] + (value,) + rows[0][field + 1:]
    d = _hard_row_dataset(rows)
    path = tmp_path_factory.mktemp("ds") / "line.dat"
    report = validate_dataset(d, d.header.spec)
    if report.ok:
        save_dataset(d, path)
        assert_same_columns(load_dataset(path), d)
        return
    with pytest.raises(ValueError) as err:
        save_dataset(d, path)
    assert str(err.value) == f"{path}: cannot save an invalid dataset:\n{report}"
    assert not path.exists()


@pytest.mark.parametrize("spec", [TOY_SPEC, EqualLine(2).spec()], ids=["discrete", "vector"])
def test_dataset_roundtrip_zero_transitions(tmp_path, spec):
    d = make_dataset([], spec, starts=())
    save_dataset(d, tmp_path / "empty.dat")
    loaded = load_dataset(tmp_path / "empty.dat")
    assert loaded.header == d.header
    assert_same_columns(loaded, d)


# -- the file format -------------------------------------------------------------

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, state_dtype, state_shape, n", [
    ("toy_n2.bin", np.int64, (15,), 15),
    ("line_n2.bin", np.float64, (10, 2), 10),
])
def test_golden_file_roundtrips_byte_for_byte(tmp_path, name, state_dtype, state_shape, n):
    d = load_dataset(DATA / name)
    expected = {"states": (state_dtype, state_shape), "actions": (np.int64, (n, 2)),
                "rewards": (np.float64, (n,)), "next_states": (state_dtype, state_shape),
                "dones": (np.bool_, (n,)), "starts": (np.int64, (d.header.n_trajectories,))}
    for column, (dtype, shape) in expected.items():
        array = getattr(d, column)
        assert (array.dtype, array.shape) == (np.dtype(dtype), shape), column
        assert not array.flags.writeable, column
    save_dataset(d, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


def _reference_body(d) -> bytes:
    """The body of ``d`` packed one value at a time with ``struct``: each
    column in turn, row by row, ints as little-endian int64, floats as
    little-endian float64 and each done as one byte."""
    state = "<d" if d.header.spec.state_kind == "vector" else "<q"
    columns = [(state, d.states), ("<q", d.actions), ("<d", d.rewards), (state, d.next_states),
               ("<?", d.dones), ("<q", d.starts)]
    return b"".join(struct.pack(fmt, value) for fmt, column in columns
                    for value in column.ravel().tolist())


# Both zeros, the smallest subnormal, the largest float and values with no
# short decimal form; rewards also take the infinities. A non-finite state or
# a nan reward cannot be saved: the reader's rejection of them is tested on
# edited files (test_load_dataset_rejects_bad_state).
HARD_FLOATS = [0.0, -0.0, 5e-324, 1e16, -1e-5, 1.5e-300, 1.7976931348623157e308, 0.1, 1 / 3,
               -2.5]
HARD_REWARDS = HARD_FLOATS + [INF, -INF]


def _hard_float_dataset():
    # every state column holds every value of HARD_FLOATS, the reward column
    # every value of HARD_REWARDS
    spec = EnvSpec(EnvId.EQUAL_LINE, 3, 11, 0.99, INF, 50, "vector", "positions")
    m = len(HARD_FLOATS)

    def pick(k, width):
        return [HARD_FLOATS[(k + i) % m] for i in range(width)]

    rows = [(pick(k, 3), (k % 11, 10, 0), HARD_REWARDS[k % len(HARD_REWARDS)], pick(k + 5, 3),
             k % 7 == 6) for k in range(60)]
    return make_dataset(rows, spec, starts=(0, 7, 14, 30, 59))


def _wide_id_dataset():
    # one row per trajectory: 12346 trajectories, and states as many
    spec = ToyMMDP(9).spec()
    ids = np.arange(12346)
    rows = [(s, (s % 3,) * 9, 1.0, (s * 7) % 12346, True) for s in ids.tolist()]
    return make_dataset(rows, spec, starts=tuple(ids.tolist()))


def _far_apart_states_dataset():
    # the first and last state ids of toy n = 8
    spec = ToyMMDP(8).spec()
    return make_dataset([(0, (0,) * 8, 0.5, 6560, False), (6560, (2,) * 8, 1.0, 0, True)], spec)


def _gapped_ids_dataset():
    # states 4..25 in steps of 7, actions 1 and 2 only, and done flags all 1
    spec = ToyMMDP(3).spec()
    rows = [(4 + 7 * (k % 4), (1 + k % 2, 2, 1), k / 16, 4 + 7 * ((k + 1) % 4), True)
            for k in range(12)]
    return make_dataset(rows, spec, starts=tuple(range(12)))


def _one_action_dataset():
    rows = [(k % 9, (2, 2), 0.25, (k + 4) % 9, k == 19) for k in range(20)]
    return make_dataset(rows, TOY_SPEC)


def _single_agent_dataset():
    spec = EnvSpec(EnvId.EQUAL_LINE, 1, 11, 0.99, 2.0, 50, "vector", "positions")
    rows = [((x,), (k % 11,), -x / 10, (x + 0.5,), k == 4) for k, x in
            enumerate([0.0, -0.0, 1e-7, 2.5, 9.75])]
    return make_dataset(rows, spec)


@pytest.mark.parametrize("make", [
    _hard_float_dataset,
    _wide_id_dataset,
    _single_agent_dataset,
    lambda: make_dataset([((0.25, -0.0), (3, 10), 1e-300, (0.5, 0.0), True)],
                         EqualLine(2).spec()),
    lambda: make_dataset([], EqualLine(2).spec(), starts=()),
    lambda: make_dataset([], TOY_SPEC, starts=()),
    _far_apart_states_dataset,
    _gapped_ids_dataset,
    _one_action_dataset,
    lambda: random_dataset(ToyMMDP(4), 30, RngStream(5)),
], ids=["hard_floats", "wide_ids", "single_agent", "one_row", "zero_rows_vector",
        "zero_rows_discrete", "far_apart_states", "gapped_ids", "one_action", "random_tier"])
def test_save_dataset_matches_a_per_row_formatter(tmp_path, make):
    d = make()
    save_dataset(d, tmp_path / "d.bin")
    header, body = (tmp_path / "d.bin").read_bytes().split(b"\n", 1)
    assert body == _reference_body(d)
    meta = json.loads(header)
    assert (meta["n_transitions"], meta["n_trajectories"]) == (len(d), len(d.starts))
    assert meta["format_version"] == FORMAT_VERSION


def test_save_dataset_writes_the_format_version_load_dataset_reads(tmp_path, rng):
    # the version belongs to the file format, so a header has no field that
    # could write one the reader rejects
    assert "format_version" not in {f.name for f in dataclasses.fields(DatasetHeader)}
    d = random_toy_dataset(rng, n_transitions=10, episodes=2)
    save_dataset(d, tmp_path / "d.bin")
    header = (tmp_path / "d.bin").read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["format_version"] == FORMAT_VERSION == 2
    assert_same_columns(load_dataset(tmp_path / "d.bin"), d)


@pytest.mark.parametrize("starts, message", [
    ((0, 3, 3), "trajectory boundaries overlap at index 2"),
    ((2,), "trajectory boundaries do not start at 0"),
], ids=["empty_trajectory", "first_rows_in_no_trajectory"])
def test_save_dataset_rejects_broken_trajectory_boundaries(tmp_path, starts, message):
    rows = [(s, (s % 3, 1), 0.5, s + 1, s == 4) for s in range(5)]
    d = make_dataset(rows, TOY_SPEC, starts=starts)
    path = tmp_path / "d.bin"
    with pytest.raises(ValueError, match=f"cannot save an invalid dataset:\n{message}"):
        save_dataset(d, path)
    assert not path.exists()


def test_a_trajectory_in_a_dataset_with_no_rows_is_invalid(tmp_path):
    # a trajectory with no rows would round-trip as one that starts past the end
    d = make_dataset([], TOY_SPEC, starts=(0,))
    assert validate_dataset(d, TOY_SPEC).violations == (
        "trajectory boundary beyond last transition",)
    with pytest.raises(ValueError, match="cannot save an invalid dataset"):
        save_dataset(d, tmp_path / "d.bin")


@pytest.mark.parametrize("spec, row, message", [
    (TOY_SPEC, (2, (7, 1), 0.5, 3, True), "transition 0: agent 0 action 7 outside [0, 3)"),
    (TOY_SPEC, (9, (0, 1), 0.5, 3, True), "transition 0: state 9 outside [0, 9)"),
    (TOY_SPEC, (2, (0, 1), -1.5, 3, True), "transition 0: |reward| 1.5 exceeds r_max 1"),
    (EqualLine(2).spec(), ((0.5, float("nan")), (0, 1), 0.5, (0.5, 1.0), True),
     "transition 0: state [0.5, nan] is not finite"),
], ids=["action_past_last", "state_past_last", "reward_over_r_max", "nan_state"])
def test_save_dataset_rejects_an_invalid_dataset(tmp_path, spec, row, message):
    d = make_dataset([row], spec)
    path = tmp_path / "d.bin"
    with pytest.raises(ValueError) as err:
        save_dataset(d, path)
    assert str(err.value) == f"{path}: cannot save an invalid dataset:\n{message}"
    assert not path.exists()


def _golden_columns(name):
    """The header line of golden file ``name`` and its columns as writable
    arrays, laid out as the core module docstring specifies."""
    header, body = (DATA / name).read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    n, n_agents = meta["n_transitions"], meta["n_agents"]
    state = ("<f8", (n, n_agents)) if meta["state_kind"] == "vector" else ("<i8", (n,))
    layout = {"states": state, "actions": ("<i8", (n, n_agents)), "rewards": ("<f8", (n,)),
              "next_states": state, "dones": ("u1", (n,)),
              "starts": ("<i8", (meta["n_trajectories"],))}
    columns, offset = {}, 0
    for column, (dtype, shape) in layout.items():
        count = int(np.prod(shape))
        columns[column] = np.frombuffer(body, dtype, count, offset).reshape(shape).copy()
        offset += count * np.dtype(dtype).itemsize
    assert offset == len(body)
    return header, columns


def _edit_column(column, index, value, name="toy_n2.bin"):
    """An edit that sets ``column[index]`` of golden file ``name`` to ``value``."""
    def edit(tmp_path):
        header, columns = _golden_columns(name)
        columns[column][index] = value
        path = tmp_path / "bad.bin"
        path.write_bytes(header + b"\n" + b"".join(c.tobytes() for c in columns.values()))
        return path
    return edit


def _edit_header(old, new, name="toy_n2.bin"):
    """An edit that replaces ``old`` with ``new`` in the header of golden file ``name``."""
    def edit(tmp_path):
        header, body = (DATA / name).read_bytes().split(b"\n", 1)
        assert old.encode() in header
        path = tmp_path / "bad.bin"
        path.write_bytes(header.replace(old.encode(), new.encode()) + b"\n" + body)
        return path
    return edit


def _edit_body(edit_bytes, name="toy_n2.bin"):
    """An edit that replaces the body of golden file ``name`` with ``edit_bytes(body)``."""
    def edit(tmp_path):
        header, body = (DATA / name).read_bytes().split(b"\n", 1)
        path = tmp_path / "bad.bin"
        path.write_bytes(header + b"\n" + edit_bytes(body))
        return path
    return edit


# toy_n2.bin: 15 rows of 2 agents and 3 trajectories, so a body of
# 15 * (8 + 16 + 8 + 8 + 1) + 3 * 8 = 639 bytes
@pytest.mark.parametrize("edit, message", [
    (_edit_header('"format_version": 2', '"format_version": 3'),
     "line 1: unknown format_version 3 (expected 2)"),
    (_edit_header('"n_trajectories": 3', '"n_trajectories": 4'),
     "body has 639 bytes, expected 647 from the header"),
    (_edit_column("actions", (4, 1), 5),
     "invalid dataset:\ntransition 4: agent 1 action 5 outside [0, 3)"),
    (_edit_header('{"env_id"', '{env_id'), "line 1: header is not JSON: Expecting property name"),
    (_edit_header('"gamma": 0.9, ', ""), "line 1: header has no 'gamma' key"),
    (_edit_header('"toy_mmdp"', '"chess"'), "line 1: 'chess' is not a valid EnvId"),
    (_edit_body(lambda body: body[:-1]), "body has 638 bytes, expected 639 from the header"),
    (_edit_body(lambda body: body + b"\0"), "body has 640 bytes, expected 639 from the header"),
    (_edit_header('"n_transitions": 15', '"n_transitions": 1000000000000000'),
     "body has 639 bytes, expected 41000000000000024 from the header"),
    (_edit_column("dones", 4, 2), "transition 4: done byte 2 is not 0 or 1"),
    (_edit_column("starts", 1, 10), "invalid dataset:\ntrajectory boundaries overlap at index 2"),
    (_edit_column("starts", 2, 15), "invalid dataset:\n"
     "trajectory boundary beyond last transition"),
], ids=["format_version", "n_trajectories", "validation", "header_not_json",
        "header_key_missing", "unknown_env_id", "body_one_byte_short", "body_one_byte_long",
        "n_transitions_larger_than_the_file", "done_byte_2", "starts_overlap",
        "start_past_the_last_row"])
def test_load_dataset_rejects_bad_file(tmp_path, edit, message):
    path = edit(tmp_path)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("header, message", [
    (b'[1, 2]', "line 1: header is not a JSON object"),
    (b'{"format_version": 2', "line 1: header is not JSON: Expecting ',' delimiter"),
    (b"", "line 1: header is not JSON: Expecting value"),
], ids=["list", "unclosed", "empty_file"])
def test_load_dataset_rejects_a_header_that_is_not_a_json_object(tmp_path, header, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(header)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}: {message}")


def test_load_dataset_rejects_a_version_1_text_file(tmp_path):
    # the first two lines of a file that the text format of version 1 wrote
    header = {"env_id": "toy_mmdp", "episode_limit": 5, "format_version": 1, "gamma": 0.9,
              "generator_version": "0.1.0", "n_actions": 3, "n_agents": 2, "n_trajectories": 1,
              "r_max": 1.0, "seed": 7, "state_codec": "base-3", "state_kind": "discrete",
              "tier": "random"}
    path = tmp_path / "v1.txt"
    path.write_text(json.dumps(header, sort_keys=True) + "\n2,1 1,0.5,5,1,0\n")
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: line 1: unknown format_version 1 (expected 2)"


@pytest.mark.parametrize("bad", ["-1", "true", "15.0", '"15"', None],
                         ids=["negative", "bool", "float", "string", "missing"])
def test_load_dataset_rejects_a_bad_n_transitions(tmp_path, bad):
    new = "" if bad is None else f'"n_transitions": {bad}, '
    path = _edit_header('"n_transitions": 15, ', new)(tmp_path)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    message = ("header has no 'n_transitions' key" if bad is None else
               f"n_transitions must be an integer >= 0, got {json.loads(bad)!r}")
    assert str(err.value) == f"{path}: line 1: {message}"


HEADER_VALUES = {"n_agents": 2, "n_actions": 3, "episode_limit": 5, "n_trajectories": 3,
                 "seed": 7, "format_version": 2, "gamma": 0.9, "r_max": 1.0}
# an integer field as a bool, as a float of its own value, and as a string
BAD_HEADER_VALUES = [
    (field, bad, "an integer")
    for field in ("n_agents", "n_actions", "episode_limit", "n_trajectories", "seed",
                  "format_version")
    for bad in ("true", f"{HEADER_VALUES[field]}.0", '"x"')
] + [(field, bad, "a number") for field in ("gamma", "r_max") for bad in ("true", '"x"', "null")]


@pytest.mark.parametrize("field, bad, kind", BAD_HEADER_VALUES,
                         ids=[f"{field}={bad}" for field, bad, _ in BAD_HEADER_VALUES])
def test_load_dataset_rejects_a_header_field_of_the_wrong_type(tmp_path, field, bad, kind):
    path = _edit_header(f'"{field}": {json.dumps(HEADER_VALUES[field])}',
                        f'"{field}": {bad}')(tmp_path)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == (f"{path}: line 1: {field} must be {kind}, "
                              f"got {json.loads(bad)!r}")


@pytest.mark.parametrize("line_no, column", [(1, 12)], ids=["header"])
def test_load_dataset_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, line_no, column):
    data = (DATA / "toy_n2.bin").read_bytes()
    path = tmp_path / "bad.bin"
    path.write_bytes(data[:column] + b"\xff" + data[column:])
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == (f"{path}: line {line_no}: not UTF-8: byte 0xff "
                              "(invalid start byte)")


def test_env_spec_and_header_reject_fields_of_the_wrong_type():
    fields = dataclasses.asdict(TOY_SPEC)
    for name, bad in (("n_agents", np.float64(2.0)), ("episode_limit", True),
                      ("gamma", "0.9"), ("r_max", None)):
        with pytest.raises(ValueError, match=f"{name} must be"):
            EnvSpec(**{**fields, name: bad})
    assert EnvSpec(**{**fields, "n_agents": np.int64(2), "r_max": 1}).n_agents == 2
    with pytest.raises(ValueError, match="seed must be an integer, got '7'"):
        DatasetHeader(spec=TOY_SPEC, tier=Tier.RANDOM, seed="7", n_trajectories=1)
    with pytest.raises(ValueError, match="n_trajectories must be >= 0, got -1"):
        DatasetHeader(spec=TOY_SPEC, tier=Tier.RANDOM, seed=7, n_trajectories=-1)


@pytest.mark.parametrize("name, column, index, value, message", [
    ("toy_n2.bin", "states", 1, -1, "transition 1: state -1 outside [0, 9)"),
    ("toy_n2.bin", "states", 3, 9, "transition 3: state 9 outside [0, 9)"),
    ("toy_n2.bin", "next_states", 4, -3, "transition 4: next state -3 outside [0, 9)"),
    ("line_n2.bin", "states", (1, 0), np.nan,
     "transition 1: state [nan, 0.6022012081306448] is not finite"),
    ("line_n2.bin", "next_states", (2, 0), np.inf,
     "transition 2: next state [inf, 1.6022012081306447] is not finite"),
    ("line_n2.bin", "states", (2, 1), -np.inf, "transition 2: state [0.0, -inf] is not finite"),
    ("line_n2.bin", "next_states", (5, 1), np.nan,
     "transition 5: next state [0.0, nan] is not finite"),
    ("line_n2.bin", "rewards", 0, np.nan, "transition 0: |reward| nan exceeds r_max 2"),
    ("line_n2.bin", "rewards", 1, -np.inf, "transition 1: |reward| inf exceeds r_max 2"),
], ids=["negative_state", "state_past_last", "negative_next_state", "nan_state",
        "inf_next_state", "minus_inf_state", "nan_next_state", "nan_reward", "inf_reward"])
def test_load_dataset_rejects_bad_state(tmp_path, name, column, index, value, message):
    path = _edit_column(column, index, value, name)(tmp_path)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: invalid dataset:\n{message}"
