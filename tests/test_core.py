from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcql_lab.core import (
    EnvId,
    EnvSpec,
    RngStream,
    Tier,
    empirical_behavior,
    load_dataset,
    save_dataset,
    validate_dataset,
)
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
    assert beta.probs(0)[0, 1] == pytest.approx(0.75)


def test_empirical_behavior_laplace_smoothing():
    ts = [_transition(0, (1, 0), 0.0, 0) for _ in range(4)]
    beta = empirical_behavior(make_dataset(ts, TOY_SPEC), smoothing=1.0)
    np.testing.assert_allclose(beta.probs(0)[0], [1 / 7, 5 / 7, 1 / 7])


def test_empirical_behavior_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        empirical_behavior(make_dataset([], TOY_SPEC, starts=()))


def test_empirical_behavior_matches_bruteforce_count(rng):
    d = random_toy_dataset(rng, n_agents=3, n_transitions=1000, episodes=10)
    spec = d.header.spec
    beta = empirical_behavior(d, smoothing=0.5)
    # independent counting pass
    counts = {}
    for state, joint_action in zip(d.states.tolist(), d.actions.tolist()):
        row = counts.setdefault(state, np.zeros((spec.n_agents, spec.n_actions)))
        for i, a in enumerate(joint_action):
            row[i, a] += 1
    for s, row in counts.items():
        expect = (row + 0.5) / (row.sum(axis=1, keepdims=True) + 0.5 * spec.n_actions)
        np.testing.assert_allclose(beta.probs(s), expect, atol=1e-12)


def test_empirical_behavior_rejects_vector_states():
    d = make_dataset([((0.0, 1.0), (0, 1), 0.0, (0.0, 1.0), True)], EqualLine(2).spec())
    with pytest.raises(ValueError, match="empirical_behavior needs discrete"):
        empirical_behavior(d)


def test_empirical_behavior_unseen_state_is_uniform(rng):
    d = random_toy_dataset(rng, n_transitions=20, episodes=2)
    beta = empirical_behavior(d)
    np.testing.assert_allclose(beta.probs(10**6), 1.0 / 3.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
def test_empirical_behavior_is_simplex(seed, smoothing):
    d = random_toy_dataset(np.random.default_rng(seed), n_transitions=60, episodes=3)
    beta = empirical_behavior(d, smoothing=smoothing)
    rows = np.stack(list(beta.table.values()))
    assert rows.shape[1:] == (beta.n_agents, beta.n_actions)
    assert np.all(rows >= 0)
    np.testing.assert_allclose(rows.sum(axis=2), 1.0, rtol=0, atol=1e-9)


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


# -- the file format -------------------------------------------------------------

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, state_dtype, state_shape, n", [
    ("toy_n2.txt", np.int64, (15,), 15),
    ("line_n2.txt", np.float64, (10, 2), 10),
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


def _edit_golden(tmp_path, line_no, old, new, name="toy_n2.txt"):
    lines = (DATA / name).read_text().splitlines(keepends=True)
    assert old in lines[line_no - 1]
    lines[line_no - 1] = lines[line_no - 1].replace(old, new)
    path = tmp_path / "bad.txt"
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("line_no, old, new, message", [
    (1, '"format_version": 1', '"format_version": 2', "line 1: unknown format_version 2"),
    (3, ",0,0\n", ",0\n", "line 3: expected 6 comma-separated fields, got 5"),
    (2, ",1 1,", ",1 1 0,", "line 2: joint action '1 1 0' does not have 2"),
    (4, ",0.5,", ",abc,", "line 4: reward entry 'abc' is not a number"),
    (5, "5,0 1,", "5.5,0 1,", "line 5: state entry '5.5' is not an integer"),
    (7, ",1 2,", ",1 x,", "line 7: joint action entry 'x' is not an integer"),
    (12, ",0,2\n", ",0,0\n", "line 12: trajectory id 0 reappears"),
    (1, '"n_trajectories": 3', '"n_trajectories": 4', "line 1: n_trajectories 4 != 3"),
    (6, "8,1 1,", "8,1 5,", "invalid dataset:\ntransition 4: agent 1 action 5 outside"),
    (1, '{"env_id"', '{env_id', "line 1: header is not JSON: Expecting property name"),
    (1, '"gamma": 0.9, ', "", "line 1: header has no 'gamma' key"),
    (1, '"toy_mmdp"', '"chess"', "line 1: 'chess' is not a valid EnvId"),
], ids=["format_version", "field_count", "action_count", "non_numeric", "non_integer",
        "non_integer_action", "trajectory_ids", "n_trajectories", "validation",
        "header_not_json", "header_key_missing", "unknown_env_id"])
def test_load_dataset_rejects_bad_file(tmp_path, line_no, old, new, message):
    path = _edit_golden(tmp_path, line_no, old, new)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("name, line_no, old, new, message", [
    ("toy_n2.txt", 3, "5,0 2,", "-1,0 2,", "transition 1: state -1 outside [0, 9)"),
    ("toy_n2.txt", 5, "5,0 1,", "9,0 1,", "transition 3: state 9 outside [0, 9)"),
    ("toy_n2.txt", 6, ",8,1,0", ",-3,1,0", "transition 4: next state -3 outside [0, 9)"),
    ("line_n2.txt", 3, "0.0;0.6022012081306448,4", "nan;0.6022012081306448,4",
     "transition 1: state [nan, 0.6022012081306448] is not finite"),
    ("line_n2.txt", 4, ",0.0;1.6022012081306447,", ",inf;1.6022012081306447,",
     "transition 2: next state [inf, 1.6022012081306447] is not finite"),
], ids=["negative_state", "state_past_last", "negative_next_state", "nan_state",
        "inf_next_state"])
def test_load_dataset_rejects_bad_state(tmp_path, name, line_no, old, new, message):
    path = _edit_golden(tmp_path, line_no, old, new, name)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: invalid dataset:\n{message}"
