"""Tests of the benchmark's tracer and of BENCHMARK.json's metric lists.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def span(name, start, end, parent):
    return Span(name, "round0", start, end, parent, True)


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("b.inner", 6.0, 7.0, 2),
        span("other_root", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 2.0, 6.0, 0),
        span("b", 4.0, 8.0, 0),  # overlaps a on [4, 6]
        span("c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _cfcql_bindings():
    """Every function or method object reachable by name in cfcql_lab."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "cfcql_lab" or name.startswith("cfcql_lab."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_wrappers_patch_every_lookup_and_restore_the_originals():
    import pipeline  # noqa: F401  (imports every cfcql_lab module)
    from cfcql_lab import core, datagen, envs

    before = _cfcql_bindings()
    original = core.validate_dataset
    with tracing.Tracer() as tracer:
        assert not tracer.missing
        assert core.validate_dataset is not original
        assert datagen.validate_dataset is core.validate_dataset
        assert "step_batch" in vars(envs.ToyMMDP)
        assert envs.ToyMMDP.step_batch is not before[("cfcql_lab.envs", "ToyMMDP", "step_batch")]
    after = _cfcql_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_calls_record_nested_spans_and_counts():
    from cfcql_lab import core, datagen, envs

    env = envs.ToyMMDP(2, episode_limit=5)
    tracer = tracing.Tracer()
    tracer.segment = "round0"
    with tracer:
        datagen.random_dataset(env, 3, core.RngStream(0))
    names = [s.name for s in tracer.spans]
    assert names.count("envs.step_batch") == 5
    sample = names.index("datagen.sample_dataset")
    rollout = names.index("rollouts.rollout_episodes")
    assert tracer.spans[rollout].parent == sample
    assert tracer.spans[sample].parent == -1
    values = tracer.summary(["round0"])["round0"]
    assert values["envs.step_batch.calls"] == 5
    assert values["rollouts.rollout_episodes.transitions"] == 15
    assert values["root_s"] == pytest.approx(
        tracer.spans[sample].end - tracer.spans[sample].start)


def test_graph_nodes_are_counted_by_walking_parents():
    leaf = types.SimpleNamespace(parents=())
    mid = types.SimpleNamespace(parents=(leaf, leaf))
    root = types.SimpleNamespace(parents=(mid, leaf))
    assert tracing._graph_nodes(root) == 3


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = tracing.LAYER_METRICS + run.TRACE_METRICS
    assert list(layer) == list(expected)
    assert all(layer[m] == tracing.unit(m) for m in expected)
    import pipeline

    assert [w["name"] for w in spec["workloads"]] == list(pipeline.WORKLOADS)
