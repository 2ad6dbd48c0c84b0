"""Spans and counters recorded around cfcql_lab's public functions.

The tracer replaces each target function with a wrapper wherever callers
look it up: the attribute of its home module, every other ``cfcql_lab``
module that imported the same object by name, or the class for a method.
Spans stay in memory (one tuple per call) and are written out once at the
end. Span times are CPU seconds of the process, like the phase times. Counts are taken at the same boundaries, from the call's arguments and
result, after the span has closed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from time import process_time
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    segment: str  # "setup" or "round<k>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root span
    outermost: bool  # no enclosing span of the same name


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _bound(fn, args, kwargs, name):
    """The value of parameter ``name`` in a call of ``fn``, defaults applied."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Count functions get (original, args, kwargs, result) and return {counter: amount}.

def _count_rows(fn, args, kwargs, result):
    return {"envs.per_agent_features.rows": result.shape[0]}


def _count_calls(name):
    return lambda fn, args, kwargs, result: {name: 1}


def _count_transitions(fn, args, kwargs, result):
    return {"rollouts.rollout_episodes.transitions": result.rewards.size}


def _count_online(fn, args, kwargs, result):
    return {
        "datagen.online_updates": result.expert.training_steps,
        "datagen.checkpoints": len(result.checkpoints),
        "datagen.medium_update.sum": result.medium.training_steps,
        "datagen.medium_update.n": 1,
    }


def _count_bytes(fn, args, kwargs, result):
    return {"core.save_dataset.bytes": os.path.getsize(_bound(fn, args, kwargs, "path"))}


def _count_steps(fn, args, kwargs, result):
    return {f"learner.steps.{_bound(fn, args, kwargs, 'method')}": len(result.losses)}


def _count_bc(fn, args, kwargs, result):
    return {"neural.bc_steps": _bound(fn, args, kwargs, "steps")}


# A walk costs about 4% of a backward pass (73 nodes: 18 us against 450 us
# for toy n=4 cfcql) and lands in the caller's self time, so only every 16th
# backward is walked.
GRAPH_SAMPLE_EVERY = 16


class _GraphCounter:
    """Backward calls, plus graph nodes on every GRAPH_SAMPLE_EVERY-th call."""

    def __init__(self):
        self.calls = 0

    def __call__(self, fn, args, kwargs, result):
        self.calls += 1
        out = {"autodiff.backward.calls": 1}
        if self.calls % GRAPH_SAMPLE_EVERY == 1:
            out["autodiff.graph_nodes.sum"] = _graph_nodes(args[0])
            out["autodiff.graph_nodes.n"] = 1
        return out


def _graph_nodes(root) -> int:
    seen, todo = {id(root)}, [root]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def _sweep_bytes(model, policy_eval: bool) -> int:
    """Bytes one sweep reads and writes, computed from the array sizes.

    A sweep reads Q and the base term (plus the joint policy in policy
    evaluation), gathers through next_states/next_probs, and writes Q.
    """
    table = model.rewards.nbytes
    tables = 4 if policy_eval else 3
    return tables * table + model.next_states.nbytes + model.next_probs.nbytes


def _count_sweeps(policy_eval: bool):
    def count(fn, args, kwargs, result):
        iterations = result[2].iterations
        return {"tabular.sweeps": iterations,
                "tabular.sweep_bytes": iterations * _sweep_bytes(args[0], policy_eval)}
    return count


@dataclass(frozen=True)
class Target:
    name: str  # span name
    module: str
    attr: str  # "function" or "Class.method"
    count: Optional[Callable] = None


def targets() -> list:
    """The traced functions of every cfcql_lab layer (fresh counters each call)."""
    sweeps = _count_sweeps(policy_eval=True)
    return [
        Target("envs.step_batch", "cfcql_lab.envs", "ToyMMDP.step_batch",
               _count_calls("envs.step_batch.calls")),
        Target("envs.step_batch", "cfcql_lab.envs", "EqualLine.step_batch",
               _count_calls("envs.step_batch.calls")),
        Target("envs.per_agent_features", "cfcql_lab.envs", "ToyMMDP.per_agent_features",
               _count_rows),
        Target("envs.per_agent_features", "cfcql_lab.envs", "EqualLine.per_agent_features",
               _count_rows),
        Target("envs.exact_model", "cfcql_lab.envs", "ToyMMDP.exact_model"),
        Target("rollouts.rollout_episodes", "cfcql_lab.rollouts", "rollout_episodes",
               _count_transitions),
        Target("datagen.train_online", "cfcql_lab.datagen", "train_online", _count_online),
        Target("datagen.sample_dataset", "cfcql_lab.datagen", "sample_dataset"),
        Target("datagen.make_replay_dataset", "cfcql_lab.datagen", "make_replay_dataset"),
        Target("datagen.mix", "cfcql_lab.datagen", "mix"),
        Target("core.validate_dataset", "cfcql_lab.core", "validate_dataset"),
        Target("core.save_dataset", "cfcql_lab.core", "save_dataset", _count_bytes),
        Target("core.load_dataset", "cfcql_lab.core", "load_dataset"),
        Target("core.empirical_behavior", "cfcql_lab.core", "empirical_behavior"),
        Target("learner.train_offline", "cfcql_lab.learner", "train_offline", _count_steps),
        Target("learner.cfcql_loss", "cfcql_lab.learner", "cfcql_loss"),
        Target("learner.macql_loss", "cfcql_lab.learner", "macql_loss"),
        Target("learner.td_targets", "cfcql_lab.learner", "td_targets"),
        Target("learner.batch_lambda", "cfcql_lab.learner", "batch_lambda"),
        Target("learner.evaluate_policy", "cfcql_lab.learner", "evaluate_policy"),
        Target("autodiff.backward", "cfcql_lab.autodiff", "backward", _GraphCounter()),
        Target("neural.Adam.step", "cfcql_lab.neural", "Adam.step"),
        Target("neural.train_bc", "cfcql_lab.neural", "train_bc", _count_bc),
        Target("tabular.value_iteration", "cfcql_lab.tabular", "value_iteration",
               _count_sweeps(policy_eval=False)),
        Target("tabular.exact_policy_eval", "cfcql_lab.tabular", "exact_policy_eval", sweeps),
        Target("tabular.cfcql_fixed_point", "cfcql_lab.tabular", "cfcql_fixed_point", sweeps),
        Target("tabular.macql_fixed_point", "cfcql_lab.tabular", "macql_fixed_point", sweeps),
        Target("tabular.empirical_model", "cfcql_lab.tabular", "empirical_model"),
        Target("divergence.d_cf_cql", "cfcql_lab.divergence", "d_cf_cql"),
        Target("divergence.d_cql", "cfcql_lab.divergence", "d_cql"),
    ]


# Per-layer metrics: "<span>.s" is the time in outermost spans of that name,
# "<span>.self_s" the self time, anything else a counter; MEANS divide a
# counter's ".sum" by its ".n".
LAYER_METRICS = (
    "envs.step_batch.calls", "envs.step_batch.s",
    "envs.per_agent_features.rows", "envs.per_agent_features.s", "envs.exact_model.s",
    "rollouts.rollout_episodes.transitions", "rollouts.rollout_episodes.self_s",
    "datagen.train_online.self_s", "datagen.online_updates", "datagen.checkpoints",
    "datagen.medium_update", "datagen.sample_dataset.self_s",
    "datagen.make_replay_dataset.s", "datagen.mix.s",
    "core.validate_dataset.s", "core.save_dataset.s", "core.save_dataset.bytes",
    "core.load_dataset.s", "core.empirical_behavior.s",
    "learner.steps.cfcql", "learner.steps.macql", "learner.steps.naive",
    "learner.cfcql_loss.self_s", "learner.macql_loss.self_s", "learner.td_targets.s",
    "learner.batch_lambda.s", "learner.evaluate_policy.s", "learner.train_offline.self_s",
    "autodiff.backward.s", "autodiff.backward.calls", "autodiff.graph_nodes",
    "neural.Adam.step.s", "neural.train_bc.s", "neural.bc_steps",
    "tabular.value_iteration.s", "tabular.exact_policy_eval.s",
    "tabular.cfcql_fixed_point.s", "tabular.macql_fixed_point.s", "tabular.sweeps",
    "tabular.sweep_bytes", "tabular.empirical_model.s",
    "divergence.d_cf_cql.s", "divergence.d_cql.s",
)
MEANS = ("datagen.medium_update", "autodiff.graph_nodes")
# Work that only set-up does: reported from the traced set-up, not the rounds.
SETUP_METRICS = ("envs.exact_model.s",)


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "B" if metric.endswith("bytes") else "count"


class Tracer:
    """Installs wrappers around ``targets()``; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(lambda: defaultdict(float))  # segment -> counter -> value
        self.segment = "setup"
        self.missing: list = []  # targets absent from this version of cfcql_lab
        self._stack: list = []
        self._depth = defaultdict(int)
        self._patched: list = []  # (owner, attr, original, owner had its own attr)

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        for target in targets():
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "cfcql_lab" or name.startswith("cfcql_lab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: Target, original):
        tracer, name, count = self, target.name, target.count

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            outermost = tracer._depth[name] == 0
            spans.append(None)
            stack.append(index)
            tracer._depth[name] += 1
            start = process_time()
            try:
                result = original(*args, **kwargs)
            finally:
                end = process_time()
                stack.pop()
                tracer._depth[name] -= 1
                spans[index] = Span(name, tracer.segment, start, end, parent, outermost)
            if count is not None:
                counters = tracer.counts[tracer.segment]
                for key, amount in count(original, args, kwargs, result).items():
                    counters[key] += amount
            return result

        return traced

    # -- results -----------------------------------------------------------------

    def summary(self, segments) -> dict:
        """segment -> every LAYER_METRICS value, plus "root_s" (time in root
        spans) and "spans" (span count)."""
        selfs = self_times(self.spans)
        total = {seg: defaultdict(float) for seg in segments}
        own = {seg: defaultdict(float) for seg in segments}
        out = {seg: {"root_s": 0.0, "spans": 0.0} for seg in segments}
        for span, span_self in zip(self.spans, selfs):
            if span.segment not in out:
                continue
            seg = span.segment
            duration = span.end - span.start
            if span.outermost:
                total[seg][span.name] += duration
            own[seg][span.name] += span_self
            if span.parent < 0:
                out[seg]["root_s"] += duration
            out[seg]["spans"] += 1
        for seg in segments:
            counts = self.counts[seg]
            for metric in LAYER_METRICS:
                if metric in MEANS:
                    n = counts.get(f"{metric}.n", 0.0)
                    value = counts.get(f"{metric}.sum", 0.0) / n if n else 0.0
                elif metric.endswith(".self_s"):
                    value = own[seg][metric[:-len(".self_s")]]
                elif metric.endswith(".s"):
                    value = total[seg][metric[:-len(".s")]]
                else:
                    value = float(counts.get(metric, 0.0))
                out[seg][metric] = value
        return out

    def write(self, path) -> None:
        """All spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tsegment\tstart\tend\tparent\n")
            for s in self.spans:
                fh.write(f"{s.name}\t{s.segment}\t{s.start!r}\t{s.end!r}\t{s.parent}\n")


def layer_metrics(summary: dict, rounds: list) -> dict:
    """Median over traced rounds; SETUP_METRICS come from the traced set-up."""
    return {
        m: summary["setup"][m] if m in SETUP_METRICS else median(summary[r][m] for r in rounds)
        for m in LAYER_METRICS
    }
