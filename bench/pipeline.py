"""The paper's agent-count pipeline, driven through cfcql_lab's public functions.

A workload is a batch job in one process. One *round* runs every phase of the
workload once over its whole n range, each phase starting when the previous
one ends (a closed loop with one caller, no worker threads or processes).
``run.py`` repeats rounds and reports medians.

Phases:
  gen    produce every input dataset and save it to disk
  train  load the training tier, estimate behaviour, train, evaluate in-loop
  score  exact evaluation of each learned tabular policy (toy-sweep)
  solve  load the tier, estimate beta and the model, run the exact solvers
         and the per-state divergences (oracle)
  load   every ``load_dataset`` call, wherever it happens (part of the above)

Only the failures the paper's pipeline can legitimately raise are counted as
failed operations (``FAILURES``); anything else is a defect and propagates.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import process_time

import numpy as np

from cfcql_lab import core, datagen, divergence, envs, learner, tabular

FAILURES = (
    datagen.MediumThresholdError,
    FloatingPointError,
    tabular.ConvergenceError,
    divergence.SupportError,
)
METHODS = ("cfcql", "macql", "naive")


@dataclass(frozen=True)
class Sweep:
    """Generate every tier, then train the three methods, for each n."""

    env: str  # "toy" | "line"
    ns: tuple
    online_budget: int  # train_online updates per n
    n_traj: dict  # trajectories per sampled tier
    train_steps: int
    record_interval: int  # in-loop evaluation every this many steps
    eval_episodes: int
    bc_steps: int  # neural softmax lambda needs a BC model of beta

    def configs(self) -> dict:
        return {
            "online": datagen.OnlineTrainConfig(budget=self.online_budget),
            "train": learner.TrainConfig(
                total_steps=self.train_steps, record_interval=self.record_interval,
                eval_episodes=self.eval_episodes, bc_steps=self.bc_steps,
            ),
        }


@dataclass(frozen=True)
class Oracle:
    """One large random tier per n, reloaded and solved exactly."""

    ns: tuple
    n_traj: int
    alpha: float = 1.0
    smoothing: float = 1.0  # Laplace counts keep beta > 0 wherever pi* acts
    env: str = "toy"


WORKLOADS = {
    # The tabular learner spends its time building and reversing small
    # autodiff graphs (about 60 tensors a step; cfcql's graph grows with n),
    # so this workload shows any change to autodiff or learner overhead while
    # solvers and I/O stay small. n crosses 3 -> 4, where macql stops
    # enumerating joint actions (27 <= 32 samples) and starts sampling (81).
    # n stops at 5: exact scoring of three policies at n = 6 would cost more
    # than the training it scores.
    "toy-sweep": Sweep(
        env="toy", ns=(2, 3, 4, 5), online_budget=1000,
        n_traj={"random": 100, "medium": 200, "expert": 200},
        train_steps=400, record_interval=200, eval_episodes=16, bc_steps=0,
    ),
    # Time goes to arithmetic (GroupedMlp matmuls), the per-agent loop in
    # per_agent_features, and online training, which dominates gen. Float
    # states make the tiers about 12x larger on disk than the toy tiers, so
    # the dataset write path (Transitions, validate_dataset, save_dataset) is
    # heavy. No exact solver runs. n stops at 4 so that two rounds fit in a
    # run; 700 online updates reached the medium threshold for 80 of 80 seeds
    # at n = 3 and 4.
    "line-sweep": Sweep(
        env="line", ns=(3, 4), online_budget=700,
        n_traj={"random": 50, "medium": 100, "expert": 100},
        train_steps=200, record_interval=100, eval_episodes=16, bc_steps=200,
    ),
    # The S x |A|^n solver sweeps dominate and no autodiff runs. The dataset
    # layer is a reader here (the scans in empirical_behavior and
    # empirical_model), not a writer, so a dataset change that speeds writes
    # but slows reads shows here. n = 7 would take about 24 s per solver.
    "oracle": Oracle(ns=(4, 5, 6), n_traj=2000),
}


@dataclass
class Context:
    """Everything built during set-up: environments, exact models, configs."""

    spec: object
    envs: dict
    models: dict
    configs: dict


def build(name: str) -> Context:
    """Set-up: build the envs, configs and (toy) exact models of a workload."""
    spec = WORKLOADS[name]
    make = envs.ToyMMDP if spec.env == "toy" else envs.EqualLine
    built = {n: make(n) for n in spec.ns}
    models = {n: env.exact_model() for n, env in built.items()} if spec.env == "toy" else {}
    configs = spec.configs() if isinstance(spec, Sweep) else {}
    return Context(spec, built, models, configs)


class Ledger:
    """Phase times, attempted and failed operations, and failure messages.

    Times are CPU seconds of this process: the workload is single-threaded,
    and on a shared machine wall time mostly measures the other tenants.
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, phase: str, fn, *args):
        """Time ``fn(*args)`` as one operation of ``phase``; None when it fails."""
        self.attempted += 1
        start = process_time()
        try:
            return fn(*args)
        except FAILURES as exc:
            self.failed += 1
            self.errors.append(f"{phase}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds[phase] += process_time() - start

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {label}")

    def load(self, path: Path):
        start = process_time()
        try:
            return core.load_dataset(path)
        finally:
            self.seconds["load"] += process_time() - start


def same_data(a, b) -> bool:
    """Exact equality of two datasets or any values they are built from.

    Arrays compare by dtype, shape and bytes; dataclasses field by field;
    everything else by type and ``==``.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(same_data(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return bool(a == b)


def run_round(ctx: Context, seed: int, workdir: Path, ledger: Ledger) -> dict:
    """One pass over the workload's n range; returns the paper outputs."""
    outputs = {}
    if isinstance(ctx.spec, Sweep):
        for n in ctx.spec.ns:
            _sweep_n(ctx, n, core.RngStream(seed, f"n{n}"), workdir, ledger, outputs)
    else:
        for n in ctx.spec.ns:
            _oracle_n(ctx, n, core.RngStream(seed, f"n{n}"), workdir, ledger, outputs)
        _check_gap_scaling(ctx.spec.ns, outputs, ledger)
    return outputs


# ---------------------------------------------------------------------------
# toy-sweep and line-sweep
# ---------------------------------------------------------------------------


def _generate_tiers(ctx: Context, env, rng: core.RngStream, workdir: Path) -> dict:
    spec = ctx.spec
    online = datagen.train_online(env, spec.online_budget, rng.child("online"),
                                  ctx.configs["online"])
    tiers = {
        "random": datagen.random_dataset(env, spec.n_traj["random"], rng.child("random")),
        "medium": datagen.sample_dataset(env, online.medium, spec.n_traj["medium"],
                                         rng.child("medium"), tier=core.Tier.MEDIUM),
        "expert": datagen.sample_dataset(env, online.expert, spec.n_traj["expert"],
                                         rng.child("expert"), tier=core.Tier.EXPERT),
        "medium_replay": datagen.make_replay_dataset(env, online),
    }
    tiers["mixed"] = datagen.mix(tiers["medium"], tiers["expert"], rng.child("mixed"))
    saved = {}
    for tier, dataset in tiers.items():
        path = workdir / f"{spec.env}-n{env.n_agents}-{tier}.txt"
        core.save_dataset(dataset, path)
        saved[tier] = (dataset, path)
    return saved


def _train(ledger: Ledger, path: Path, config, method: str, refs):
    return learner.train_offline(config, ledger.load(path), method, refs)


def _q_gap(model, result) -> float:
    """Mean over states of the learned greedy Q_tot minus its exact value."""
    _, v_exact, _ = tabular.exact_policy_eval(model, result.policy)
    values = result.q.values(np.arange(model.n_states)).data
    q_tot = result.q.mix(values.max(axis=2)).data
    return float(np.mean(q_tot - v_exact))


def _sweep_n(ctx, n, rng, workdir, ledger, outputs) -> None:
    env = ctx.envs[n]
    tiers = ledger.run("gen", _generate_tiers, ctx, env, rng, workdir)
    if tiers is None:
        return
    for tier, (dataset, path) in tiers.items():
        ledger.check(f"n{n} {tier} round trip", same_data(ledger.load(path), dataset))
    refs = learner.ScoreRefs(
        random_score=float(tiers["random"][0].trajectory_returns().mean()),
        expert_score=float(tiers["expert"][0].trajectory_returns().mean()),
    )
    config = dataclasses.replace(ctx.configs["train"],
                                 seed=int(rng.child("train").generator().integers(2**31)))
    mixed_path = tiers["mixed"][1]
    for method in METHODS:
        result = ledger.run(f"train.{method}", _train, ledger, mixed_path, config, method, refs)
        if result is None:
            continue
        ledger.check(f"n{n} {method} losses finite", bool(np.all(np.isfinite(result.losses))))
        outputs[f"normalized_score.{method}.n{n}"] = result.metrics[-1]["normalized_score"]
        if n in ctx.models:
            gap = ledger.run("score", _q_gap, ctx.models[n], result)
            if gap is not None:
                outputs[f"q_gap.{method}.n{n}"] = gap


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _generate_random(env, n_traj: int, rng: core.RngStream, path: Path):
    dataset = datagen.random_dataset(env, n_traj, rng.child("random"))
    core.save_dataset(dataset, path)
    return dataset


@dataclass
class Solved:
    loaded: object
    model: object  # empirical model
    v_star: np.ndarray
    v_pi: np.ndarray
    v_cfcql: np.ndarray
    v_macql: np.ndarray
    d_cf: np.ndarray  # per state
    d_cql: np.ndarray


def _solve(ledger: Ledger, spec: Oracle, n_states: int, path: Path) -> Solved:
    loaded = ledger.load(path)
    beta = core.empirical_behavior(loaded, smoothing=spec.smoothing)
    model = tabular.empirical_model(loaded, loaded.header.spec)
    q_star, v_star, _ = tabular.value_iteration(model)
    pi_star = tabular.greedy_policy_from_q(model, q_star)
    _, v_pi, _ = tabular.exact_policy_eval(model, pi_star)
    lam = divergence.lambda_uniform(model.n_agents)
    _, v_cfcql, _ = tabular.cfcql_fixed_point(model, pi_star, beta, lam, spec.alpha)
    _, v_macql, _ = tabular.macql_fixed_point(model, pi_star, beta, spec.alpha)
    d_cf = np.array([divergence.d_cf_cql(pi_star, beta, lam, s) for s in range(n_states)])
    d_cql = np.array([divergence.d_cql(pi_star, beta, s) for s in range(n_states)])
    return Solved(loaded, model, v_star, v_pi, v_cfcql, v_macql, d_cf, d_cql)


def _oracle_n(ctx, n, rng, workdir, ledger, outputs) -> None:
    spec, env, exact = ctx.spec, ctx.envs[n], ctx.models[n]
    path = workdir / f"toy-n{n}-random.txt"
    dataset = ledger.run("gen", _generate_random, env, spec.n_traj, rng, path)
    if dataset is None:
        return
    solved = ledger.run("solve", _solve, ledger, spec, exact.n_states, path)
    if solved is None:
        return
    ledger.check(f"n{n} random round trip", same_data(solved.loaded, dataset))
    # Toy dynamics are deterministic, so the empirical model must equal the
    # exact one on every visited (state, joint action).
    seen = ~solved.model.unseen_mask
    probe = np.random.default_rng(0).random(exact.n_states)
    ledger.check(f"n{n} empirical model matches exact model on seen pairs",
                 np.allclose(solved.model.rewards[seen], exact.rewards[seen], rtol=0, atol=1e-12)
                 and np.allclose(solved.model.expected_next_values(probe)[seen],
                                 exact.expected_next_values(probe)[seen], rtol=0, atol=1e-12))
    # Each solver stops at a sup-norm Q residual <= tol, so each value is
    # within gamma * tol / (1 - gamma) of its fixed point.
    slack = 2.0 * exact.gamma * tabular.DEFAULT_TOL / (1.0 - exact.gamma)
    ledger.check(f"n{n} value_iteration agrees with exact_policy_eval(pi*)",
                 float(np.max(np.abs(solved.v_star - solved.v_pi))) <= slack)
    # E_pi[pi_i / beta_i] >= 1 for any pi and beta, so both penalties are >= 0.
    ledger.check(f"n{n} cfcql value <= V^pi", bool(np.all(solved.v_cfcql <= solved.v_pi + slack)))
    ledger.check(f"n{n} macql value <= V^pi", bool(np.all(solved.v_macql <= solved.v_pi + slack)))
    outputs[f"gap.cfcql.n{n}"] = float(np.mean(solved.v_pi - solved.v_cfcql))
    outputs[f"gap.macql.n{n}"] = float(np.mean(solved.v_pi - solved.v_macql))
    outputs[f"d_cf.mean.n{n}"] = float(solved.d_cf.mean())
    outputs[f"d_cql.mean.n{n}"] = float(solved.d_cql.mean())


# The paper's scaling claim: the joint (macql) gap grows with n while the
# counterfactual (cfcql) gap stays within a small factor of itself.
CFCQL_GAP_FACTOR = 1.5


def _check_gap_scaling(ns, outputs: dict, ledger: Ledger) -> None:
    macql = [outputs.get(f"gap.macql.n{n}") for n in ns]
    cfcql = [outputs.get(f"gap.cfcql.n{n}") for n in ns]
    if None in macql or None in cfcql:
        return  # a failed solve is already counted
    ledger.check("macql gap grows with n", all(a < b for a, b in zip(macql, macql[1:])))
    ledger.check("cfcql gap stays within a small factor",
                 min(cfcql) > 0 and max(cfcql) / min(cfcql) <= CFCQL_GAP_FACTOR)
