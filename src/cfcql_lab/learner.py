"""Practical offline training loop with factored Q functions.

Three methods share one TD backbone:
  - cfcql: per-agent counterfactual logsumexp penalty, weighted by lambda
  - macql: joint-action logsumexp penalty estimated from sampled joints
  - naive: plain TD (the penalty switched off)

Execution is decentralized: both mixers are monotone in every per-agent value,
so the joint greedy action is the tuple of per-agent argmaxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import (
    Dataset,
    FactoredPolicy,
    RngStream,
    empirical_behavior,
    greedy_policy_from_actions,
)
from .divergence import onehot_from_scores, softmax_from_scores
from .envs import all_joint_actions, make_env
from .neural import Adam, GroupedMlp, softmax, train_bc
from .rollouts import QValuesActor, evaluate_actor

METHODS = ("cfcql", "macql", "naive")


@dataclass
class TrainConfig:
    """Offline training settings.

    gamma is the dataset spec's, so the learner and the exact oracles
    (``tabular``) discount alike. Timeouts always bootstrap: both in-repo
    environments end by time limit only, so no transition is terminal.
    """

    alpha: float = 1.0
    tau: float = 1.0
    lambda_mode: str = "softmax"  # uniform | onehot | softmax
    lambda_form: str = "kl"  # kl | ratio (softmax mode only)
    batch_size: int = 64
    target_interval: int = 100
    total_steps: int = 10_000
    cql_joint_samples: int = 32  # macql only
    seed: int = 0
    lr: float = 1e-3
    hidden: tuple = (64, 64)
    mixer: str = "additive"  # additive | monotonic
    eval_episodes: int = 16
    record_interval: int = 250
    metric_subsample: int = 4096
    behavior_smoothing: float = 1.0
    bc_steps: int = 3000

    def __post_init__(self):
        if self.batch_size < 1 or self.target_interval < 1 or self.total_steps < 1:
            raise ValueError("batch size, target interval, and total steps must be positive")
        if self.lambda_mode not in ("uniform", "onehot", "softmax"):
            raise ValueError(f"unknown lambda mode {self.lambda_mode!r}")
        if self.mixer not in ("additive", "monotonic"):
            raise ValueError(f"unknown mixer {self.mixer!r}")
        if self.alpha < 0 or self.tau < 0:
            raise ValueError("alpha and tau must be >= 0")
        if self.cql_joint_samples < 1:
            raise ValueError("cql_joint_samples must be >= 1")


# ---------------------------------------------------------------------------
# Factored Q functions.
# ---------------------------------------------------------------------------


class MonotonicMixer:
    """Small monotone network on per-agent chosen values.

    Weights enter through abs(), so dQ_tot/dQ_i >= 0 and the
    individual-global-max property is preserved.
    """

    def __init__(self, n_agents: int, hidden: int = 16, rng: Optional[np.random.Generator] = None):
        scale = 1.0 / np.sqrt(n_agents)
        if rng is None:
            w1 = np.full((n_agents, hidden), scale)
            w2 = np.full((hidden, 1), 1.0 / hidden)
        else:
            w1 = np.abs(rng.normal(0.0, scale, size=(n_agents, hidden)))
            w2 = np.abs(rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, 1)))
        self.w1 = ad.parameter(w1)
        self.b1 = ad.parameter(np.zeros(hidden))
        self.w2 = ad.parameter(w2)
        self.b2 = ad.parameter(np.zeros(1))

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def mix(self, chosen: Tensor) -> Tensor:
        h = ad.elu(ad.matmul(chosen, ad.absolute(self.w1)) + self.b1)
        out = ad.matmul(h, ad.absolute(self.w2)) + self.b2
        return ad.reshape(out, out.shape[:-1])


class FactoredQ:
    """Per-agent action values plus a mixer producing Q_tot(s, a).

    ``inputs`` are integer state ids in tabular mode and per-agent feature
    arrays (batch, n_agents, d) in neural mode.
    """

    def __init__(self, n_agents: int, n_actions: int, mode: str,
                 n_states: Optional[int] = None, feature_dim: Optional[int] = None,
                 hidden: tuple = (64, 64), mixer: str = "additive",
                 rng: Optional[np.random.Generator] = None):
        self.n_agents = n_agents
        self.n_actions = n_actions
        self.mode = mode
        self.hidden = tuple(hidden)
        self.n_states = n_states
        self.feature_dim = feature_dim
        self.mixer_kind = mixer
        if mode == "tabular":
            if n_states is None:
                raise ValueError("tabular mode needs n_states")
            self.table = ad.parameter(np.zeros((n_states, n_agents * n_actions)))
            self.net = None
        elif mode == "neural":
            if feature_dim is None:
                raise ValueError("neural mode needs feature_dim")
            self.table = None
            self.net = GroupedMlp(n_agents, (feature_dim, *self.hidden, n_actions), rng)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.mixer = MonotonicMixer(n_agents, rng=rng) if mixer == "monotonic" else None

    def parameters(self):
        params = [self.table] if self.table is not None else self.net.parameters()
        if self.mixer is not None:
            params = params + self.mixer.parameters()
        return params

    def values(self, inputs) -> Tensor:
        if self.mode == "tabular":
            rows = ad.take_rows(self.table, inputs)
            return ad.reshape(rows, (len(inputs), self.n_agents, self.n_actions))
        return self.net.forward(inputs)

    def mix(self, chosen: Tensor) -> Tensor:
        if self.mixer is None:
            return ad.tsum(chosen, axis=-1)
        return self.mixer.mix(chosen)

    def q_tot_data(self, values: Tensor, actions: np.ndarray) -> Tensor:
        chosen = ad.gather_last(values, actions[:, :, None])
        return self.mix(ad.reshape(chosen, actions.shape))

    def copy(self) -> "FactoredQ":
        clone = FactoredQ(
            self.n_agents, self.n_actions, self.mode,
            n_states=self.n_states, feature_dim=self.feature_dim,
            hidden=self.hidden, mixer=self.mixer_kind,
        )
        for dst, src in zip(clone.parameters(), self.parameters()):
            dst.data = src.data.copy()
        return clone


# ---------------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    inputs: np.ndarray  # state ids (B,) or features (B, n, d)
    actions: np.ndarray  # (B, n)
    rewards: np.ndarray  # (B,)
    next_inputs: np.ndarray
    beta_probs: Optional[np.ndarray] = None  # (B, n, A)

    def __len__(self):
        return len(self.actions)


@ad.no_grad()
def td_targets(q_target: FactoredQ, batch: Batch, gamma: float) -> np.ndarray:
    """Optimality backup through the target network (no gradient); every
    next state bootstraps, since episodes end by time limit only."""
    next_values = q_target.values(batch.next_inputs).data
    next_tot = q_target.mix(next_values.max(axis=2)).data
    return batch.rewards + gamma * next_tot


def counterfactual_rows(q: FactoredQ, values: Tensor, actions: np.ndarray) -> Tensor:
    """(B, n, A) Q_tot rows: row (b, i) varies agent i's action, the others
    held at ``actions``."""
    b, n = actions.shape
    chosen = ad.reshape(ad.gather_last(values, actions[:, :, None]), actions.shape)
    if q.mixer is None:
        others = ad.tsum(chosen, axis=1, keepdims=True) - chosen  # (B, n)
        return values + ad.reshape(others, (b, n, 1))
    # input[b, i, a, j] = values[b, i, a] if j == i else chosen[b, j]
    own = np.eye(n)[None, :, None, :]
    joint = (ad.reshape(values, (b, n, q.n_actions, 1)) * own
             + ad.reshape(chosen, (b, 1, 1, n)) * (1.0 - own))
    return q.mixer.mix(joint)


def cfcql_loss(batch: Batch, q: FactoredQ, q_target: FactoredQ, lam: Optional[np.ndarray],
               alpha: float, gamma: float):
    """Counterfactual conservative loss; ``alpha=0`` reduces to plain TD.

    The other agents' actions in the penalty come from the sampled transition
    (one draw from the behavior policy). ``lam=None`` weighs agents uniformly.
    """
    values = q.values(batch.inputs)
    q_data = q.q_tot_data(values, batch.actions)
    y = td_targets(q_target, batch, gamma)
    td = ad.mul(ad.tmean(ad.square(q_data - y)), 0.5)
    stats = {"mean_data_q": float(q_data.data.mean())}
    if alpha == 0.0:
        stats.update(td=float(td.data), penalty=0.0)
        return td, stats

    if lam is None:
        lam = np.full((len(batch), q.n_agents), 1.0 / q.n_agents)
    lse = ad.logsumexp_t(counterfactual_rows(q, values, batch.actions), axis=-1)  # (B, n)
    penalty_terms = ad.tsum(ad.mul(ad.Tensor(lam), lse), axis=1) - q_data
    penalty = ad.mul(ad.tmean(penalty_terms), alpha)
    loss = penalty + td
    stats.update(td=float(td.data), penalty=float(penalty.data))
    return loss, stats


def macql_loss(batch: Batch, q: FactoredQ, q_target: FactoredQ, alpha: float,
               n_samples: int, rng: Optional[np.random.Generator], gamma: float):
    """Joint-ratio conservative loss with sampled-joint logsumexp.

    With ``n_samples >= |A|^n`` the joint space is enumerated exactly;
    otherwise the estimator is logsumexp over uniform joints plus the
    importance constant log(|A|^n / N).
    """
    values = q.values(batch.inputs)
    q_data = q.q_tot_data(values, batch.actions)
    y = td_targets(q_target, batch, gamma)
    td = ad.mul(ad.tmean(ad.square(q_data - y)), 0.5)
    stats = {"mean_data_q": float(q_data.data.mean())}
    if alpha == 0.0:
        stats.update(td=float(td.data), penalty=0.0)
        return td, stats

    b = len(batch)
    n_joint = q.n_actions**q.n_agents
    if n_samples >= n_joint:
        joints = all_joint_actions(q.n_agents, q.n_actions)  # (K, n)
        sampled = np.broadcast_to(joints[None, :, :], (b, n_joint, q.n_agents))
        log_const = 0.0
    else:
        if rng is None:
            raise ValueError("sampled joint actions need an rng")
        sampled = rng.integers(0, q.n_actions, size=(b, n_samples, q.n_agents))
        log_const = q.n_agents * np.log(q.n_actions) - np.log(n_samples)
    per_agent = [
        ad.gather_last(ad.select(values, i, axis=1), sampled[:, :, i])
        for i in range(q.n_agents)
    ]
    q_rows = q.mix(ad.stack(per_agent, axis=2))  # (B, K)
    est = ad.logsumexp_t(q_rows, axis=-1)
    if log_const != 0.0:
        est = est + log_const
    penalty = ad.mul(ad.tmean(est - q_data), alpha)
    loss = penalty + td
    stats.update(td=float(td.data), penalty=float(penalty.data))
    return loss, stats


# ---------------------------------------------------------------------------
# Lambda weights per batch (Boltzmann policy against estimated behavior).
# ---------------------------------------------------------------------------


@ad.no_grad()
def batch_lambda(q: FactoredQ, batch: Batch, mode: str, tau: float,
                 form: str = "kl") -> np.ndarray:
    if mode == "uniform" or q.n_agents == 1:
        return np.full((len(batch), q.n_agents), 1.0 / q.n_agents)
    rows = counterfactual_rows(q, q.values(batch.inputs), batch.actions).data
    pi = softmax(rows, axis=-1)  # Boltzmann policy per agent, temperature 1
    beta = np.clip(batch.beta_probs, 1e-12, None)
    if mode == "onehot" or form == "ratio":
        scores = (pi * pi / beta).sum(axis=2)
        if mode == "onehot":
            return onehot_from_scores(scores)
        return softmax_from_scores(scores, tau, "ratio")
    kl = (pi * (np.log(np.clip(pi, 1e-300, None)) - np.log(beta))).sum(axis=2)
    return softmax_from_scores(kl, tau, "kl")


# ---------------------------------------------------------------------------
# Offline training.
# ---------------------------------------------------------------------------


@dataclass
class ScoreRefs:
    random_score: float
    expert_score: float


@dataclass
class EvalResult:
    mean_return: float
    std: float
    normalized_score: Optional[float] = None


@dataclass
class TrainResult:
    q: FactoredQ
    actor: QValuesActor
    metrics: list
    policy: Optional[FactoredPolicy] = None  # materialized in tabular mode
    losses: Optional[np.ndarray] = None


def normalized_score(score: float, refs: Optional[ScoreRefs]) -> Optional[float]:
    if refs is None:
        return None
    return 100.0 * (score - refs.random_score) / (refs.expert_score - refs.random_score)


def evaluate_policy(env, actor, episodes: int, rng: np.random.Generator,
                    refs: Optional[ScoreRefs] = None) -> EvalResult:
    mean, std = evaluate_actor(env, actor, episodes, rng)
    return EvalResult(mean, std, normalized_score(mean, refs))


def _behavior_probs(dataset: Dataset, env, mode: str, inputs,
                    config: TrainConfig, rng_stream: RngStream) -> np.ndarray:
    """(N, n, A) estimated behavior probabilities at every data state."""
    spec = dataset.header.spec
    if mode == "tabular":
        beta = empirical_behavior(dataset, smoothing=config.behavior_smoothing)
        return np.swapaxes(beta.dense(env.n_states)[:, dataset.states], 0, 1)
    bc = train_bc(inputs, dataset.actions, spec.n_actions, rng_stream.generator(),
                  hidden=config.hidden, steps=config.bc_steps)
    return bc.probs(inputs)


def make_greedy_actor(q: FactoredQ, env, mode: str) -> QValuesActor:
    @ad.no_grad()
    def values(raw):
        inputs = env.encode_batch(raw) if mode == "tabular" else env.per_agent_features(raw)
        return q.values(inputs).data

    return QValuesActor(values)


def train_offline(config: TrainConfig, dataset: Dataset, method: str,
                  refs: Optional[ScoreRefs] = None) -> TrainResult:
    """Run the full offline loop and return the greedy policy plus metrics."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    spec = dataset.header.spec
    env = make_env(spec)
    mode = "tabular" if spec.state_kind == "discrete" else "neural"
    # the stream label is method-independent: seeded runs of methods that
    # coincide mathematically (e.g. single-agent) must coincide bit-for-bit
    root = RngStream(config.seed, "offline-train")

    if mode == "tabular":
        inputs, next_inputs = dataset.states, dataset.next_states
    else:
        inputs = env.per_agent_features(dataset.states)
        next_inputs = env.per_agent_features(dataset.next_states)
    actions, rewards = dataset.actions, dataset.rewards
    n_transitions = len(dataset)
    needs_beta = method == "cfcql" and config.lambda_mode != "uniform"
    beta_probs = (
        _behavior_probs(dataset, env, mode, inputs, config, root.child("bc"))
        if needs_beta else None
    )

    q = FactoredQ(
        spec.n_agents, spec.n_actions, mode,
        n_states=env.n_states if mode == "tabular" else None,
        feature_dim=inputs.shape[2] if mode == "neural" else None,
        hidden=config.hidden, mixer=config.mixer,
        rng=root.child("init").generator(),
    )
    target = q.copy()
    opt = Adam(q.parameters(), lr=config.lr)
    batch_rng = root.child("batches").generator()
    penalty_rng = root.child("penalty").generator()
    alpha = 0.0 if method == "naive" else config.alpha

    probe = np.unique(np.linspace(0, n_transitions - 1,
                                  min(n_transitions, config.metric_subsample)).astype(np.int64))
    metrics = []
    losses = np.empty(config.total_steps)

    for step in range(1, config.total_steps + 1):
        idx = batch_rng.integers(0, n_transitions, size=config.batch_size)
        batch = Batch(
            inputs=inputs[idx], actions=actions[idx], rewards=rewards[idx],
            next_inputs=next_inputs[idx],
            beta_probs=None if beta_probs is None else beta_probs[idx],
        )
        opt.zero_grad()
        if method == "macql" and alpha > 0.0:
            loss, stats = macql_loss(batch, q, target, alpha,
                                     config.cql_joint_samples, penalty_rng, spec.gamma)
        else:
            lam = None
            if method == "cfcql" and alpha > 0.0 and config.lambda_mode != "uniform":
                lam = batch_lambda(q, batch, config.lambda_mode, config.tau,
                                   config.lambda_form)
            loss, stats = cfcql_loss(batch, q, target, lam, alpha, spec.gamma)
        if not np.isfinite(loss.data):
            raise FloatingPointError(f"training diverged at step {step}")
        ad.backward(loss)
        opt.step()
        losses[step - 1] = float(loss.data)

        if step % config.target_interval == 0:
            target = q.copy()

        if step % config.record_interval == 0 or step == config.total_steps:
            row = _record_metrics(q, env, mode, inputs, actions, probe, step,
                                  float(loss.data), config, root, refs)
            metrics.append(row)

    actor = make_greedy_actor(q, env, mode)
    policy = None
    if mode == "tabular":
        with ad.no_grad():
            greedy = q.values(np.arange(env.n_states)).data.argmax(axis=2)
        policy = greedy_policy_from_actions(greedy, spec.n_actions)
    return TrainResult(q=q, actor=actor, metrics=metrics, policy=policy, losses=losses)


@ad.no_grad()
def _record_metrics(q, env, mode, inputs, actions, probe, step, loss_value,
                    config, root, refs):
    values = q.values(inputs[probe]).data
    chosen = np.take_along_axis(values, actions[probe][:, :, None], axis=2)[:, :, 0]
    mean_data_q = float(q.mix(chosen).data.mean())
    mean_policy_q = float(q.mix(values.max(axis=2)).data.mean())
    actor = make_greedy_actor(q, env, mode)
    eval_rng = root.child(f"eval/{step}").generator()
    result = evaluate_policy(env, actor, config.eval_episodes, eval_rng, refs)
    return {
        "step": step,
        "loss": loss_value,
        "mean_data_q": mean_data_q,
        "mean_policy_q": mean_policy_q,
        "eval_return": result.mean_return,
        "normalized_score": result.normalized_score,
    }
