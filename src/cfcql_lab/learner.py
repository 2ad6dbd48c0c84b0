"""Practical offline training loop with factored Q functions.

Three methods share one TD backbone:
  - cfcql: per-agent counterfactual logsumexp penalty, weighted by lambda
  - macql: joint-action logsumexp penalty estimated from sampled joints
  - naive: plain TD (the penalty switched off)

Q_tot is the sum of the per-agent values, so execution is decentralized: the
joint greedy action is the tuple of per-agent argmaxes.

Both penalties reduce to per-agent terms, so neither builds rows of Q_tot.
The counterfactual row (b, i), which varies agent i's action with the others
held at the data's, is Q_i(s, ·) + (sum_j chosen_j - chosen_i), so its
logsumexp is lse Q_i + sum_j chosen_j - chosen_i, and with lambda on the
simplex the cfcql penalty is sum_i lambda_i (lse Q_i - chosen_i). The softmax
of that row is softmax(Q_i(s, ·)), agent i's counterfactual Boltzmann policy.
Over every joint action, log sum_a exp sum_i Q_i(a_i) = sum_i lse Q_i, so
macql's enumerated penalty is sum_i (lse Q_i - chosen_i).

The loss terms (``autodiff.td_loss``, ``lse_minus_chosen`` with each
penalty's weights, and ``sampled_lse_td`` for sampled macql, whose penalty
subtracts the TD term's Q_tot) return their values and gradients as numpy
arrays, and a loss returns them as a ``ValuesGrad``: the part in each row's
Q_tot, plus a (B, n, A) block for a penalty. ``FactoredQ.backward`` writes it
into the parameters, so nothing but a network is taped:
  - tabular TD alone (naive, and every ``datagen.train_online`` update) reads
    the B * n table entries of the data's actions and scatters its gradient
    into them with one ``bincount``;
  - tabular with a penalty adds the TD part into the block at those entries,
    then scatters the block's rows into the table with one ``bincount``;
  - a network's backward is seeded with the block at its output.
Each term repeats the float ops of the op chain it replaces, and each scatter
adds in that chain's order, so training keeps its bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import (Dataset, RngStream, check_types, empirical_behavior,
                   greedy_policy_from_actions)
from .divergence import kl_scores
from .envs import make_env
from .neural import HIDDEN, Adam, GroupedMlp, forward_in_blocks, softmax, train_bc
from .rollouts import QValuesActor, evaluate_actor

METHODS = ("cfcql", "macql", "naive")
METRIC_SUBSAMPLE = 4096  # data rows probed for the in-loop metrics, at most
BEHAVIOR_SMOOTHING = 1.0  # Laplace count added per action in the tabular beta estimate
CQL_JOINT_SAMPLES = 32  # macql's sampled joint actions per row, when |A|^n exceeds it


@dataclass
class TrainConfig:
    """Offline training settings.

    gamma is the dataset spec's, so the learner and the exact oracles
    (``tabular``) discount alike. Timeouts always bootstrap: both in-repo
    environments end by time limit only, so no transition is terminal.
    cfcql weighs agents uniformly (``lambda_mode="uniform"``) or by
    ``batch_lambda``, softmax(-KL_i) against the estimated behavior policy.
    Bad values raise a ValueError naming the field.
    """

    alpha: float = 1.0
    lambda_mode: str = "softmax"  # uniform | softmax
    batch_size: int = 64
    target_interval: int = 100
    total_steps: int = 10_000
    seed: int = 0
    lr: float = 1e-3
    eval_episodes: int = 16
    record_interval: int = 250
    bc_steps: int = 3000

    def __post_init__(self):
        check_types(self, ("batch_size", "target_interval", "total_steps", "seed",
                           "eval_episodes", "record_interval", "bc_steps"), ())
        for name in ("batch_size", "target_interval", "total_steps", "eval_episodes",
                     "record_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.bc_steps < 0:
            raise ValueError(f"bc_steps must be >= 0, got {self.bc_steps}")
        if self.lambda_mode not in ("uniform", "softmax"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")


# ---------------------------------------------------------------------------
# Factored Q functions.
# ---------------------------------------------------------------------------


class FactoredQ:
    """Per-agent action values Q_i(s, a_i), summed to Q_tot(s, a).

    ``inputs`` are integer state ids in tabular mode and per-agent feature
    arrays (batch, n_agents, d) in neural mode, where each agent's network has
    hidden layers of ``neural.HIDDEN`` sizes.
    """

    def __init__(self, n_agents: int, n_actions: int, mode: str,
                 n_states: Optional[int] = None, feature_dim: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        self.n_agents = n_agents
        self.n_actions = n_actions
        self.mode = mode
        self.n_states = n_states
        self.feature_dim = feature_dim
        if mode == "tabular":
            if n_states is None:
                raise ValueError("tabular mode needs n_states")
            self.table = ad.parameter(np.zeros((n_states, n_agents, n_actions)))
            self.net = None
        elif mode == "neural":
            if feature_dim is None:
                raise ValueError("neural mode needs feature_dim")
            self.table = None
            self.net = GroupedMlp(n_agents, (feature_dim, *HIDDEN, n_actions), rng)
        else:
            raise ValueError(f"unknown mode {mode!r}")

    def parameters(self):
        return [self.table] if self.table is not None else self.net.parameters()

    def values(self, inputs) -> Tensor:
        """(B, n, A) per-agent values: the table's rows, untaped, or the
        network's forward, taped unless under ``no_grad``."""
        if self.mode == "tabular":
            return Tensor(self.table.data[_state_ids(inputs, self.n_states)])
        return self.net.forward(inputs)

    def chosen_entries(self, inputs, actions) -> np.ndarray:
        """(B, n) positions in the table's ravel of each row's entries at
        ``actions`` (tabular mode); a state id outside 0..S-1, an action
        outside 0..A-1 or actions of the wrong shape raise."""
        ids, actions = _state_ids(inputs, self.n_states), np.asarray(actions, dtype=np.int64)
        if actions.shape != (len(ids), self.n_agents):
            raise ValueError(f"actions of shape {actions.shape} for {len(ids)} rows of "
                             f"{self.n_agents} agents")
        # one reduction: viewed as unsigned, a negative action is at least 2**63
        if actions.size and actions.view(np.uint64).max() >= self.n_actions:
            bad = actions[(actions < 0) | (actions >= self.n_actions)][0]
            raise ValueError(f"action {bad} is outside 0..{self.n_actions - 1}")
        row = self.n_agents * self.n_actions
        return ids[:, None] * row + (np.arange(0, row, self.n_actions) + actions)

    def backward(self, grad: "ValuesGrad") -> None:
        """Add a loss's gradient in the values into the parameters' ``.grad``.

        Tabular TD alone scatters ``grad.g_tot`` into the B * n chosen table
        entries (``grad.entries``), in row order, with one ``bincount``.
        Otherwise the TD part is added into the block (in place) at the chosen
        entries, and then the block's (B, n * A) rows are scattered in row
        order, as a row gather's backward scatters them; a network's backward
        is seeded with the block. Either way each entry sums its terms in the
        op chain's order, so the gradients have its bits.
        """
        actions, block = grad.actions, grad.block
        n, width = self.n_agents, self.n_actions
        if self.mode == "tabular" and block is None:
            flat = grad.entries.ravel()
            weights = np.repeat(grad.g_tot, n)
        else:
            if block is None:
                block = np.zeros((len(actions), n, width))
            block[np.arange(len(actions))[:, None], np.arange(n), actions] += grad.g_tot[:, None]
            if self.mode == "neural":
                ad.backward(grad.values, block)
                return
            flat = (grad.inputs[:, None] * (n * width) + np.arange(n * width)).ravel()
            weights = block.ravel()
        table = self.table
        g = np.bincount(flat, weights=weights, minlength=table.data.size).reshape(table.shape)
        table.grad = g if table.grad is None else table.grad + g

    def mix(self, chosen: Tensor) -> Tensor:
        return ad.tsum(chosen, axis=-1)

    def copy(self) -> "FactoredQ":
        clone = FactoredQ(
            self.n_agents, self.n_actions, self.mode,
            n_states=self.n_states, feature_dim=self.feature_dim,
        )
        for dst, src in zip(clone.parameters(), self.parameters()):
            dst.data = src.data.copy()
        return clone


# ---------------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------------


class ValuesGrad(NamedTuple):
    """A loss's gradient in the per-agent values of its batch, for
    ``FactoredQ.backward``: ``g_tot`` (B,) in each row's Q_tot at the batch's
    ``actions``, and ``block`` (B, n, A) in the values themselves, or None
    when the loss has no part outside Q_tot (TD alone)."""

    inputs: np.ndarray  # the batch's state ids or features
    actions: np.ndarray  # (B, n)
    values: Optional[Tensor]  # the forward's (B, n, A) output, taped in neural mode
    # a tabular TD term's (B, n) table positions of the entries it read in
    # place of the rows (values is then None), where its gradient goes
    entries: Optional[np.ndarray]
    g_tot: np.ndarray
    block: Optional[np.ndarray]


@dataclass
class Batch:
    inputs: np.ndarray  # state ids (B,) or features (B, n, d)
    actions: np.ndarray  # (B, n)
    rewards: np.ndarray  # (B,)
    next_inputs: np.ndarray

    def __len__(self):
        return len(self.actions)


@ad.no_grad()
def td_targets(q_target: FactoredQ, batch: Batch, gamma: float) -> np.ndarray:
    """Optimality backup through the target network (no gradient); every
    next state bootstraps, since episodes end by time limit only."""
    # max over actions as a reduction over the leading axis of an (A, B, n)
    # copy: numpy reduces a short last axis several times slower
    next_values = np.ascontiguousarray(q_target.values(batch.next_inputs).data.transpose(2, 0, 1))
    # the target's Q_tot, summed over agents as ``mix`` sums, with no Tensor
    return batch.rewards + gamma * next_values.max(axis=0).sum(axis=-1)


def _state_ids(inputs, n_states: int) -> np.ndarray:
    """Tabular inputs as int64 state ids; one outside 0..S-1 raises."""
    ids = np.asarray(inputs, dtype=np.int64)
    # one reduction: viewed as unsigned, a negative id is at least 2**63
    if ids.size and ids.view(np.uint64).max() >= n_states:
        bad = ids[(ids < 0) | (ids >= n_states)][0]
        raise ValueError(f"state id {bad} is outside 0..{n_states - 1}")
    return ids


def td_term(q: FactoredQ, inputs, actions: np.ndarray, y: np.ndarray) -> tuple:
    """``(loss, grad)``: the TD term of Q's values at ``inputs`` against the
    targets ``y``, and its ValuesGrad, with no penalty block. The term reads
    only the B * n values of the data's actions, so tabular Q gives them
    straight from the table, without the rest of the batch's rows."""
    if q.mode == "tabular":
        entries = q.chosen_entries(inputs, actions)
        loss, g_tot = ad.td_loss_chosen(q.table.data.reshape(-1)[entries], y)
        return loss, ValuesGrad(inputs, actions, None, entries, g_tot, None)
    values = q.values(inputs)
    loss, g_tot = ad.td_loss(values.data, actions, y)
    return loss, ValuesGrad(inputs, actions, values, None, g_tot, None)


def cfcql_loss(batch: Batch, q: FactoredQ, q_target: FactoredQ,
               lam: Optional[Callable[[np.ndarray], np.ndarray]], alpha: float, gamma: float):
    """Counterfactual conservative loss; ``alpha=0`` reduces to plain TD.
    Returns ``(loss, grad, stats)``: the loss, its ValuesGrad for
    ``q.backward`` and the TD and penalty terms.

    The other agents' actions in the penalty come from the sampled transition
    (one draw from the behavior policy). ``lam`` maps the (B, n, A)
    counterfactual Boltzmann policy of this forward pass to (B, n) agent
    weights on the simplex, and is called once; ``lam=None`` weighs agents
    uniformly. The penalty is alpha * mean_b sum_i lambda_i (lse Q_i - chosen_i)
    (module docstring).
    """
    y = td_targets(q_target, batch, gamma)
    if alpha == 0.0:
        td, grad = td_term(q, batch.inputs, batch.actions, y)
        return td, grad, {"td": td, "penalty": 0.0}

    scale = alpha / len(batch)

    def weigh(pi):
        # alpha * mean_b sum_i lambda_i gap_i, as one weighted sum
        return (_uniform(batch, q) if lam is None else lam(pi)) * scale

    return _penalised(batch, q, y, weigh)


def _penalised(batch: Batch, q: FactoredQ, y: np.ndarray, weigh) -> tuple:
    """``(loss, grad, stats)`` of the TD term plus the per-agent penalty
    ``lse_minus_chosen`` with weights ``weigh(pi)``."""
    values = q.values(batch.inputs)
    td, g_tot = ad.td_loss(values.data, batch.actions, y)
    penalty, block = ad.lse_minus_chosen(values.data, batch.actions, weigh)
    grad = ValuesGrad(batch.inputs, batch.actions, values, None, g_tot, block)
    return penalty + td, grad, {"td": td, "penalty": penalty}


def _uniform(batch: Batch, q: FactoredQ) -> np.ndarray:
    return np.full((len(batch), q.n_agents), 1.0 / q.n_agents)


def macql_loss(batch: Batch, q: FactoredQ, q_target: FactoredQ, alpha: float,
               n_samples: int, rng: Optional[np.random.Generator], gamma: float):
    """Joint-ratio conservative loss with sampled-joint logsumexp; returns
    ``(loss, grad, stats)`` as ``cfcql_loss`` does.

    With ``n_samples >= |A|^n`` the joint space is enumerated exactly: the
    penalty is sum_i (lse Q_i - chosen_i) and no joint is built (module
    docstring). Otherwise the estimator is logsumexp over N uniform joints
    plus the importance constant log(|A|^n / N).
    """
    y = td_targets(q_target, batch, gamma)
    b = len(batch)
    if alpha != 0.0 and n_samples < q.n_actions**q.n_agents:
        if rng is None:
            raise ValueError("sampled joint actions need an rng")
        values = q.values(batch.inputs)
        sampled = rng.integers(0, q.n_actions, size=(b, n_samples, q.n_agents))
        log_const = q.n_agents * np.log(q.n_actions) - np.log(n_samples)
        # the penalty's -Q_tot(data) is the TD term's, so one function takes
        # both terms (autodiff.sampled_lse_td says why)
        td, penalty, g_tot, block = ad.sampled_lse_td(values.data, batch.actions, y, sampled,
                                                      log_const, alpha)
        grad = ValuesGrad(batch.inputs, batch.actions, values, None, g_tot, block)
        return penalty + td, grad, {"td": td, "penalty": penalty}
    if alpha == 0.0:
        td, grad = td_term(q, batch.inputs, batch.actions, y)
        return td, grad, {"td": td, "penalty": 0.0}
    # alpha * mean_b sum_i gap_i, in cfcql's form: at n = 1 the two losses
    # are the same bits
    return _penalised(batch, q, y, lambda pi: alpha / b)


# ---------------------------------------------------------------------------
# Lambda weights per batch (Boltzmann policy against estimated behavior).
# ---------------------------------------------------------------------------


def batch_lambda(pi: np.ndarray, beta_probs: np.ndarray) -> np.ndarray:
    """(B, n) agent weights softmax_i(-KL(pi_i || beta_i)) from ``pi``, the
    (B, n, A) counterfactual Boltzmann policy (temperature 1) that
    ``cfcql_loss`` computes, against the behavior probabilities
    ``beta_probs``: the agents whose policy strays least from the data weigh
    most."""
    return softmax(-kl_scores(pi, beta_probs), axis=-1)


# ---------------------------------------------------------------------------
# Offline training.
# ---------------------------------------------------------------------------


@dataclass
class ScoreRefs:
    """Mean returns that ``normalized_score`` maps to 0 and 100; they must be
    finite and differ."""

    random_score: float
    expert_score: float

    def __post_init__(self):
        if not (np.isfinite(self.random_score) and np.isfinite(self.expert_score)
                and self.random_score != self.expert_score):
            raise ValueError(f"score references must be finite and differ, got random "
                             f"{self.random_score} and expert {self.expert_score}")


@dataclass
class EvalResult:
    mean_return: float
    std: float
    normalized_score: Optional[float] = None


@dataclass
class TrainResult:
    q: FactoredQ
    metrics: list
    policy: Optional[np.ndarray] = None  # one-hot (n, S, A) greedy policy in tabular mode
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
        beta = empirical_behavior(dataset, smoothing=BEHAVIOR_SMOOTHING)
        return np.swapaxes(beta[:, dataset.states], 0, 1)
    bc = train_bc(inputs, dataset.actions, spec.n_actions, rng_stream.generator(),
                  steps=config.bc_steps)
    return bc.probs(inputs)


def encode_states(env, mode: str, raw: np.ndarray) -> np.ndarray:
    """Q inputs of raw (N, n) states: state ids in tabular mode, (N, n, F)
    per-agent features in neural mode."""
    return env.encode_batch(raw) if mode == "tabular" else env.per_agent_features(raw)


def make_greedy_actor(q: FactoredQ, env) -> QValuesActor:
    @ad.no_grad()
    def values(raw):
        return q.values(encode_states(env, q.mode, raw)).data

    return QValuesActor(values)


def encode_transitions(encode, states: np.ndarray, next_states: np.ndarray):
    """``(encode(states), encode(next_states))`` for (N, n) trajectory rows.

    Inside a trajectory row k's next state is row k + 1's state, so its
    encoded row is reused. Only the other next states are encoded: trajectory
    ends and any row that breaks the pattern. Rows match bit for bit, so -0.0
    is not taken for 0.0. ``encode`` works row by row, so the result equals
    encoding ``next_states`` whole.
    """
    inputs = encode(states)
    same = np.zeros(len(states), dtype=bool)
    same[:-1] = (next_states[:-1].view(np.int64) == states[1:].view(np.int64)).all(axis=1)
    reused, rest = np.flatnonzero(same), np.flatnonzero(~same)
    next_inputs = np.empty_like(inputs)
    next_inputs[reused] = inputs[reused + 1]
    next_inputs[rest] = encode(next_states[rest])
    return inputs, next_inputs


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
        inputs, next_inputs = encode_transitions(env.per_agent_features, dataset.states,
                                                 dataset.next_states)
    actions, rewards = dataset.actions, dataset.rewards
    n_transitions = len(dataset)
    needs_beta = method == "cfcql" and config.lambda_mode == "softmax"
    beta_probs = (
        _behavior_probs(dataset, env, mode, inputs, config, root.child("bc"))
        if needs_beta else None
    )

    q = FactoredQ(
        spec.n_agents, spec.n_actions, mode,
        n_states=env.n_states if mode == "tabular" else None,
        feature_dim=inputs.shape[2] if mode == "neural" else None,
        rng=root.child("init").generator(),
    )
    target = q.copy()
    opt = Adam(q.parameters(), lr=config.lr)
    batch_rng = root.child("batches").generator()
    penalty_rng = root.child("penalty").generator()
    alpha = 0.0 if method == "naive" else config.alpha

    probe = np.unique(np.linspace(0, n_transitions - 1,
                                  min(n_transitions, METRIC_SUBSAMPLE)).astype(np.int64))
    metrics = []
    losses = np.empty(config.total_steps)

    for step in range(1, config.total_steps + 1):
        idx = batch_rng.integers(0, n_transitions, size=config.batch_size)
        batch = Batch(
            inputs=inputs[idx], actions=actions[idx], rewards=rewards[idx],
            next_inputs=next_inputs[idx],
        )
        opt.zero_grad()
        if method == "macql" and alpha > 0.0:
            loss, grad, _ = macql_loss(batch, q, target, alpha, CQL_JOINT_SAMPLES, penalty_rng,
                                       spec.gamma)
        else:
            lam = (None if beta_probs is None
                   else functools.partial(batch_lambda, beta_probs=beta_probs[idx]))
            loss, grad, _ = cfcql_loss(batch, q, target, lam, alpha, spec.gamma)
        if not np.isfinite(loss):
            raise FloatingPointError(f"training diverged at step {step}")
        q.backward(grad)
        opt.step()
        losses[step - 1] = loss

        if step % config.target_interval == 0:
            target = q.copy()

        if step % config.record_interval == 0 or step == config.total_steps:
            row = _record_metrics(q, env, inputs, actions, probe, step, loss, config, root,
                                  refs)
            metrics.append(row)

    policy = None
    if mode == "tabular":
        with ad.no_grad():
            greedy = q.values(np.arange(env.n_states)).data.argmax(axis=2)
        policy = greedy_policy_from_actions(greedy, spec.n_actions)
    return TrainResult(q=q, metrics=metrics, policy=policy, losses=losses)


@ad.no_grad()
def _record_metrics(q, env, inputs, actions, probe, step, loss_value, config, root, refs):
    rows = inputs[probe]
    values = q.values(rows).data if q.mode == "tabular" else forward_in_blocks(q.net, rows)
    chosen = np.take_along_axis(values, actions[probe][:, :, None], axis=2)[:, :, 0]
    mean_data_q = float(q.mix(chosen).data.mean())
    mean_policy_q = float(q.mix(values.max(axis=2)).data.mean())
    actor = make_greedy_actor(q, env)
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
