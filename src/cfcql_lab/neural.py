"""Grouped multilayer perceptrons, a first-order optimizer, softmax, and
behavior cloning — the differentiable kit behind the practical learner.

All parameters are float64. ``GroupedMlp`` stacks one independent network per
agent so a whole team evaluates in a single batched matmul; one group is a
plain network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CHECKPOINT_VERSION = 1


def softmax(v, axis: int = -1) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    shifted = np.exp(arr - arr.max(axis=axis, keepdims=True))
    return shifted / shifted.sum(axis=axis, keepdims=True)


def _he_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class GroupedMlp:
    """n_groups independent MLPs with identical architecture, evaluated jointly.

    Rectified-linear hidden layers, identity output; forward maps
    (batch, n_groups, d_in) -> (batch, n_groups, d_out).
    """

    def __init__(self, n_groups: int, sizes: Sequence[int], rng: Optional[np.random.Generator] = None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.n_groups = int(n_groups)
        self.sizes = tuple(int(s) for s in sizes)
        self.weights: List[Tensor] = []
        self.biases: List[Tensor] = []
        for d_in, d_out in zip(self.sizes[:-1], self.sizes[1:]):
            shape = (self.n_groups, d_in, d_out)
            w = np.zeros(shape) if rng is None else _he_init(rng, d_in, shape)
            self.weights.append(ad.parameter(w))
            self.biases.append(ad.parameter(np.zeros((self.n_groups, 1, d_out))))

    def parameters(self) -> List[Tensor]:
        return self.weights + self.biases

    def forward(self, x) -> Tensor:
        h = ad.swapaxes(x, 0, 1)  # (group, batch, d): one matmul per group
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.matmul(h, w) + b
            if k != last:
                h = ad.relu(h)
        return ad.swapaxes(h, 0, 1)


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators for one parameter list."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


class Adam:
    def __init__(self, params: Sequence[Tensor], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.state = OptimizerState(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps,
            m=[np.zeros_like(p.data) for p in self.params],
            v=[np.zeros_like(p.data) for p in self.params],
        )

    def step(self) -> None:
        st = self.state
        st.step_count += 1
        b1c = 1.0 - st.beta1**st.step_count
        b2c = 1.0 - st.beta2**st.step_count
        for k, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            st.m[k] = st.beta1 * st.m[k] + (1.0 - st.beta1) * g
            st.v[k] = st.beta2 * st.v[k] + (1.0 - st.beta2) * (g * g)
            p.data = p.data - st.lr * (st.m[k] / b1c) / (np.sqrt(st.v[k] / b2c) + st.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# ---------------------------------------------------------------------------
# Behavior cloning: per-agent categorical models trained by maximum likelihood.
# ---------------------------------------------------------------------------


class BcModel:
    def __init__(self, net: GroupedMlp):
        self.net = net

    @ad.no_grad()
    def logits(self, features: np.ndarray) -> np.ndarray:
        return self.net.forward(features).data

    def probs(self, features: np.ndarray) -> np.ndarray:
        return softmax(self.logits(features), axis=-1)


def train_bc(features: np.ndarray, actions: np.ndarray, n_actions: int,
             rng: np.random.Generator, hidden: Sequence[int] = (64, 64),
             steps: int = 3000, batch_size: int = 256, lr: float = 1e-3) -> BcModel:
    """Train per-agent action classifiers with the negative-log-likelihood loss."""
    features = np.asarray(features, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    n_samples, n_agents, d = features.shape
    net = GroupedMlp(n_agents, (d, *hidden, n_actions), rng)
    opt = Adam(net.parameters(), lr=lr)
    for _ in range(steps):
        idx = rng.integers(0, n_samples, size=min(batch_size, n_samples))
        x, a = features[idx], actions[idx]
        opt.zero_grad()
        logits = net.forward(x)  # (B, n, A)
        lse = ad.logsumexp_t(logits, axis=-1)  # (B, n)
        chosen = ad.gather_last(logits, a[:, :, None])  # (B, n, 1)
        nll = ad.tmean(lse - ad.reshape(chosen, a.shape))
        ad.backward(nll)
        opt.step()
    return BcModel(net)


# ---------------------------------------------------------------------------
# Checkpoint files: one JSON header line + raw float64 parameter bytes.
# ---------------------------------------------------------------------------


def save_params(path, model: GroupedMlp) -> None:
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": "grouped",
        "n_groups": model.n_groups,
        "sizes": list(model.sizes),
        "dtype": "float64",
    }
    flat = np.concatenate([p.data.ravel() for p in model.parameters()])
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(flat.tobytes())


def load_params(path) -> GroupedMlp:
    with open(path, "rb") as fh:
        first = fh.readline()
        body = fh.read()
    try:
        header = json.loads(first.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: checkpoint header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unknown checkpoint version {header.get('version')!r} "
                         f"(expected {CHECKPOINT_VERSION})")
    if header.get("dtype") != "float64":
        raise ValueError(f"{path}: parameter dtype {header.get('dtype')!r} is not float64")
    if header.get("kind") != "grouped":
        raise ValueError(f"{path}: unknown model kind {header.get('kind')!r}")
    model = GroupedMlp(header["n_groups"], header["sizes"])
    params = model.parameters()
    expected = 8 * sum(p.data.size for p in params)
    if len(body) != expected:
        raise ValueError(f"{path}: checkpoint has {len(body)} parameter bytes, expected "
                         f"{expected} for {header['n_groups']} groups of sizes "
                         f"{header['sizes']}")
    flat = np.frombuffer(body, dtype=np.float64)
    offset = 0
    for p in params:
        size = p.data.size
        p.data = flat[offset:offset + size].reshape(p.data.shape).copy()
        offset += size
    return model
