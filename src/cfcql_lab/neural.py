"""Grouped multilayer perceptrons, a first-order optimizer, softmax, and
behavior cloning — the differentiable kit behind the practical learner.

All parameters are float64. ``GroupedMlp`` stacks one independent network per
agent so a whole team evaluates in a single batched matmul; one group is a
plain network.

Inference over a whole dataset (``forward_in_blocks``: behavior probabilities,
the learner's metric probe) runs untaped in ``max(1, rows // 2048)`` near-equal
row blocks, so each block holds 2048 to 4095 rows, or all of them when there
are fewer than 2048. The activations then stay a few MB whatever the dataset
size, where a whole forward of 10 000 rows of four agents holds two 20 MB
hidden layers. The floor of 2048 rows keeps the bits: the matmuls of a block
run the same BLAS kernels as a whole forward, so the blocked output equals the
whole one byte for byte. With OpenBLAS 0.3.31 (numpy 2.4), 10 000 rows in
blocks of about 1100 rows or fewer moved outputs by up to 4.4e-15, since small
row counts take other kernels. A 3-wide output layer also changes kernel past
about 4096 rows, so there only outputs of up to 4096 rows keep their bits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import read_header_file, write_header_file

CHECKPOINT_VERSION = 1
HIDDEN = (64, 64)  # hidden layer sizes of every per-agent network the package trains
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
BC_BATCH_SIZE = 256
BC_LR = 1e-3
INFERENCE_BLOCK_ROWS = 2048  # least rows per block of an untaped forward; see the module docstring


def softmax(v, axis: int = -1) -> np.ndarray:
    return _softmax_in_place(np.array(v, dtype=np.float64), axis)


def _softmax_in_place(arr: np.ndarray, axis: int) -> np.ndarray:
    """softmax of the float64 ``arr``, written over it: the ops of
    ``exp(x - max) / sum``, so the same bits, with no second array of its size."""
    arr -= arr.max(axis=axis, keepdims=True)
    np.exp(arr, out=arr)
    arr /= arr.sum(axis=axis, keepdims=True)
    return arr


def _he_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class GroupedMlp:
    """n_groups independent MLPs with identical architecture, evaluated jointly.

    Rectified-linear hidden layers, identity output; forward maps
    (batch, n_groups, d_in) -> (batch, n_groups, d_out). Each layer is one
    ``autodiff.dense`` node over (group, batch, d), so a taped forward of L
    layers records L + 2 nodes: the layers and the two axis swaps.
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
            h = ad.dense(h, w, b, relu=k != last)
        return ad.swapaxes(h, 0, 1)


def forward_in_blocks(net: GroupedMlp, x: np.ndarray) -> np.ndarray:
    """``net.forward(x).data`` with no tape, over ``max(1, rows //
    INFERENCE_BLOCK_ROWS)`` near-equal row blocks written into one output
    array: the same bytes with a bounded working set (module docstring)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((len(x), net.n_groups, net.sizes[-1]))
    n_blocks = max(1, len(x) // INFERENCE_BLOCK_ROWS)
    bounds = np.arange(n_blocks + 1) * len(x) // n_blocks
    with ad.no_grad():
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out[lo:hi] = net.forward(x[lo:hi]).data
    return out


class Adam:
    """Adaptive-moment steps with the bias-corrected first (``m``) and second
    (``v``) moment estimates of each parameter, decay rates ADAM_BETA1 and
    ADAM_BETA2 and denominator offset ADAM_EPS; a parameter with no gradient
    is skipped.

    ``m`` and ``v`` are updated in place through one scratch array per
    parameter, in the textbook operation order, so the steps have its bits.
    The gradients are only read, never written, so a backward may hand one
    array to several parameters. Each step gives ``p.data`` a new array.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        b1c = 1.0 - ADAM_BETA1**self.step_count
        b2c = 1.0 - ADAM_BETA2**self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            # m = b1 * m + (1 - b1) * g
            scratch = np.multiply(g, 1.0 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += scratch
            # v = b2 * v + (1 - b2) * (g * g)
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += scratch
            # p = p - lr * (m / b1c) / (sqrt(v / b2c) + eps)
            np.divide(v, b2c, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPS
            update = np.divide(m, b1c)
            update *= self.lr
            update /= scratch
            np.subtract(p.data, update, out=update)
            p.data = update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# ---------------------------------------------------------------------------
# Behavior cloning: per-agent categorical models trained by maximum likelihood.
# ---------------------------------------------------------------------------


class BcModel:
    def __init__(self, net: GroupedMlp):
        self.net = net

    def logits(self, features: np.ndarray) -> np.ndarray:
        return forward_in_blocks(self.net, features)

    def probs(self, features: np.ndarray) -> np.ndarray:
        """(rows, n, A) action probabilities of every agent at each feature row.

        The forward runs in blocks of INFERENCE_BLOCK_ROWS (2048) to 4095 rows,
        each with the bits of a whole forward (the module docstring says why
        the floor is 2048), and the softmax runs in place on the logits, so
        the working set beyond the output is about one block's activations.
        """
        return _softmax_in_place(self.logits(features), axis=-1)


def train_bc(features: np.ndarray, actions: np.ndarray, n_actions: int,
             rng: np.random.Generator, steps: int = 3000) -> BcModel:
    """Train per-agent action classifiers with the negative-log-likelihood
    loss: ``steps`` Adam steps at BC_LR on minibatches of BC_BATCH_SIZE rows
    (all rows when there are fewer)."""
    features = np.asarray(features, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    n_samples, n_agents, d = features.shape
    net = GroupedMlp(n_agents, (d, *HIDDEN, n_actions), rng)
    opt = Adam(net.parameters(), lr=BC_LR)
    for _ in range(steps):
        idx = rng.integers(0, n_samples, size=min(BC_BATCH_SIZE, n_samples))
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
    write_header_file(path, header, [p.data.astype("<f8", copy=False)
                                     for p in model.parameters()])


def _checkpoint_layout(header: dict) -> tuple:
    """(n_groups, sizes) of a checkpoint header, and the (dtype, shape) of
    each parameter in ``GroupedMlp.parameters`` order."""
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unknown checkpoint version {header.get('version')!r} "
                         f"(expected {CHECKPOINT_VERSION})")
    if header.get("dtype") != "float64":
        raise ValueError(f"parameter dtype {header.get('dtype')!r} is not float64")
    if header.get("kind") != "grouped":
        raise ValueError(f"unknown model kind {header.get('kind')!r}")
    n_groups, sizes = header.get("n_groups"), header.get("sizes")
    if not _is_count(n_groups):
        raise ValueError(f"checkpoint field 'n_groups' must be an int >= 1, got {n_groups!r}")
    if not (isinstance(sizes, list) and len(sizes) >= 2 and all(map(_is_count, sizes))):
        raise ValueError(f"checkpoint field 'sizes' must be a list of at least two "
                         f"ints >= 1, got {sizes!r}")
    layers = list(zip(sizes, sizes[1:]))
    shapes = ([(n_groups, d_in, d_out) for d_in, d_out in layers]
              + [(n_groups, 1, d_out) for _, d_out in layers])
    return (n_groups, sizes), [("<f8", shape) for shape in shapes]


def load_params(path) -> GroupedMlp:
    (n_groups, sizes), arrays = read_header_file(path, _checkpoint_layout)
    model = GroupedMlp(n_groups, sizes)
    layers = range(len(model.weights))
    names = [f"weights[{k}]" for k in layers] + [f"biases[{k}]" for k in layers]
    for name, p, values in zip(names, model.parameters(), arrays):
        if not np.isfinite(values).all():
            bad = values[~np.isfinite(values)][0]
            raise ValueError(f"{path}: checkpoint parameter {name} holds a non-finite "
                             f"value ({bad})")
        p.data = values.astype(np.float64)
    return model


def _is_count(value) -> bool:
    """An int >= 1 in a JSON header (``true`` parses to a bool, not a count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1
