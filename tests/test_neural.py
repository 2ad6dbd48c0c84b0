import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcql_lab import autodiff as ad
from cfcql_lab.neural import (
    Adam,
    GroupedMlp,
    load_params,
    save_params,
    softmax,
    train_bc,
)


def finite_difference(loss_of_params, params, h=1e-5):
    """Central finite differences of a scalar function of parameter tensors."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_of_params()
            flat[k] = orig - h
            down = loss_of_params()
            flat[k] = orig
            gflat[k] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1e-6)
        assert np.max(np.abs(a - n) / denom) < rel


# -- no-grad mode --------------------------------------------------------------


def test_no_grad_records_no_graph():
    w = ad.parameter(np.ones((3, 2)))
    with ad.no_grad():
        h = ad.relu(ad.matmul(np.ones((4, 3)), w) + 1.0)
        out = ad.logsumexp_t(h, axis=-1)
        fresh = ad.parameter(np.zeros(2))
    for t in (h, out):
        assert t.parents == () and t.bwd is None and not t.requires_grad
    assert fresh.requires_grad  # leaves made inside stay trainable
    traced = ad.tsum(ad.matmul(np.ones((4, 3)), w))
    assert traced.parents and traced.requires_grad


def test_no_grad_restores_mode_after_exception():
    w = ad.parameter(np.arange(3.0))
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    loss = ad.tsum(ad.square(w))
    ad.backward(loss)
    np.testing.assert_array_equal(w.grad, 2.0 * np.arange(3.0))

    @ad.no_grad()
    def untraced(x):
        return ad.tsum(x * 2.0)

    assert untraced(w).parents == ()
    assert ad.tsum(w).parents == (w,)


# -- forward -------------------------------------------------------------------

GROUPS = (1, 3)


def reference_forward(net, x):
    """Loop over groups and layers, numpy only: rectifier hidden, identity out."""
    out = []
    for g in range(net.n_groups):
        h = x[:, g, :]
        for k in range(len(net.weights)):
            h = h @ net.weights[k].data[g] + net.biases[k].data[g, 0]
            if k < len(net.weights) - 1:
                h = np.maximum(h, 0.0)
        out.append(h)
    return np.stack(out, axis=1)


def test_forward_zero_net_is_zero():
    for groups in GROUPS:
        net = GroupedMlp(groups, (4, 8, 2))
        out = net.forward(np.ones((3, groups, 4))).data
        assert out.shape == (3, groups, 2)
        np.testing.assert_array_equal(out, 0.0)


def test_forward_identity_linear_layer():
    for groups in GROUPS:
        net = GroupedMlp(groups, (3, 3))
        net.weights[0].data = np.tile(np.eye(3), (groups, 1, 1))
        x = np.random.default_rng(0).normal(size=(5, groups, 3))
        np.testing.assert_allclose(net.forward(x).data, x)


def test_forward_matches_independent_reimplementation():
    rng = np.random.default_rng(42)
    for groups in GROUPS:
        net = GroupedMlp(groups, (5, 7, 6, 2), rng)
        x = rng.normal(size=(4, groups, 5))
        np.testing.assert_allclose(net.forward(x).data, reference_forward(net, x), atol=1e-12)


def test_forward_is_the_same_bytes_under_no_grad():
    rng = np.random.default_rng(11)
    for groups in GROUPS:
        net = GroupedMlp(groups, (5, 7, 6, 2), rng)
        x = rng.normal(size=(9, groups, 5))
        traced = net.forward(x)
        with ad.no_grad():
            untraced = net.forward(x)
        assert traced.requires_grad and not untraced.requires_grad
        assert traced.data.tobytes() == untraced.data.tobytes()


def test_grouped_mlp_matches_per_group_mlps():
    rng = np.random.default_rng(7)
    gnet = GroupedMlp(3, (4, 6, 2), rng)
    x = rng.normal(size=(5, 3, 4))
    out = gnet.forward(x).data
    for g in range(3):
        solo = GroupedMlp(1, (4, 6, 2))
        for k in range(2):
            solo.weights[k].data = gnet.weights[k].data[g:g + 1]
            solo.biases[k].data = gnet.biases[k].data[g:g + 1]
        np.testing.assert_allclose(out[:, g, :], solo.forward(x[:, g:g + 1, :]).data[:, 0],
                                   atol=1e-12)
    # a change to one group's weights leaves the other groups' outputs alone
    gnet.weights[0].data[1] += 1.0
    moved = gnet.forward(x).data
    np.testing.assert_array_equal(moved[:, [0, 2]], out[:, [0, 2]])
    assert not np.allclose(moved[:, 1], out[:, 1])


# -- gradients ---------------------------------------------------------------


def test_grad_linear_quadratic_analytic():
    rng = np.random.default_rng(1)
    for groups in GROUPS:
        net = GroupedMlp(groups, (3, 1))
        net.weights[0].data = rng.normal(size=(groups, 3, 1))
        x = rng.normal(size=(8, groups, 3))
        target = rng.normal(size=(8, groups, 1))

        for p in net.parameters():
            p.zero_grad()
        out = net.forward(x)
        ad.backward(ad.tmean(ad.square(out - target)))
        err = out.data - target
        for g in range(groups):
            expect_w = 2 * x[:, g].T @ err[:, g] / (8 * groups)
            expect_b = 2 * err[:, g].sum(axis=0) / (8 * groups)
            np.testing.assert_allclose(net.weights[0].grad[g], expect_w, atol=1e-10)
            np.testing.assert_allclose(net.biases[0].grad[g, 0], expect_b, atol=1e-10)


def test_grad_constant_loss_is_zero():
    for groups in GROUPS:
        net = GroupedMlp(groups, (3, 2), np.random.default_rng(0))
        for p in net.parameters():
            p.zero_grad()
        ad.backward(ad.tsum(net.forward(np.ones((2, groups, 3))) * 0.0))
        for p in net.parameters():
            np.testing.assert_array_equal(p.grad, 0.0)


def _preactivation_margin(net, x):
    """Distance of every hidden pre-activation from the rectifier kink."""
    h = np.swapaxes(np.asarray(x, dtype=np.float64), 0, 1)  # (groups, batch, d)
    margin = np.inf
    for k in range(len(net.weights) - 1):
        h = h @ net.weights[k].data + net.biases[k].data
        margin = min(margin, np.abs(h).min())
        h = np.maximum(h, 0.0)
    return margin


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_grad_matches_finite_differences_random_nets(seed):
    rng = np.random.default_rng(seed)
    groups = int(rng.integers(1, 4))
    sizes = (3, rng.integers(2, 6), rng.integers(2, 6), 2)
    net = GroupedMlp(groups, tuple(int(s) for s in sizes), rng)
    x = rng.normal(size=(4, groups, 3))
    while _preactivation_margin(net, x) < 1e-3:  # finite differences break at kinks
        x = rng.normal(size=(4, groups, 3))
    w = rng.normal(size=(4, groups, 2))

    for p in net.parameters():
        p.zero_grad()
    out = net.forward(x)
    ad.backward(ad.tmean(ad.square(out - w)) + ad.tmean(ad.logsumexp_t(out, axis=-1)))
    analytic = [p.grad.copy() for p in net.parameters()]

    def loss_value():
        pred = reference_forward(net, x)
        lse = pred.max(axis=-1)
        lse = lse + np.log(np.exp(pred - lse[..., None]).sum(axis=-1))
        return ((pred - w) ** 2).mean() + lse.mean()

    numeric = finite_difference(loss_value, net.parameters())
    assert_grads_close(analytic, numeric)


def test_gather_stack_broadcast_gradients():
    rng = np.random.default_rng(3)
    x = ad.parameter(rng.normal(size=(4, 5)))
    idx = rng.integers(0, 5, size=(4, 3))

    def build():
        g = ad.gather_last(x, idx)
        st_ = ad.stack([g, g * 2.0], axis=0)
        b = ad.tsum(st_, axis=0) + ad.tsum(x, axis=1, keepdims=True)  # (4, 3) + (4, 1)
        return ad.tsum(ad.square(b))

    loss = build()
    x.zero_grad()
    ad.backward(loss)
    analytic = [x.grad.copy()]

    def loss_value():
        g = np.take_along_axis(x.data, idx, axis=-1)
        s = g + g * 2.0 + x.data.sum(axis=1, keepdims=True)
        return (s**2).sum()

    numeric = finite_difference(loss_value, [x])
    assert_grads_close(analytic, numeric)


def test_elu_abs_gradients():
    rng = np.random.default_rng(4)
    x = ad.parameter(rng.normal(size=(6,)))
    loss = ad.tsum(ad.elu(x) + ad.absolute(x) * 0.5)
    ad.backward(loss)
    analytic = [x.grad.copy()]

    def loss_value():
        v = x.data
        e = np.where(v > 0, v, np.exp(v) - 1)
        return (e + 0.5 * np.abs(v)).sum()

    numeric = finite_difference(loss_value, [x])
    assert_grads_close(analytic, numeric)


# -- logsumexp ---------------------------------------------------------------


def logsumexp(values) -> float:
    return float(ad.logsumexp_t(np.asarray(values, dtype=np.float64)).data)


def test_logsumexp_pairs():
    assert logsumexp([0.0, 0.0]) == pytest.approx(np.log(2.0))
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12))
def test_logsumexp_matches_bruteforce(values):
    direct = np.log(np.sum(np.exp(values)))
    assert logsumexp(values) == pytest.approx(direct, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
def test_logsumexp_softmax_entropy_identity(values):
    """lse(f) = E_mu[f] + H(mu) with mu = softmax(f)."""
    f = np.array(values)
    mu = softmax(f)
    support = mu > 0
    entropy = -(mu[support] * np.log(mu[support])).sum()
    assert logsumexp(f) == pytest.approx(float((mu * f).sum() + entropy), abs=1e-9)


# -- optimizer ---------------------------------------------------------------


def test_adam_decreases_convex_quadratic_monotonically():
    rng = np.random.default_rng(5)
    p = ad.parameter(rng.normal(size=(6,)) * 5)
    target = rng.normal(size=(6,))
    opt = Adam([p], lr=0.05)
    losses = []
    for _ in range(1500):
        p.zero_grad()
        loss = ad.tsum(ad.square(p - target))
        ad.backward(loss)
        opt.step()
        losses.append(float(loss.data))
    warm = losses[10:]
    assert all(b <= a + 1e-12 for a, b in zip(warm, warm[1:]))
    assert losses[-1] < 1e-3


# -- behavior cloning ----------------------------------------------------------


def test_train_bc_recovers_action_frequencies():
    rng = np.random.default_rng(0)
    n = 600
    feats = np.ones((n, 1, 2))
    actions = (rng.random((n, 1)) < 0.25).astype(np.int64)  # P(a=1) = 0.25
    model = train_bc(feats, actions, n_actions=2, rng=rng, steps=1500)
    probs = model.probs(feats[:1])[0, 0]
    empirical = actions.mean()
    assert abs(probs[1] - empirical) < 0.03


def test_train_bc_deterministic_behavior_and_seeding():
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(300, 2, 3))
    actions = np.stack(
        [(feats[:, i, 0] > 0).astype(np.int64) for i in range(2)], axis=1
    )
    m1 = train_bc(feats, actions, 2, np.random.default_rng(1), steps=1200)
    m2 = train_bc(feats, actions, 2, np.random.default_rng(1), steps=1200)
    probs = m1.probs(feats)
    chosen = np.take_along_axis(probs, actions[:, :, None], axis=2)
    assert chosen.mean() > 0.95
    for a, b in zip(m1.net.parameters(), m2.net.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(2)
    for model in (GroupedMlp(1, (3, 5, 2), rng), GroupedMlp(4, (3, 8, 2), rng)):
        path = tmp_path / "m.ckpt"
        save_params(path, model)
        loaded = load_params(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)


def _set(key, value):
    def edit(header, body):
        fields = json.loads(header)
        fields[key] = value
        return json.dumps(fields).encode("utf-8"), body
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set("version", 2), "unknown checkpoint version 2"),
    (_set("dtype", "float32"), "parameter dtype 'float32' is not float64"),
    (_set("kind", "conv"), "unknown model kind 'conv'"),
    (_set("kind", "mlp"), "unknown model kind 'mlp'"),
    (lambda header, body: (b"{oops", body), "checkpoint header is not JSON: Expecting"),
    (lambda header, body: (header, body[:-8]),
     "checkpoint has 408 parameter bytes, expected 416 for 2 groups of sizes [3, 4, 2]"),
    (lambda header, body: (header, body + bytes(8)),
     "checkpoint has 424 parameter bytes, expected 416 for 2 groups of sizes [3, 4, 2]"),
], ids=["version-2-unknown checkpoint version 2",
        "dtype-float32-parameter dtype 'float32' is not float64",
        "kind-conv-unknown model kind 'conv'", "kind-mlp", "not_json", "truncated",
        "extra_bytes"])
def test_load_params_rejects_bad_header(tmp_path, edit, message):
    path = tmp_path / "m.ckpt"
    save_params(path, GroupedMlp(2, (3, 4, 2), np.random.default_rng(0)))
    header, _, body = path.read_bytes().partition(b"\n")
    header, body = edit(header, body)
    path.write_bytes(header + b"\n" + body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        load_params(path)
