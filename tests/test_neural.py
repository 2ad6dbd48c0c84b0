import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcql_lab import autodiff as ad
from cfcql_lab.learner import FactoredQ, ValuesGrad
from cfcql_lab.neural import (
    HIDDEN,
    Adam,
    BcModel,
    GroupedMlp,
    load_params,
    save_params,
    softmax,
    train_bc,
)

import chains


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
        h = ad.dense(np.ones((4, 3)), w, np.ones(2), relu=True)
        out = ad.logsumexp_t(h, axis=-1)
        fresh = ad.parameter(np.zeros(2))
    for t in (h, out):
        assert t.parents == () and t.bwd is None and not t.requires_grad
    assert fresh.requires_grad  # leaves made inside stay trainable
    traced = ad.tsum(ad.dense(np.ones((4, 3)), w, np.zeros(2), relu=False))
    assert traced.parents and traced.requires_grad


def test_no_grad_restores_mode_after_exception():
    w = ad.parameter(np.arange(3.0))
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    loss = ad.tsum(chains.mul(w, w))
    ad.backward(loss)
    np.testing.assert_array_equal(w.grad, 2.0 * np.arange(3.0))

    @ad.no_grad()
    def untraced(x):
        return ad.tsum(chains.mul(x, 2.0))

    assert untraced(w).parents == ()
    assert ad.tsum(w).parents == (w,)


def test_no_grad_decorator_restores_mode_after_exception():
    w = ad.parameter(np.arange(3.0))

    @ad.no_grad()
    def failing(x):
        assert ad.tsum(x).parents == ()
        raise RuntimeError("inside")

    with pytest.raises(RuntimeError, match="inside"):
        failing(w)
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
        err = out - target
        ad.backward(ad.tmean(chains.mul(err, err)))
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
        ad.backward(ad.tsum(chains.mul(net.forward(np.ones((2, groups, 3))), 0.0)))
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
    err = out - w
    ad.backward(chains.add(ad.tmean(chains.mul(err, err)),
                           ad.tmean(ad.logsumexp_t(out, axis=-1))))
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
        # both copies of the gather side by side, the second one doubled
        pair = ad.reshape(ad.gather_last(x, np.concatenate([idx, idx], axis=1)), (4, 2, 3))
        st_ = chains.mul(pair, np.array([[1.0], [2.0]]))
        b = chains.add(ad.tsum(st_, axis=1), ad.reshape(ad.tsum(x, axis=1), (4, 1)))  # (4, 3) + (4, 1)
        return ad.tsum(chains.mul(b, b))

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


# -- autodiff ops --------------------------------------------------------------


def test_results_of_constants_record_no_tape():
    c = ad.tmean(chains.mul(np.arange(4.0), np.arange(4.0) - 1.0))
    assert c.parents == () and c.bwd is None and not c.requires_grad
    w = ad.parameter(np.ones(4))
    assert chains.mul(np.ones(4), w).parents[1] is w  # one trainable parent is enough


def test_scatter_backward_matches_add_at_byte_for_byte():
    """gather_last's backward; learner's test_table_backward_matches_add_at_byte_for_byte
    holds the table scatters to np.add.at."""
    rng = np.random.default_rng(6)
    x = ad.parameter(rng.normal(size=(5, 4, 3)))
    idx = rng.integers(0, 3, size=(5, 4, 7))  # 7 picks of 3 columns: duplicates
    g = rng.normal(size=idx.shape)
    ad.backward(ad.tsum(chains.mul(ad.gather_last(x, idx), g)))
    expected = np.zeros((20, 3))
    np.add.at(expected, (np.arange(20)[:, None], idx.reshape(20, 7)), g.reshape(20, 7))
    assert x.grad.tobytes() == expected.reshape(x.shape).tobytes()


def test_gathers_reject_out_of_range_indices():
    table = ad.parameter(np.arange(6.0).reshape(3, 2))
    q = FactoredQ(1, 2, "tabular", n_states=3)  # tabular values are a gather of table rows
    with pytest.raises(ValueError, match="state id -1 is outside 0..2"):
        q.values(np.array([0, -1, 2]))
    for bad in (-3, 3):
        with ad.no_grad(), pytest.raises(ValueError, match=f"state id {bad} is outside 0..2"):
            q.values(np.array([bad]))
    for bad in (2, -1):
        with pytest.raises(ValueError, match=f"gather_last index {bad} is outside 0..1"):
            ad.gather_last(table, np.array([[0], [bad], [1]]))


def test_sub_swapaxes_tmean_match_finite_differences():
    rng = np.random.default_rng(8)
    a = ad.parameter(rng.normal(size=(3, 4, 2)))
    b = ad.parameter(rng.normal(size=(4, 1)))
    w = rng.normal(size=(4, 3, 2))

    def build():
        d = ad.swapaxes(a - b, 0, 1)  # (4, 3, 2)
        m = ad.reshape(ad.tsum(chains.mul(d, w), axis=1), (4, 1, 2))
        e = m - 0.3
        return chains.add(ad.tmean(chains.mul(e, e)), ad.tmean(ad.sub(1.0, b)))

    loss = build()
    assert ad.tmean(a).parents == (a,) and (a - b).parents == (a, b)
    ad.backward(loss)
    analytic = [a.grad.copy(), b.grad.copy()]

    def loss_value():
        d = np.swapaxes(a.data - b.data, 0, 1)
        m = (d * w).sum(axis=1, keepdims=True)
        return ((m - 0.3) ** 2).mean() + (1.0 - b.data).mean()

    assert float(loss.data) == pytest.approx(loss_value(), abs=1e-12)
    assert_grads_close(analytic, finite_difference(loss_value, [a, b]))


# -- the fused layer ---------------------------------------------------------


def _sum_leading(a, ndim):
    """``a`` summed over axis 0 until it has ``ndim`` axes, one axis at a time."""
    while a.ndim > ndim:
        a = a.sum(axis=0)
    return a


# (x shape, w shape, b shape, bias reduction): GroupedMlp's (group, batch, d)
# layer, and one weight matrix and bias shared by every leading index of a
# (B, n) and a (B, n, A, n) input, where the gradients sum over the broadcast
DENSE_SHAPES = {
    "grouped": ((3, 5, 4), (3, 4, 6), (3, 1, 6), lambda g: g.sum(axis=1, keepdims=True)),
    "mixer_rows": ((5, 3), (3, 16), (16,), lambda g: g.sum(axis=0)),
    "mixer_counterfactual": ((5, 3, 2, 3), (3, 16), (16,), lambda g: _sum_leading(g, 1)),
}


@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("case", sorted(DENSE_SHAPES))
def test_dense_is_matmul_then_add_then_maximum_byte_for_byte(case, relu):
    x_shape, w_shape, b_shape, reduce_bias = DENSE_SHAPES[case]
    rng = np.random.default_rng(13)
    x, w, b = (rng.normal(size=shape) for shape in (x_shape, w_shape, b_shape))
    b.reshape(-1)[:w_shape[-1]] = 0.0
    x[..., 0, :] = 0.0  # a zero input row over a zero bias: exact-zero pre-activations
    x[..., 1, 0] = np.nan  # a nan input: nan pre-activations on its row
    pre = np.matmul(x, w)
    pre = pre + b
    assert (pre == 0.0).any() and np.isnan(pre).any()
    want = np.maximum(pre, 0.0) if relu else pre
    g = rng.normal(size=pre.shape)
    g_pre = g * (pre > 0) if relu else g
    want_gx = np.matmul(g_pre, np.swapaxes(w, -1, -2))
    want_gw = _sum_leading(np.matmul(np.swapaxes(x, -1, -2), g_pre), len(w_shape))
    want_gb = reduce_bias(g_pre)

    params = [ad.parameter(a) for a in (x, w, b)]
    out = ad.dense(*params, relu=relu)
    assert out.data.tobytes() == want.tobytes()
    ad.backward(ad.tsum(chains.mul(out, g)))
    for p, expected in zip(params, (want_gx, want_gw, want_gb)):
        assert p.grad.shape == p.shape
        assert p.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", sorted(DENSE_SHAPES))
def test_dense_matches_finite_differences(case):
    x_shape, w_shape, b_shape, _ = DENSE_SHAPES[case]
    rng = np.random.default_rng(14)
    x, w, b = (ad.parameter(rng.normal(size=shape)) for shape in (x_shape, w_shape, b_shape))
    while np.abs(np.matmul(x.data, w.data) + b.data).min() < 1e-3:  # away from the kink
        x.data = rng.normal(size=x_shape)
    c = rng.normal(size=np.matmul(x.data, w.data).shape)
    h = ad.dense(x, w, b, relu=True)
    ad.backward(chains.add(ad.tsum(chains.mul(h, h)),
                           ad.tsum(chains.mul(ad.dense(x, w, b, relu=False), c))))
    analytic = [p.grad.copy() for p in (x, w, b)]

    def loss_value():
        pre = np.matmul(x.data, w.data) + b.data
        return float((np.maximum(pre, 0.0) ** 2).sum() + (pre * c).sum())

    assert_grads_close(analytic, finite_difference(loss_value, [x, w, b]))


def test_dense_skips_gradients_nothing_needs():
    w = ad.parameter(np.ones((3, 2)))
    out = ad.dense(np.ones((4, 3)), w, np.zeros(2), relu=True)
    assert out.bwd(np.ones((4, 2)))[0] is None  # the constant input gets none
    ad.backward(ad.tsum(out))
    np.testing.assert_array_equal(w.grad, np.full((3, 2), 4.0))


def _op_nodes(root):
    """Nodes with a backward reachable from ``root``: the tape's length."""
    seen, todo, ops = {id(root)}, [root], 0
    while todo:
        node = todo.pop()
        ops += node.bwd is not None
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return ops


@pytest.mark.parametrize("sizes", [(3, 2), (3, 5, 2), (3, 5, 4, 2)])
def test_grouped_mlp_tapes_one_node_per_layer(sizes):
    """L layers record L + 2 nodes: one dense node per layer and the two swaps."""
    net = GroupedMlp(2, sizes, np.random.default_rng(0))
    x = ad.parameter(np.ones((4, 2, sizes[0])))
    assert _op_nodes(net.forward(x)) == len(sizes) - 1 + 2


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


def _with_ties(rng, shape, offset):
    """Random values around ``offset``; in every row the first two entries tie."""
    x = rng.normal(size=shape) + offset
    x[..., 1] = x[..., 0]
    return x


def _weights_of(w, seen):
    """A ``weigh`` for ``lse_minus_chosen`` that keeps the softmax it is given."""
    def weigh(soft):
        seen.append(soft)
        return w

    return weigh


@pytest.mark.parametrize("shape", [(7, 2), (6, 3, 3), (5, 4, 3), (2, 3, 6)])
@pytest.mark.parametrize("offset", [0.0, 1e6, -1e8])
def test_lse_minus_chosen_is_logsumexp_minus_the_gather(shape, offset):
    """Same bits as the weighted two-node form for A < 8, ties and large
    offsets included, and ``weigh`` gets ``softmax`` of the input, once."""
    rng = np.random.default_rng(12)
    x = ad.parameter(_with_ties(rng, shape, offset))
    idx = rng.integers(0, shape[-1], size=shape[:-1])
    idx.ravel()[::2] = 1  # half the rows choose a tied entry
    w, seen = rng.normal(size=idx.shape), []
    penalty, grad = ad.lse_minus_chosen(x.data, idx, _weights_of(w, seen))
    two_node = ad.logsumexp_t(x, axis=-1) - ad.reshape(ad.gather_last(x, idx[..., None]),
                                                        idx.shape)
    chain = ad.tsum(chains.mul(w, two_node))
    assert np.float64(penalty).tobytes() == chain.data.tobytes()
    assert len(seen) == 1 and seen[0].shape == shape
    np.testing.assert_array_equal(seen[0], softmax(x.data))

    ad.backward(chain)
    np.testing.assert_allclose(grad, x.grad, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("offset", [0.0, 50.0])
def test_lse_minus_chosen_matches_finite_differences(offset):
    rng = np.random.default_rng(4)
    x = ad.parameter(_with_ties(rng, (4, 3, 3), offset))
    idx = rng.integers(0, 3, size=(4, 3))
    w = rng.normal(size=(4, 3))
    _, grad = ad.lse_minus_chosen(x.data, idx, lambda soft: w)

    def loss_value():
        chosen = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]
        m = x.data.max(axis=-1)
        lse = m + np.log(np.exp(x.data - m[..., None]).sum(axis=-1))
        return float(((lse - chosen) * w).sum())

    assert_grads_close([grad], finite_difference(loss_value, [x]))


def test_lse_minus_chosen_rejects_bad_indices():
    x = np.zeros((3, 2))
    for bad in (2, -1):
        with pytest.raises(ValueError, match=f"lse_minus_chosen index {bad} is outside 0..1"):
            ad.lse_minus_chosen(x, np.array([0, bad, 1]), lambda soft: 1.0)
    with pytest.raises(ValueError, match=r"index shape \(3, 1\) != \(3,\)"):
        ad.lse_minus_chosen(x, np.zeros((3, 1), dtype=np.int64), lambda soft: 1.0)


# -- loss terms against the op chains they replace -------------------------------

# (n agents, A actions): one agent, the toy's 3 actions, and 11 (A >= 8, where
# the leading-axis reduction of lse_minus_chosen need not add in the last
# axis's order, but the chain it replaces makes the same reduction)
LOSS_SHAPES = [(1, 3), (2, 3), (4, 3), (3, 11)]


def _loss_inputs(seed, n, n_actions, b=12, n_states=5):
    """A tabular Q, the batch's state ids with duplicates (so gradients of
    repeated rows accumulate), the data's actions and TD targets."""
    rng = np.random.default_rng(seed)
    q = FactoredQ(n, n_actions, "tabular", n_states=n_states)
    q.table.data = rng.normal(size=(n_states, n, n_actions))
    ids = rng.integers(0, n_states, size=b)
    ids[:3] = ids[3]  # four rows of one state
    return rng, q, ids, rng.integers(0, n_actions, size=(b, n)), rng.normal(size=b)


def _term_and_grad(q, ids, actions, term):
    """The loss ``term(values)`` gives on Q's values at ``ids`` and the table
    gradient ``q.backward`` writes from the ``(loss, g_tot, block)`` it returns."""
    q.table.zero_grad()
    values = q.values(ids)
    loss, g_tot, block = term(values.data)
    entries = q.chosen_entries(ids, actions) if block is None else None
    q.backward(ValuesGrad(ids, actions, values, entries, g_tot, block))
    return np.float64(loss).tobytes(), q.table.grad.tobytes()


def _chain_and_grad(q, ids, chain):
    """The loss tensor ``chain(values)`` makes on the table's rows, taped as
    ``take_rows``, and the table gradient of its backward."""
    q.table.zero_grad()
    loss = chain(chains.take_rows(q.table, ids))
    ad.backward(loss)
    return loss.data.tobytes(), q.table.grad.tobytes()


@pytest.mark.parametrize("n, n_actions", LOSS_SHAPES)
def test_td_loss_has_the_op_chain_bits(n, n_actions):
    """TD alone goes into the B * n chosen table entries straight, with the
    bits of the chain's scatter into the rows and then into the table, from
    the gathered rows or from the chosen entries read alone."""
    _, q, ids, actions, y = _loss_inputs(21, n, n_actions)
    term = _term_and_grad(q, ids, actions, lambda x: (*ad.td_loss(x, actions, y), None))
    entries = q.chosen_entries(ids, actions)
    chosen = _term_and_grad(q, ids, actions, lambda x: (
        *ad.td_loss_chosen(q.table.data.reshape(-1)[entries], y), None))
    chain = _chain_and_grad(q, ids, lambda values: chains.td_chain(
        chains.q_tot_data(values, actions), y))
    assert term == chosen == chain


@pytest.mark.parametrize("n, n_actions", LOSS_SHAPES)
@pytest.mark.parametrize("weights", ["per_row", "constant"])
def test_lse_minus_chosen_with_td_has_the_op_chain_bits(n, n_actions, weights):
    """The penalty term plus the TD term against the losses' chains: cfcql's
    ``tsum(mul(w, gap))`` with per-row weights, macql's ``tsum(mul(gap, c))``
    with a constant."""
    rng, q, ids, actions, y = _loss_inputs(22, n, n_actions)
    w = rng.dirichlet(np.ones(n), size=len(ids)) * 0.05 if weights == "per_row" else 0.05

    def term(x):
        penalty, block = ad.lse_minus_chosen(x, actions, lambda soft: w)
        td, g_tot = ad.td_loss(x, actions, y)
        return penalty + td, g_tot, block

    def chain(values):
        gap = chains.lse_gap(values, actions)[0]
        penalty = ad.tsum(chains.mul(w, gap) if weights == "per_row" else chains.mul(gap, w))
        return chains.add(penalty, chains.td_chain(chains.q_tot_data(values, actions), y))

    assert _term_and_grad(q, ids, actions, term) == _chain_and_grad(q, ids, chain)


@pytest.mark.parametrize("n, n_actions", LOSS_SHAPES)
def test_sampled_lse_td_has_the_op_chain_bits(n, n_actions):
    """K = 40 joints per row: many repeat, and their gradients accumulate in
    index order as gather_last's do."""
    rng, q, ids, actions, y = _loss_inputs(23, n, n_actions)
    joints = rng.integers(0, n_actions, size=(len(ids), 40, n))
    log_const, alpha, terms = n * np.log(n_actions) - np.log(40), 0.7, []

    def term(x):
        td, penalty, g_tot, block = ad.sampled_lse_td(x, actions, y, joints, log_const, alpha)
        terms.append((td, penalty))
        return penalty + td, g_tot, block

    def chain(values):
        q_data = chains.q_tot_data(values, actions)
        td = chains.td_chain(q_data, y)
        penalty = chains.sampled_penalty_chain(values, q_data, joints, log_const, alpha)
        terms.append((float(td.data), float(penalty.data)))
        return chains.add(penalty, td)

    assert _term_and_grad(q, ids, actions, term) == _chain_and_grad(q, ids, chain)
    assert terms[0] == terms[1]


def test_loss_nodes_reject_bad_indices():
    """Each term names a bad action index as gather_last does, and a bad shape."""
    x = np.zeros((3, 2, 2))
    y = np.zeros(3)
    joints = np.zeros((3, 4, 2), dtype=np.int64)
    for bad in (2, -1):
        actions = np.array([[0, 1], [bad, 0], [1, 1]])
        with pytest.raises(ValueError, match=f"td_loss index {bad} is outside 0..1"):
            ad.td_loss(x, actions, y)
        with pytest.raises(ValueError, match=f"sampled_lse_td index {bad} is outside 0..1"):
            ad.sampled_lse_td(x, actions, y, joints, 0.0, 1.0)
        bad_joints = joints.copy()
        bad_joints[1, 3, 0] = bad
        with pytest.raises(ValueError, match=f"sampled_lse_td index {bad} is outside 0..1"):
            ad.sampled_lse_td(x, np.zeros((3, 2), dtype=np.int64), y, bad_joints, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"index shape \(3, 1\) != \(3, 2\)"):
        ad.td_loss(x, np.zeros((3, 1), dtype=np.int64), y)
    with pytest.raises(ValueError, match=r"targets of shape \(3, 1\) for 3 rows"):
        ad.td_loss(x, np.zeros((3, 2), dtype=np.int64), np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"expects \(B, n, A\) values, got shape \(3, 2\)"):
        ad.td_loss(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), y)
    with pytest.raises(ValueError, match=r"targets of shape \(3, 1\) for chosen values of shape"):
        ad.td_loss_chosen(np.zeros((3, 2)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"joints shape \(3, 4, 3\) is not \(B, K, n\)"):
        ad.sampled_lse_td(x, np.zeros((3, 2), dtype=np.int64), y,
                          np.zeros((3, 4, 3), dtype=np.int64), 0.0, 1.0)


# -- optimizer ---------------------------------------------------------------


def test_adam_decreases_convex_quadratic_monotonically():
    rng = np.random.default_rng(5)
    p = ad.parameter(rng.normal(size=(6,)) * 5)
    target = rng.normal(size=(6,))
    opt = Adam([p], lr=0.05)
    losses = []
    for _ in range(1500):
        p.zero_grad()
        err = p - target
        loss = ad.tsum(chains.mul(err, err))
        ad.backward(loss)
        opt.step()
        losses.append(float(loss.data))
    warm = losses[10:]
    assert all(b <= a + 1e-12 for a, b in zip(warm, warm[1:]))
    assert losses[-1] < 1e-3


def test_adam_steps_equal_the_textbook_update_and_leave_grads_alone():
    """Byte-equal to the out-of-place update over 20 steps. A parameter with no
    grad keeps its data and zero moments; two parameters share one grad array,
    as ``add``'s backward hands out, and no grad is written into."""
    rng = np.random.default_rng(15)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    # values near the step size, so a change in the update's last bit shows
    params = [ad.parameter(rng.normal(size=shape) * lr)
              for shape in ((3, 4), (4,), (2, 5), (2, 5))]
    skipped = params[1]
    frozen = skipped.data
    opt = Adam(params, lr=lr)
    data = [p.data.copy() for p in params]
    m = [np.zeros_like(d) for d in data]
    v = [np.zeros_like(d) for d in data]
    for t in range(1, 21):
        shared = rng.normal(size=(2, 5))
        grads = [rng.normal(size=(3, 4)), None, shared, shared]
        for p, g in zip(params, grads):
            p.grad = g
        before = [None if g is None else g.copy() for g in grads]
        opt.step()
        for k, g in enumerate(grads):
            assert params[k].grad is g
            if g is None:
                continue
            assert g.tobytes() == before[k].tobytes()
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            m_hat = m[k] / (1.0 - b1**t)
            v_hat = v[k] / (1.0 - b2**t)
            data[k] = data[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in (0, 2, 3):
            assert params[k].data.tobytes() == data[k].tobytes()
            assert opt.m[k].tobytes() == m[k].tobytes()
            assert opt.v[k].tobytes() == v[k].tobytes()
        assert skipped.data is frozen
        assert not opt.m[1].any() and not opt.v[1].any()


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


def line_bc_model(seed):
    """A BC model of EqualLine's shape at n = 4: 7 features, 11 actions."""
    return BcModel(GroupedMlp(4, (7, *HIDDEN, 11), np.random.default_rng(seed)))


@pytest.mark.parametrize("rows", [20_000, 40_000])
def test_bc_probs_working_set_is_bounded(rows):
    # A whole forward holds two (rows, 4, 64) float64 hidden layers, 41 MB
    # at 20 000 rows; in row blocks the working set beyond the output stays
    # about one block's activations at any row count.
    model = line_bc_model(0)
    features = np.random.default_rng(1).normal(size=(rows, 4, 7))
    tracemalloc.start()
    try:
        probs = model.probs(features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probs.shape == (rows, 4, 11)
    assert peak - probs.nbytes < 16e6


@pytest.mark.parametrize("rows", [2047, 2048, 4097, 10_007])
def test_bc_probs_in_blocks_equal_the_whole_forward_byte_for_byte(rows):
    # Blocks of 2048 to 4095 rows run the BLAS kernels of the whole forward.
    # This pins that regime: a platform whose BLAS breaks it also moves the
    # seeded outputs of every neural run. The in-place softmax keeps the bits
    # of the textbook exp(x - max) / sum.
    model = line_bc_model(2)
    features = np.random.default_rng(3).normal(size=(rows, 4, 7))
    with ad.no_grad():
        whole = model.net.forward(features).data
    shifted = np.exp(whole - whole.max(axis=-1, keepdims=True))
    assert model.logits(features).tobytes() == whole.tobytes()
    assert model.probs(features).tobytes() == (shifted / shifted.sum(axis=-1, keepdims=True)).tobytes()


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(2)
    for model in (GroupedMlp(1, (3, 5, 2), rng), GroupedMlp(4, (3, 8, 2), rng)):
        path = tmp_path / "m.ckpt"
        save_params(path, model)
        loaded = load_params(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)


SIZES_FIELD = "checkpoint field 'sizes' must be a list of at least two ints >= 1, got"


def _drop(key):
    def edit(header, body):
        fields = json.loads(header)
        del fields[key]
        return json.dumps(fields).encode("utf-8"), body
    return edit


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
    (lambda header, body: (b"{oops", body), "line 1: header is not JSON: Expecting"),
    (lambda header, body: (header, body[:-8]),
     "body has 408 bytes, expected 416 from the header"),
    (lambda header, body: (header, body + bytes(8)),
     "body has 424 bytes, expected 416 from the header"),
    (_drop("n_groups"), "checkpoint field 'n_groups' must be an int >= 1, got None"),
    (_set("n_groups", 0), "checkpoint field 'n_groups' must be an int >= 1, got 0"),
    (_set("n_groups", 2.7), "checkpoint field 'n_groups' must be an int >= 1, got 2.7"),
    (_set("n_groups", True), "checkpoint field 'n_groups' must be an int >= 1, got True"),
    (_drop("sizes"), f"{SIZES_FIELD} None"),
    (_set("sizes", [3, -4, 2]), f"{SIZES_FIELD} [3, -4, 2]"),
    (_set("sizes", ["3", "4", "2"]), f"{SIZES_FIELD} ['3', '4', '2']"),
    (_set("sizes", [3]), f"{SIZES_FIELD} [3]"),
    (_set("sizes", 3), f"{SIZES_FIELD} 3"),
    (_set("sizes", [10**6, 10**6]), "body has 416 bytes, expected 16000016000000 from the "
     "header"),
], ids=["version-2-unknown checkpoint version 2",
        "dtype-float32-parameter dtype 'float32' is not float64",
        "kind-conv-unknown model kind 'conv'", "kind-mlp", "not_json", "truncated",
        "extra_bytes", "no_n_groups", "n_groups_zero", "n_groups_float", "n_groups_bool",
        "no_sizes", "negative_size", "string_sizes", "one_size", "sizes_not_a_list",
        "sizes_larger_than_the_file"])
def test_load_params_rejects_bad_header(tmp_path, edit, message):
    path = tmp_path / "m.ckpt"
    save_params(path, GroupedMlp(2, (3, 4, 2), np.random.default_rng(0)))
    header, _, body = path.read_bytes().partition(b"\n")
    header, body = edit(header, body)
    path.write_bytes(header + b"\n" + body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        load_params(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index, name", [(0, "weights[0]"), (30, "weights[1]"),
                                         (44, "biases[0]"), (-1, "biases[1]")])
def test_load_params_rejects_non_finite_parameters(tmp_path, value, index, name):
    path = tmp_path / "m.ckpt"
    save_params(path, GroupedMlp(2, (3, 4, 2), np.random.default_rng(0)))
    header, _, body = path.read_bytes().partition(b"\n")
    flat = np.frombuffer(body, dtype=np.float64).copy()  # w0 24, w1 16, b0 8, b1 4 values
    flat[index] = value
    path.write_bytes(header + b"\n" + flat.tobytes())
    message = f"checkpoint parameter {name} holds a non-finite value ({value})"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_params(path)
