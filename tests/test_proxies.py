import warnings
from dataclasses import replace

import numpy as np
import pytest

from relviews import synth, training
from relviews.encoder import EncoderConfig, init_params
from relviews.graphs import ViewGraph, num_pairs
from relviews.errors import ConfigError
from relviews.proxies import (ProxyAnchorConfig, ProxyGraph, SinkhornConfig, proxy_anchor_loss,
                              sinkhorn, update_proxies)
from relviews.training import TrainConfig, TrainedModel
from tests.conftest import rel_error
from tests.helpers import ConstantCostHead, loop_anchor_loss, loop_sinkhorn


def scfg(**kw):
    base = dict(entropic_regularizer=0.05, max_iters=1000, marginal_tol=1e-9)
    base.update(kw)
    return SinkhornConfig(**base)


# ------------------------------------------------------------------ sinkhorn

def test_constant_cost_uniform_plan():
    res = sinkhorn(np.full((3, 4), 2.5), np.full(3, 1 / 3), np.full(4, 1 / 4), scfg())
    np.testing.assert_allclose(res.plan, 1.0 / 12.0, atol=1e-12)
    assert res.converged


def test_one_by_one_plan_is_total_mass():
    res = sinkhorn(np.array([[7.0]]), np.array([0.6]), np.array([0.6]), scfg())
    assert res.plan[0, 0] == pytest.approx(0.6, abs=1e-12)


def test_two_by_two_matches_closed_form():
    # oracle: for cost [[0,1],[1,0]] and uniform marginals the symmetric plan
    # [[p, .5-p], [.5-p, p]] must satisfy p/(.5-p) = exp(1/eps)
    eps = 0.1
    res = sinkhorn(np.array([[0.0, 1.0], [1.0, 0.0]]),
                   np.full(2, 0.5), np.full(2, 0.5),
                   scfg(entropic_regularizer=eps, marginal_tol=1e-12))
    ratio = np.exp(1.0 / eps)
    p = 0.5 * ratio / (1.0 + ratio)
    np.testing.assert_allclose(res.plan, [[p, 0.5 - p], [0.5 - p, p]], atol=1e-10)
    assert res.plan[0, 1] < 0.01


def test_marginals_respected_on_random_costs(rng):
    for _ in range(25):
        m, c = rng.integers(2, 12, size=2)
        cost = rng.random((m, c))
        a = rng.random(m)
        b = rng.random(c)
        b *= a.sum() / b.sum()
        res = sinkhorn(cost, a, b, scfg(marginal_tol=1e-8))
        assert res.converged
        np.testing.assert_allclose(res.plan.sum(axis=1), a, atol=1e-7)
        np.testing.assert_allclose(res.plan.sum(axis=0), b, atol=1e-7)
        assert (res.plan >= 0).all()


def test_zero_marginal_row_excluded():
    res = sinkhorn(np.ones((2, 2)), np.array([0.0, 1.0]),
                   np.array([0.5, 0.5]), scfg())
    assert np.all(res.plan[0] == 0.0)
    np.testing.assert_allclose(res.plan[1], 0.5, atol=1e-9)


def test_nonconvergence_is_flagged_without_a_warning():
    cfg = scfg(max_iters=1, marginal_tol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sinkhorn(np.random.default_rng(0).random((6, 6)),
                       np.full(6, 1 / 6), np.full(6, 1 / 6), cfg)
        rng = np.random.default_rng(1)
        proxy = ProxyGraph(0, 0.1 * rng.standard_normal((4, 8)))
        batch = 0.1 * rng.standard_normal((2, 4, 8))
        flags = [update_proxies(proxy, batch, c)[1] for c in (cfg, scfg())]
    assert not res.converged
    assert res.residual > 0
    assert flags == [False, True]


def test_sinkhorn_input_validation():
    with pytest.raises(ValueError):
        sinkhorn(np.array([[np.inf]]), np.ones(1), np.ones(1), scfg())
    with pytest.raises(ValueError):
        sinkhorn(np.ones((2, 2)), np.ones(2), np.ones(2) * 2.0, scfg())
    with pytest.raises(ValueError):
        sinkhorn(np.ones((2, 2)), -np.ones(2), np.ones(2), scfg())


# ------------------------------------------------------------- proxy update

def separated_proxy(slots=4, dim=8, scale=4.0):
    """Centroids far apart so transport mass is effectively hard."""
    nodes = np.zeros((slots, dim))
    for s in range(slots):
        nodes[s, s] = scale
    return ProxyGraph(0, nodes)


def test_fixed_point_on_identical_batch():
    proxy = separated_proxy()
    out, _ = update_proxies(proxy, proxy.node_centroids[None].copy(), scfg(), momentum=0.0)
    np.testing.assert_allclose(out.node_centroids, proxy.node_centroids, atol=1e-9)


def test_idempotent_after_one_step_on_separated_batch(rng):
    proxy = separated_proxy()
    batch_nodes = proxy.node_centroids + 0.05 * rng.standard_normal((4, 8))
    batch = batch_nodes[None]
    once, _ = update_proxies(proxy, batch, scfg(), momentum=0.0)
    twice, _ = update_proxies(once, batch, scfg(), momentum=0.0)
    np.testing.assert_allclose(twice.node_centroids, once.node_centroids, atol=1e-6)


def test_plan_weighted_means_single_instance(rng):
    # oracle: recompute means from the plan that the update used (global row
    # pinned to slot 0, locals transported over the remaining slots)
    proxy = separated_proxy()
    nodes = proxy.node_centroids + 0.1 * rng.standard_normal((4, 8))
    out, _ = update_proxies(proxy, nodes[None], scfg(), momentum=0.0)

    cost = np.square(nodes[:, None, :] - proxy.node_centroids[None, :, :]).sum(-1) / 8
    plan = np.zeros((4, 4))
    plan[0, 0] = 0.25
    plan[1:, 1:] = sinkhorn(cost[1:, 1:], np.full(3, 0.25), np.full(3, 0.25),
                            scfg()).plan
    expect = (plan.T @ nodes) / plan.sum(axis=0)[:, None]
    np.testing.assert_allclose(out.node_centroids, expect, atol=1e-12)


def test_global_slot_forced(rng):
    proxy = separated_proxy()
    nodes = rng.standard_normal((4, 8))
    nodes[0] = -proxy.node_centroids[2]   # global far from slot 0, near slot 2
    out, _ = update_proxies(proxy, nodes[None], scfg(), momentum=0.0)
    # slot 0 absorbed the global embedding regardless of distances
    np.testing.assert_allclose(out.node_centroids[0], nodes[0], atol=1e-12)


def test_momentum_blends():
    proxy = separated_proxy()
    shifted = (proxy.node_centroids + 1.0)[None]
    hard, _ = update_proxies(proxy, shifted, scfg(), momentum=0.0)
    soft, _ = update_proxies(proxy, shifted, scfg(), momentum=0.9)
    np.testing.assert_allclose(
        soft.node_centroids,
        0.9 * proxy.node_centroids + 0.1 * hard.node_centroids, atol=1e-9)


def test_update_contract_errors():
    proxy = separated_proxy()
    with pytest.raises(ValueError):
        update_proxies(proxy, np.zeros((0, 4, 8)), scfg())
    with pytest.raises(ValueError):
        update_proxies(proxy, proxy.node_centroids, scfg())      # one graph, not a stack
    with pytest.raises(ValueError):
        update_proxies(proxy, np.zeros((2, 3, 8)), scfg())       # 3 nodes for 4 slots
    with pytest.raises(ConfigError):
        update_proxies(proxy, proxy.node_centroids[None], scfg(), momentum=1.5)


@pytest.mark.parametrize("nodes", [np.zeros(4), np.zeros((0, 3)), np.zeros((3, 0)),
                                   np.array([[0.0, np.nan]])])
def test_proxy_refuses_bad_centroids(nodes):
    with pytest.raises(ValueError):
        ProxyGraph(0, nodes)


def loop_update_proxies(proxy, batch, cfg, momentum):
    """Reference update from a list of per-graph node arrays, on index lists:
    the new proxy and the transport's convergence flag."""
    slots, d, n = proxy.num_slots, proxy.node_centroids.shape[1], batch[0].shape[0]
    nodes = np.vstack(batch)
    m = nodes.shape[0]
    cost = np.square(nodes[:, None, :] - proxy.node_centroids[None, :, :]).sum(-1) / d
    global_rows = np.arange(len(batch)) * n
    local_rows = np.setdiff1d(np.arange(m), global_rows)
    plan = np.zeros((m, slots))
    plan[global_rows, 0] = 1.0 / m
    transport = sinkhorn(cost[np.ix_(local_rows, np.arange(1, slots))],
                         np.full(local_rows.size, 1.0 / m),
                         np.full(slots - 1, 1.0 / slots), cfg)
    plan[np.ix_(local_rows, np.arange(1, slots))] = transport.plan
    mass = plan.sum(axis=0)
    new_nodes = proxy.node_centroids.copy()
    occupied = mass > 0
    new_nodes[occupied] = (plan.T @ nodes)[occupied] / mass[occupied, None]
    return ProxyGraph(proxy.class_id, momentum * proxy.node_centroids
                      + (1.0 - momentum) * new_nodes), transport.converged


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_update_equals_per_graph_loop(rng, momentum):
    slots, dim = 5, 6
    proxy = ProxyGraph(0, rng.standard_normal((slots, dim)))
    for _ in range(6):
        batch = [proxy.node_centroids + rng.standard_normal((slots, dim)) for k in range(4)]
        out, ok = update_proxies(proxy, np.stack(batch), SinkhornConfig(), momentum=momentum)
        ref, ref_ok = loop_update_proxies(proxy, batch, SinkhornConfig(), momentum)
        assert np.array_equal(out.node_centroids, ref.node_centroids) and ok == ref_ok
        proxy = out


@pytest.mark.parametrize("max_iters, tol", [(1000, 1e-9), (3, 1e-12), (1, 1e-6)])
def test_sinkhorn_equals_the_plan_per_residual_loop(rng, max_iters, tol):
    cfg = SinkhornConfig(entropic_regularizer=0.05, max_iters=max_iters, marginal_tol=tol)
    for rows, cols in ((5, 4), (12, 3), (1, 6)):
        cost = rng.random((rows, cols))
        a = np.full(rows, 1.0 / rows)
        if rows > 1:
            a[0] = 0.0                                    # a row excluded from scaling
            a /= a.sum()
        b = np.full(cols, 1.0 / cols)
        out = sinkhorn(cost, a, b, cfg)
        ref = loop_sinkhorn(cost, a, b, cfg)
        assert np.array_equal(out.plan, ref.plan)
        assert (out.iterations, out.residual, out.converged) == (
            ref.iterations, ref.residual, ref.converged)


# --------------------------------------------------------------- anchor loss

def test_anchor_all_zero_distances_hand_value():
    # two instances of class 0, one of class 1; delta = 0
    h = np.zeros((3, 2))
    labels = [0, 0, 1]
    cfg = ProxyAnchorConfig(margin=0.0, scale=32.0)
    loss, grad = proxy_anchor_loss(h, labels, [0, 1], cfg)
    pos = (np.log(1 + 2) + np.log(1 + 1)) / 2.0
    neg = (np.log(1 + 1) + np.log(1 + 2)) / 2.0
    assert loss == pytest.approx(pos + neg, abs=1e-12)
    assert grad.shape == (3, 2)


def test_anchor_large_scale_limit():
    # one positive pair far inside the margin: positive term vanishes
    h = np.array([[0.0, 5.0]])
    cfg = ProxyAnchorConfig(margin=-0.5, scale=500.0)   # exponent s*(h + delta) < 0
    loss, _ = proxy_anchor_loss(h, [0], [0, 1], cfg)
    neg_term = np.log(1 + np.exp(-500.0 * (5.0 - (-0.5)))) / 2.0
    assert loss == pytest.approx(neg_term, abs=1e-9)


def test_anchor_nonnegative_and_deterministic(rng):
    for _ in range(20):
        h = rng.random((6, 4)) * 3
        labels = rng.integers(0, 4, size=6)
        cfg = ProxyAnchorConfig()
        l1, g1 = proxy_anchor_loss(h, labels, [0, 1, 2, 3], cfg)
        l2, g2 = proxy_anchor_loss(h, labels, [0, 1, 2, 3], cfg)
        assert l1 >= 0.0
        assert l1 == l2
        assert np.array_equal(g1, g2)


def test_anchor_gradient_matches_finite_differences(rng):
    h = rng.random((5, 3)) * 2.0
    labels = [0, 1, 2, 0, 1]
    cfg = ProxyAnchorConfig(margin=0.1, scale=8.0)
    _, grad = proxy_anchor_loss(h, labels, [0, 1, 2], cfg)
    step = 1e-5
    checked = 0
    for r in range(5):
        for c in range(3):
            keep = h[r, c]
            h[r, c] = keep + step
            up, _ = proxy_anchor_loss(h, labels, [0, 1, 2], cfg)
            h[r, c] = keep - step
            down, _ = proxy_anchor_loss(h, labels, [0, 1, 2], cfg)
            h[r, c] = keep
            fd = (up - down) / (2 * step)
            assert rel_error(fd, grad[r, c]) < 1e-4, (r, c)
            checked += 1
    assert checked == 15


def test_anchor_stability_large_exponents():
    h = np.array([[50.0, 0.1]])
    loss, grad = proxy_anchor_loss(h, [0], [0, 1], ProxyAnchorConfig(scale=32.0))
    assert np.isfinite(loss) and np.isfinite(grad).all()
    # positive exponent 32*(50+0.1) dominates: log term approx equals it
    assert loss == pytest.approx(32.0 * 50.1 / 1.0, rel=1e-3)


def test_anchor_loss_equals_the_per_class_loop_form():
    # the (C, B) passes sum a class's exponentials with zeros in the rows it
    # skips, which from 8 rows regroups numpy's pairwise sum: the loss stays
    # within rounding, and the gradient too
    rng = np.random.default_rng(17)
    cfg = ProxyAnchorConfig()
    same = 0
    for draw in range(500):
        b, c = int(rng.integers(1, 13)), int(rng.integers(2, 17))
        h = rng.random((b, c)) * rng.choice([0.1, 1.0, 10.0])
        labels = rng.integers(0, c, size=b)
        loss, grad = proxy_anchor_loss(h, labels, range(c), cfg)
        ref_loss, ref_grad = loop_anchor_loss(h, labels, range(c), cfg)
        assert abs(loss - ref_loss) <= 1e-15 * ref_loss, draw
        assert np.abs(grad - ref_grad).max() <= 1e-15 * np.abs(ref_grad).max(), draw
        same += loss == ref_loss
    assert same >= 490


def test_anchor_domain_errors():
    with pytest.raises(ValueError):
        proxy_anchor_loss(np.zeros((2, 2)), [0, 5], [0, 1], ProxyAnchorConfig())
    with pytest.raises(ValueError):
        proxy_anchor_loss(np.zeros((2, 3)), [0, 1], [0, 1], ProxyAnchorConfig())


# ------------------------------------------- nearest-proxy classification

def proxy_model(proxies, head, hidden_dim=6, in_dim=8):
    cfg = TrainConfig(encoder=EncoderConfig(heads_per_layer=1, hidden_dim=hidden_dim))
    return TrainedModel(cfg, init_params(cfg.encoder, in_dim, seed=0), head,
                        proxies=proxies)


def test_classify_exact_match_wins(rng):
    dim, slots = 6, 4
    protos = {}
    for cid in range(3):
        protos[cid] = ProxyGraph(cid, rng.standard_normal((slots, dim)) * (cid + 1))
    exact = ViewGraph(protos[1].node_centroids, np.zeros(num_pairs(slots)))
    dist = proxy_model(protos, ConstantCostHead(10.0)).distances(exact)
    assert dist[1] == 0.0 and int(np.argmin(dist)) == 1


def test_classify_ties_break_to_lowest_id():
    # instances have 4 local views + the global one; identical proxies for 2 and 5
    nodes = np.zeros((5, 4))
    model = proxy_model({5: ProxyGraph(5, nodes), 2: ProxyGraph(2, nodes)},
                        ConstantCostHead(1.0), hidden_dim=4)
    ds = synth.generate(synth.SynthConfig(num_classes=2, instances_per_class=3,
                                          views_per_instance=4, feature_dim=8,
                                          concept_count_per_class=2))
    srg = training.encode_dataset(model, ds)[0]
    assert model.distances(srg)[0] == model.distances(srg)[1]

    def relabel(label):
        return replace(ds, instances=[replace(inst, label=label) for inst in ds.instances])
    assert training.evaluate(model, relabel(2)) == 1.0
    assert training.evaluate(model, relabel(5)) == 0.0

