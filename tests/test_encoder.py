from itertools import combinations

import numpy as np
import pytest

from relviews import autodiff as ad
from relviews import checkpoint as ckpt
from relviews import encoder as enc
from relviews.encoder import EncoderConfig, distinguishability, init_params
from relviews.errors import ConfigError, NumericError
from relviews.graphs import ViewGraph, midpoint_edges, num_pairs, upper_pairs
from relviews.hed import CostHead
from tests.conftest import central_diff, rel_error
from tests.helpers import concat, edge_feature, encoder_backward, gathered_pair_matrix


def random_graph(n_nodes=5, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return ViewGraph(rng.standard_normal((n_nodes, dim)),
                     rng.standard_normal((num_pairs(n_nodes), dim)))


def permute_graph(g: ViewGraph, perm: list[int]) -> ViewGraph:
    """Node i of the result is node perm[i] of g (perm[0] must be 0)."""
    n = g.num_views
    nodes = g.node_features[perm]
    edges = np.empty_like(g.edge_features)
    for r, (i, j) in enumerate(combinations(range(n), 2)):
        edges[r] = edge_feature(g, perm[i], perm[j])
    return ViewGraph(nodes, edges)


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(num_layers=0)
    with pytest.raises(ConfigError):
        EncoderConfig(hidden_dim=10, heads_per_layer=4)


def test_zero_attention_gives_uniform_coefficients():
    # single final layer, zero attention vector: every neighbor weighs 1/k,
    # so node i's output is the mean of the other nodes' W h
    cfg = EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=8)
    params = init_params(cfg, 8, seed=0)
    params.layers[0].a[0][...] = 0.0
    g = random_graph(5, 8, seed=1)
    tape = enc.forward(params, [g])
    wh = g.node_features @ params.layers[0].W[0]
    expect = [wh[np.arange(5) != i].mean(axis=0) for i in range(5)]
    np.testing.assert_allclose(tape.node_out.value[0], expect, rtol=0, atol=1e-12)


def test_permutation_equivariance():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=2, hidden_dim=8)
    params = init_params(cfg, 6, seed=4)
    g = random_graph(5, 6, seed=5)
    perm = [0, 2, 1, 4, 3]           # swap locals 1<->2 and 3<->4
    out = enc.forward(params, [g]).node_out.value[0]
    out_p = enc.forward(params, [permute_graph(g, perm)]).node_out.value[0]
    np.testing.assert_allclose(out_p, out[perm], atol=1e-9)


def test_output_graph_shapes_and_positivity():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=4, hidden_dim=16)
    params = init_params(cfg, 8, seed=6)
    g = random_graph(6, 8, seed=7)
    nodes = enc.forward(params, [g]).node_out.value
    assert nodes.shape == (1, 6, 16)
    out = ViewGraph(nodes[0], midpoint_edges(nodes[0]))
    assert out.edge_features.shape == (num_pairs(6), 16)
    assert (out.edge_weights() > 0).all()


def test_zero_upstream_gradient_gives_zero_param_grads():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=2, hidden_dim=8)
    params = init_params(cfg, 6, seed=8)
    g = random_graph(4, 6, seed=9)
    tape = enc.forward(params, [g])
    grads = encoder_backward(tape, np.zeros(tape.node_out.shape))
    assert all(np.all(v == 0.0) for v in grads.values())


def test_single_linear_layer_hand_gradient():
    # one head, zero attention vector: h_i' = mean_{j != i} (W h_j), so for
    # loss = sum(outputs), dL/dW = sum_i mean_{j != i} h_j  (outer with ones)
    cfg = EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=3)
    params = init_params(cfg, 3, seed=10)
    params.layers[0].a[0][...] = 0.0
    g = random_graph(4, 3, seed=11)
    tape = enc.forward(params, [g])
    params.zero_grads()
    encoder_backward(tape, np.ones(tape.node_out.shape))
    x = g.node_features
    acc = np.zeros((3, 3))
    for i in range(4):
        others = [j for j in range(4) if j != i]
        acc += np.outer(x[others].mean(axis=0), np.ones(3))
    np.testing.assert_allclose(params.grads["layer0.head0.W"], acc, atol=1e-10)


def test_gradients_match_finite_differences():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=2, hidden_dim=8)
    params = init_params(cfg, 6, seed=12)
    g = random_graph(4, 6, seed=13)
    rng = np.random.default_rng(14)
    rn = rng.standard_normal((1, 4, 8))

    def loss_value():
        return float((enc.forward(params, [g]).node_out.value * rn).sum())

    params.zero_grads()
    encoder_backward(enc.forward(params, [g]), rn)

    checked = 0
    for name, arr in params.named_tensors():
        for _ in range(8):
            idx = np.unravel_index(rng.integers(0, arr.size), arr.shape)
            keep = arr[idx]
            arr[idx] = keep + 1e-5
            up = loss_value()
            arr[idx] = keep - 1e-5
            down = loss_value()
            arr[idx] = keep
            fd = (up - down) / 2e-5
            assert rel_error(fd, params.grads[name][idx]) < 1e-4, (name, idx)
            checked += 1
    assert checked >= 100


def test_nan_input_raises_with_layer():
    cfg = EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=4)
    params = init_params(cfg, 4, seed=15)
    bad = random_graph(3, 4, seed=16)
    nodes = bad.node_features.copy()
    nodes[0, 0] = np.nan
    with pytest.raises(NumericError, match="layer 0"):
        enc.forward(params, [ViewGraph(nodes, bad.edge_features)])


def test_dim_mismatch_raises():
    cfg = EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=4)
    params = init_params(cfg, 4, seed=17)
    with pytest.raises(ConfigError):
        enc.forward(params, [random_graph(3, 6, seed=18)])


def test_distinguishability_basics():
    assert distinguishability(np.zeros((4, 3))) == 0.0
    assert distinguishability(np.array([[0.0, 0.0], [2.0, 0.0]])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        distinguishability(np.zeros((1, 3)))


def test_distinguishability_matches_pair_oracle(rng):
    x = rng.standard_normal((6, 4))
    acc, cnt = 0.0, 0
    for i in range(6):
        for j in range(i + 1, 6):
            acc += float(np.linalg.norm(x[i] - x[j]))
            cnt += 1
    assert distinguishability(x) == pytest.approx(acc / cnt, abs=1e-12)


def test_checkpoint_roundtrip_bitexact(tmp_path):
    cfg = EncoderConfig(num_layers=2, heads_per_layer=2, hidden_dim=8)
    params = init_params(cfg, 6, seed=19)
    path = tmp_path / "enc.txt"
    ckpt.write_checkpoint(path, {"kind": "encoder"}, params.named_tensors())
    config, tensors = ckpt.read_checkpoint(path)
    assert config == {"kind": "encoder"}
    for (name, arr), (name2, arr2) in zip(params.named_tensors(), tensors):
        assert name == name2
        assert np.array_equal(arr, arr2)


def test_forward_deterministic():
    cfg = EncoderConfig()
    params = init_params(cfg, 16, seed=20)
    g = random_graph(9, 16, seed=21)
    a = enc.forward(params, [g]).node_out.value
    b = enc.forward(params, [g]).node_out.value
    assert np.array_equal(a, b)


def concat_forward(params, graphs):
    """Reference encoder with the unfactored edge channel: edge logits from
    (e P) a_edge and the edge update from both concatenated endpoint orders."""
    cfg = params.config
    n, b, heads = graphs[0].num_views, len(graphs), cfg.heads_per_layer
    idx_i, idx_j = upper_pairs(n)
    offdiag, diag_neg = 1.0 - np.eye(n), np.where(np.eye(n) > 0, enc._NEG, 0.0)
    pvars = [{key: None if arr is None else ad.Var(arr, requires_grad=True)
              for key, arr in vars(layer).items()} for layer in params.layers]
    h = ad.constant(np.stack([g.node_features for g in graphs]))
    e = ad.constant(np.stack([g.edge_features for g in graphs]))
    for li, (node_in, head_dim, edge_in, updates) in enumerate(
            enc._layer_dims(cfg, params.in_dim)):
        pv = pvars[li]
        Wh = ad.matmul(ad.reshape(h, (b, 1, n, node_in)), pv["W"])
        a_src, a_dst, a_edge = (
            ad.reshape(ad.take(pv["a"], np.arange(k * head_dim, (k + 1) * head_dim), axis=1),
                       (heads, head_dim, 1)) for k in range(3))
        s = ad.matmul(Wh, a_src)
        t = ad.reshape(ad.matmul(Wh, a_dst), (b, heads, 1, n))
        eP = ad.matmul(ad.reshape(e, (b, 1, num_pairs(n), edge_in)), pv["P"])
        u_pair = ad.matmul(eP, a_edge)
        u_mat = gathered_pair_matrix(u_pair, n)
        logits = ad.leaky_relu(s + t + u_mat, cfg.leaky_slope) + diag_neg
        ex = ad.exp(logits - logits.value.max(axis=-1, keepdims=True)) * offdiag
        alpha = ex / ad.vsum(ex, axis=-1, keepdims=True)
        head_out = ad.matmul(alpha, Wh)
        if li == cfg.num_layers - 1:
            h = ad.vsum(head_out, axis=1) * (1.0 / heads)
        else:
            h = ad.reshape(ad.transpose(head_out, (0, 2, 1, 3)), (b, n, heads * head_dim))
            h = enc._graphnorm(h, pv["norm_mean_scale"], pv["norm_scale"],
                               pv["norm_shift"], cfg.norm_eps)
        if updates:
            zi = ad.take(h, idx_i, axis=1)
            zj = ad.take(h, idx_j, axis=1)
            fwd_ord = ad.matmul(concat([zi, zj, e], axis=2), pv["edge_U"])
            rev_ord = ad.matmul(concat([zj, zi, e], axis=2), pv["edge_U"])
            e = ad.softplus((fwd_ord + rev_ord) * 0.5)
    return enc.EncoderTape(params, pvars, h)


def assert_close_rel(actual, expect, rtol):
    np.testing.assert_allclose(actual, expect, rtol=rtol, atol=rtol * np.abs(expect).max())


@pytest.mark.parametrize("cfg, in_dim", [
    (EncoderConfig(), 32),
    (EncoderConfig(num_layers=3), 32),
    (EncoderConfig(edge_update=False), 32),
    (EncoderConfig(num_layers=3, edge_update=False), 12),
    (EncoderConfig(), 12),
], ids=["default", "three_layers", "no_edge_update", "no_edge_update_narrow", "narrow_input"])
def test_forward_and_gradients_match_concat_form(cfg, in_dim):
    params = init_params(cfg, in_dim, seed=22)
    graphs = [random_graph(6, in_dim, seed=23 + k) for k in range(3)]
    rng = np.random.default_rng(24)
    tape = enc.forward(params, graphs)
    ref = concat_forward(params, graphs)
    assert_close_rel(tape.node_out.value, ref.node_out.value, 1e-12)

    node_g = rng.standard_normal(tape.node_out.shape)
    grads = encoder_backward(tape, node_g)
    ref_grads = encoder_backward(ref, node_g)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert_close_rel(g, ref_grads[name], 1e-10)


def test_tensors_and_grads_are_views_of_the_flat_buffers():
    for params in (init_params(EncoderConfig(num_layers=3, heads_per_layer=2, hidden_dim=8),
                               6, seed=30),
                   CostHead(6, hidden=4, seed=30)):
        tensors = params.named_tensors()
        assert sum(arr.size for _, arr in tensors) == params.buffer.size
        assert params.grads.keys() == dict(tensors).keys()
        for name, arr in tensors:
            assert np.shares_memory(arr, params.buffer), name
            assert np.shares_memory(params.grads[name], params.grad_buffer), name
            assert params.grads[name].shape == arr.shape, name
        params.grad_buffer[:] = 1.0
        params.zero_grads()
        assert all(np.all(g == 0.0) for g in params.grads.values())


def test_set_tensor_writes_through_to_the_buffer():
    params = init_params(EncoderConfig(heads_per_layer=2, hidden_dim=8), 6, seed=31)
    head = CostHead(6, hidden=4, seed=31)
    for store, name, field in ((params, "layer1.head1.P", lambda: params.layers[1].P[1]),
                               (head, "cost.W1", lambda: head.W1)):
        value = np.full(field().shape, 0.25)
        store.set_tensor(name, value)
        assert np.array_equal(field(), value)
        view = dict(store.named_tensors())[name]
        assert np.shares_memory(view, store.buffer) and np.array_equal(view, value)
        with pytest.raises(ConfigError, match=f"^shape mismatch for {name}"):
            store.set_tensor(name, value[:1])
        with pytest.raises(ConfigError, match=r"^unknown tensor layer9\.head0\.W$"):
            store.set_tensor("layer9.head0.W", value)


def test_check_finite_names_the_tensor():
    params = init_params(EncoderConfig(), 6, seed=32)
    head = CostHead(6, hidden=4, seed=32)
    for store, field, name, bad in ((params, params.layers[1].P[2], r"layer1\.head2\.P", np.nan),
                                    (head, head.b1, r"cost\.b1", -np.inf)):
        store.check_finite()
        field[0] = bad
        with pytest.raises(NumericError, match=f"^non-finite parameter tensor {name}$"):
            store.check_finite()
