import tracemalloc

import numpy as np
import pytest

from relviews import checkpoint as ckpt
from relviews import encoder as enc
from relviews.encoder import EncoderConfig, distinguishability, init_params
from relviews.errors import ConfigError, NumericError
from relviews.graphs import ViewGraph, midpoint_weights, num_pairs, upper_pairs
from relviews.hed import CostHead
from tests.conftest import central_diff, rel_error
from tests.helpers import (add, concat, constant, div, encoder_backward, exp,
                           gathered_pair_matrix, graphnorm, leaky_relu, matmul, mul, param_leaves,
                           permute_graph, reshape, softplus, sub, tape_output, take, transpose,
                           vsum)


def random_graph(n_nodes=5, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return ViewGraph(rng.standard_normal((n_nodes, dim)), rng.standard_normal(num_pairs(n_nodes)))


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
    out = enc.forward(params, [g])
    wh = g.node_features @ params.layers[0].W[0]
    expect = [wh[np.arange(5) != i].mean(axis=0) for i in range(5)]
    np.testing.assert_allclose(out.value[0], expect, rtol=0, atol=1e-12)


def test_permutation_equivariance():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=2, hidden_dim=8)
    params = init_params(cfg, 6, seed=4)
    g = random_graph(5, 6, seed=5)
    perm = [0, 2, 1, 4, 3]           # swap locals 1<->2 and 3<->4
    out = enc.forward(params, [g]).value[0]
    out_p = enc.forward(params, [permute_graph(g, perm)]).value[0]
    np.testing.assert_allclose(out_p, out[perm], atol=1e-9)


def test_output_graph_shapes_and_positivity():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=4, hidden_dim=16)
    params = init_params(cfg, 8, seed=6)
    g = random_graph(6, 8, seed=7)
    nodes = enc.forward(params, [g]).value
    assert nodes.shape == (1, 6, 16)
    out = ViewGraph(nodes[0], midpoint_weights(nodes[0]))
    assert out.edge_weights.shape == (num_pairs(6),)
    assert (out.edge_weights > 0).all()


def test_zero_upstream_gradient_gives_zero_param_grads():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=2, hidden_dim=8)
    params = init_params(cfg, 6, seed=8)
    g = random_graph(4, 6, seed=9)
    out = enc.forward(params, [g])
    grads = encoder_backward(params, out, np.zeros(out.shape))
    assert all(np.all(v == 0.0) for v in grads.values())


def test_single_linear_layer_hand_gradient():
    # one head, zero attention vector: h_i' = mean_{j != i} (W h_j), so for
    # loss = sum(outputs), dL/dW = sum_i mean_{j != i} h_j  (outer with ones)
    cfg = EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=3)
    params = init_params(cfg, 3, seed=10)
    params.layers[0].a[0][...] = 0.0
    g = random_graph(4, 3, seed=11)
    out = enc.forward(params, [g])
    params.zero_grads()
    encoder_backward(params, out, np.ones(out.shape))
    x = g.node_features
    acc = np.zeros((3, 3))
    for i in range(4):
        others = [j for j in range(4) if j != i]
        acc += np.outer(x[others].mean(axis=0), np.ones(3))
    np.testing.assert_allclose(params.grads["layer0.W"][0], acc, atol=1e-10)


def test_gradients_match_finite_differences():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=2, hidden_dim=8)
    params = init_params(cfg, 6, seed=12)
    g = random_graph(4, 6, seed=13)
    rng = np.random.default_rng(14)
    rn = rng.standard_normal((1, 4, 8))

    def loss_value():
        return float((enc.forward(params, [g]).value * rn).sum())

    params.zero_grads()
    encoder_backward(params, enc.forward(params, [g]), rn)

    checked = 0
    for name, arr in params.named_tensors():
        for _ in range(16):
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
    g = random_graph(3, 4, seed=16)
    nodes, weights = g.node_features.copy(), g.edge_weights.copy()
    nodes[0, 0] = weights[2] = np.nan
    for bad in (ViewGraph(nodes, g.edge_weights), ViewGraph(g.node_features, weights)):
        with pytest.raises(NumericError, match="layer 0"):
            enc.forward(params, [g, bad])


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
    ckpt.write_container(path, "test-encoder 1", {"kind": "encoder"}, params.named_tensors())
    config, tensors = ckpt.read_container(path, "test-encoder 1", "encoder", "save it again")
    assert config == {"kind": "encoder"}
    for (name, arr), (name2, arr2) in zip(params.named_tensors(), tensors.items(), strict=True):
        assert name == name2
        assert np.array_equal(arr, arr2)


def test_forward_deterministic():
    cfg = EncoderConfig()
    params = init_params(cfg, 16, seed=20)
    g = random_graph(9, 16, seed=21)
    a = enc.forward(params, [g]).value
    b = enc.forward(params, [g]).value
    assert np.array_equal(a, b)


def concat_forward(params, graphs):
    """Reference encoder with the unfactored edge channel: edge logits from
    (e P) a_edge and the edge update from both concatenated endpoint orders."""
    cfg = params.config
    n, b, heads = graphs[0].num_views, len(graphs), cfg.heads_per_layer
    idx_i, idx_j = upper_pairs(n)
    offdiag, diag_neg = 1.0 - np.eye(n), np.where(np.eye(n) > 0, enc._NEG, 0.0)
    pvars = params.by_layer(param_leaves(params))
    h = constant(np.stack([g.node_features for g in graphs]))
    weights = np.stack([g.edge_weights for g in graphs])
    e = constant(np.repeat(weights[..., None], params.in_dim, axis=2))
    for li, (node_in, head_dim, edge_in) in enumerate(enc._layer_dims(cfg, params.in_dim)):
        pv = pvars[li]
        Wh = matmul(reshape(h, (b, 1, n, node_in)), pv["W"])
        a_src, a_dst, a_edge = (
            reshape(take(pv["a"], np.arange(k * head_dim, (k + 1) * head_dim), axis=1),
                       (heads, head_dim, 1)) for k in range(3))
        s = matmul(Wh, a_src)
        t = reshape(matmul(Wh, a_dst), (b, heads, 1, n))
        eP = matmul(reshape(e, (b, 1, num_pairs(n), edge_in)), pv["P"])
        u_pair = matmul(eP, a_edge)
        u_mat = gathered_pair_matrix(u_pair, n)
        logits = add(leaky_relu(add(add(s, t), u_mat), enc.LEAKY_SLOPE), diag_neg)
        ex = mul(exp(sub(logits, logits.value.max(axis=-1, keepdims=True))), offdiag)
        alpha = div(ex, vsum(ex, axis=-1, keepdims=True))
        head_out = matmul(alpha, Wh)
        if li == cfg.num_layers - 1:
            h = mul(vsum(head_out, axis=1), 1.0 / heads)
        else:
            h = reshape(transpose(head_out, (0, 2, 1, 3)), (b, n, heads * head_dim))
            h = graphnorm(h, pv["norm_mean_scale"], pv["norm_scale"],
                          pv["norm_shift"], enc.NORM_EPS)
            zi = take(h, idx_i, axis=1)
            zj = take(h, idx_j, axis=1)
            fwd_ord = matmul(concat([zi, zj, e], axis=2), pv["edge_U"])
            rev_ord = matmul(concat([zj, zi, e], axis=2), pv["edge_U"])
            e = softplus(mul(add(fwd_ord, rev_ord), 0.5))
    return tape_output(params, pvars, h, True)


def assert_close_rel(actual, expect, rtol):
    np.testing.assert_allclose(actual, expect, rtol=rtol, atol=rtol * np.abs(expect).max())


@pytest.mark.parametrize("cfg, in_dim", [
    (EncoderConfig(), 32),
    (EncoderConfig(num_layers=3), 32),
    (EncoderConfig(), 12),
], ids=["default", "three_layers", "narrow_input"])
def test_forward_and_gradients_match_concat_form(cfg, in_dim):
    params = init_params(cfg, in_dim, seed=22)
    graphs = [random_graph(6, in_dim, seed=23 + k) for k in range(3)]
    rng = np.random.default_rng(24)
    out = enc.forward(params, graphs)
    ref = concat_forward(params, graphs)
    assert_close_rel(out.value, ref.value, 1e-12)

    node_g = rng.standard_normal(out.shape)
    grads = encoder_backward(params, out, node_g)
    ref_grads = encoder_backward(params, ref, node_g)
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
    for store, name, field in ((params, "layer1.P", lambda: params.layers[1].P),
                               (head, "cost.W1", lambda: head.W1)):
        value = np.full(field().shape, 0.25)
        store.set_tensor(name, value)
        assert np.array_equal(field(), value)
        view = dict(store.named_tensors())[name]
        assert np.shares_memory(view, store.buffer) and np.array_equal(view, value)
        with pytest.raises(ConfigError, match=f"^shape mismatch for {name}"):
            store.set_tensor(name, value[:1])
        with pytest.raises(ConfigError, match=r"^unknown tensor layer9\.W$"):
            store.set_tensor("layer9.W", value)


def test_check_finite_names_the_tensor():
    params = init_params(EncoderConfig(), 6, seed=32)
    head = CostHead(6, hidden=4, seed=32)
    for store, field, name, bad in ((params, params.layers[1].P[2], r"layer1\.P", np.nan),
                                    (head, head.b1, r"cost\.b1", -np.inf)):
        store.check_finite()
        field[0] = bad
        with pytest.raises(NumericError, match=f"^non-finite parameter tensor {name}$"):
            store.check_finite()


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_gradient_free_forward_equals_the_grad_forward_and_keeps_its_inputs(layers):
    # the pass without a backward frees and overwrites its own arrays only:
    # the same output bit for bit, and the graphs' arrays untouched
    params = init_params(EncoderConfig(num_layers=layers, heads_per_layer=2, hidden_dim=8),
                         8, seed=7)
    graphs = [random_graph(6, 8, seed=s) for s in range(5)]
    before = [(g.node_features.copy(), g.edge_weights.copy()) for g in graphs]
    plain = enc.forward(params, graphs, False)
    for g, (nodes, weights) in zip(graphs, before):
        assert np.array_equal(g.node_features, nodes) and np.array_equal(g.edge_weights, weights)
    assert np.array_equal(plain, enc.forward(params, graphs, True).value)


def test_gradient_free_forward_of_a_16_class_chunk_allocates_at_most_3_0_mb():
    # one inference chunk at the benchmark's eval_many_classes shapes: 24
    # graphs of 16 views and the global one, 32 features, the default encoder.
    # The attention arrays are freed before the edge update, the final layer
    # frees its input edges once their logits are taken, and no backward
    # record is kept. With the attention arrays alive until the edge update
    # the peak was 3.89 MB; with the last edges alive through the final
    # layer, 3.31 MB. It is 2.85 MB, at the hidden layer's edge update.
    params = init_params(EncoderConfig(), 32, seed=5)
    graphs = [random_graph(17, 32, seed=i) for i in range(24)]
    enc.forward(params, graphs, want_grad=False)         # fills the per-size caches
    tracemalloc.start()
    try:
        enc.forward(params, graphs, want_grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6, f"{peak / 1e6:.2f} MB"
