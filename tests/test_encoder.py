import numpy as np
import pytest

from relviews import autodiff as ad
from relviews import checkpoint as ckpt
from relviews import encoder as enc
from relviews.encoder import EncoderConfig, distinguishability, init_params
from relviews.errors import ConfigError, NumericError
from relviews.graphs import ViewGraph, num_pairs, pair_index, pair_list
from relviews.hed import CostHead
from tests.conftest import central_diff, rel_error
from tests.helpers import encoder_backward, gathered_pair_matrix


def random_graph(n_nodes=5, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return ViewGraph(rng.standard_normal((n_nodes, dim)),
                     rng.standard_normal((num_pairs(n_nodes), dim)))


def permute_graph(g: ViewGraph, perm: list[int]) -> ViewGraph:
    """Node i of the result is node perm[i] of g (perm[0] must be 0)."""
    n = g.num_views
    nodes = g.node_features[perm]
    edges = np.empty_like(g.edge_features)
    for r, (i, j) in enumerate(pair_list(n)):
        edges[r] = g.edge_feature(perm[i], perm[j])
    return ViewGraph(nodes, edges)


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(num_layers=0)
    with pytest.raises(ConfigError):
        EncoderConfig(hidden_dim=10, heads_per_layer=4)


def test_zero_attention_gives_uniform_coefficients():
    # single final layer, zero attention vector: every neighbor weighs 1/k
    cfg = EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=8)
    params = init_params(cfg, 8, seed=0)
    params.layers[0].a[0][...] = 0.0
    g = random_graph(5, 8, seed=1)
    _, tape = enc.forward(params, [g])
    alpha = tape.attention[0][0][0]
    off = ~np.eye(5, dtype=bool)
    assert np.all(alpha[off] == 0.25)          # exactly 1/k with k = 4
    assert np.all(alpha[~off] == 0.0)


def test_attention_rows_sum_to_one():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=4, hidden_dim=8)
    params = init_params(cfg, 8, seed=2)
    g = random_graph(5, 8, seed=3)   # n=8, k=4
    _, tape = enc.forward(params, [g])
    for layer_att in tape.attention:
        for alpha in layer_att[0]:
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_permutation_equivariance():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=2, hidden_dim=8)
    params = init_params(cfg, 6, seed=4)
    g = random_graph(5, 6, seed=5)
    perm = [0, 2, 1, 4, 3]           # swap locals 1<->2 and 3<->4
    (out,), _ = enc.forward(params, [g])
    (out_p,), _ = enc.forward(params, [permute_graph(g, perm)])
    np.testing.assert_allclose(out_p.node_features, out.node_features[perm], atol=1e-9)
    n = g.num_views
    for r, (i, j) in enumerate(pair_list(n)):
        np.testing.assert_allclose(out_p.edge_features[r],
                                   out.edge_features[pair_index(perm[i], perm[j], n)],
                                   atol=1e-9)


def test_output_graph_shapes_and_positivity():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=4, hidden_dim=16)
    params = init_params(cfg, 8, seed=6)
    g = random_graph(6, 8, seed=7)
    (out,), _ = enc.forward(params, [g])
    assert out.node_features.shape == (6, 16)
    assert out.edge_features.shape == (num_pairs(6), 16)
    assert (out.edge_features > 0).all()       # softplus keeps edges positive


def test_zero_upstream_gradient_gives_zero_param_grads():
    cfg = EncoderConfig(num_layers=2, heads_per_layer=2, hidden_dim=8)
    params = init_params(cfg, 6, seed=8)
    g = random_graph(4, 6, seed=9)
    _, tape = enc.forward(params, [g])
    grads = encoder_backward(tape, np.zeros(tape.node_out.shape),
                         np.zeros(tape.edge_out.shape))
    assert all(np.all(v == 0.0) for v in grads.values())


def test_single_linear_layer_hand_gradient():
    # one head, zero attention vector: h_i' = mean_{j != i} (W h_j), so for
    # loss = sum(outputs), dL/dW = sum_i mean_{j != i} h_j  (outer with ones)
    cfg = EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=3)
    params = init_params(cfg, 3, seed=10)
    params.layers[0].a[0][...] = 0.0
    g = random_graph(4, 3, seed=11)
    _, tape = enc.forward(params, [g])
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
    (out,), _ = enc.forward(params, [g])
    rn = rng.standard_normal(out.node_features.shape)
    re = rng.standard_normal(out.edge_features.shape)

    def loss_value():
        (o,), _ = enc.forward(params, [g])
        return float((o.node_features * rn).sum() + (o.edge_features * re).sum())

    params.zero_grads()
    _, tape = enc.forward(params, [g])
    encoder_backward(tape, rn[None], re[None])

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
    (a,), _ = enc.forward(params, [g])
    (b,), _ = enc.forward(params, [g])
    assert np.array_equal(a.node_features, b.node_features)
    assert np.array_equal(a.edge_features, b.edge_features)


def concat_forward(params, graphs):
    """Reference encoder with the unfactored edge channel: edge logits from
    (e P) a_edge and the edge update from both concatenated endpoint orders."""
    cfg = params.config
    n, b, heads = graphs[0].num_views, len(graphs), cfg.heads_per_layer
    consts = enc._GraphConsts.get(n)
    pvars = [{key: None if arr is None else ad.leaf(arr) for key, arr in vars(layer).items()}
             for layer in params.layers]
    h = ad.constant(np.stack([g.node_features for g in graphs]))
    e = ad.constant(np.stack([g.edge_features for g in graphs]))
    attention = []
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
        logits = ad.leaky_relu(s + t + u_mat, cfg.leaky_slope) + consts.diag_neg
        ex = ad.exp(logits - logits.value.max(axis=-1, keepdims=True)) * consts.offdiag
        alpha = ex / ad.vsum(ex, axis=-1, keepdims=True)
        attention.append(alpha.value)
        head_out = ad.matmul(alpha, Wh)
        if li == cfg.num_layers - 1:
            h = ad.vsum(head_out, axis=1) * (1.0 / heads)
        else:
            h = ad.reshape(ad.transpose(head_out, (0, 2, 1, 3)), (b, n, heads * head_dim))
            h = enc._graphnorm(h, pv["norm_mean_scale"], pv["norm_scale"],
                               pv["norm_shift"], cfg.norm_eps)
        if updates:
            zi = ad.take(h, consts.idx_i, axis=1)
            zj = ad.take(h, consts.idx_j, axis=1)
            fwd_ord = ad.matmul(ad.concat([zi, zj, e], axis=2), pv["edge_U"])
            rev_ord = ad.matmul(ad.concat([zj, zi, e], axis=2), pv["edge_U"])
            e = ad.softplus((fwd_ord + rev_ord) * 0.5)
    return enc.EncoderTape(params, pvars, h, e, attention)


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
    _, tape = enc.forward(params, graphs)
    ref = concat_forward(params, graphs)
    assert_close_rel(tape.node_out.value, ref.node_out.value, 1e-12)
    assert_close_rel(tape.edge_out.value, ref.edge_out.value, 1e-12)
    for alpha, alpha_ref in zip(tape.attention, ref.attention, strict=True):
        assert_close_rel(alpha, alpha_ref, 1e-12)

    node_g = rng.standard_normal(tape.node_out.shape)
    edge_g = rng.standard_normal(tape.edge_out.shape)
    grads = encoder_backward(tape, node_g, edge_g)
    ref_grads = encoder_backward(ref, node_g, edge_g)
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


@pytest.mark.parametrize("batch", [1, 5, 8])
@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("edge_update", [True, False])
def test_node_only_forward_equals_full_forward(batch, num_layers, edge_update):
    cfg = EncoderConfig(num_layers=num_layers, heads_per_layer=2, hidden_dim=8,
                        edge_update=edge_update)
    params = init_params(cfg, 8, seed=40 + num_layers)
    graphs = [random_graph(6, 8, seed=50 + b) for b in range(batch)]
    full, tape = enc.forward(params, graphs, want_grad=False)
    outs, node_tape = enc.forward(params, graphs, want_grad=False, node_only=True)
    assert outs is None and node_tape.edge_out is None
    assert np.array_equal(node_tape.node_out.value, tape.node_out.value)
    for b, g in enumerate(full):
        assert np.array_equal(node_tape.node_out.value[b], g.node_features)
    for layer, layer_full in zip(node_tape.attention, tape.attention, strict=True):
        assert np.array_equal(layer, layer_full)


def test_node_only_forward_skips_the_final_edge_check():
    # final-layer edge logits that overflow the softplus: the full pass
    # refuses them, the node-only pass never computes them
    cfg = EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=4)
    params = init_params(cfg, 4, seed=19)
    params.layers[0].edge_U[-4:] = 1e308
    g = random_graph(3, 4, seed=20)
    g = ViewGraph(g.node_features, np.full_like(g.edge_features, 2.0))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="edge features after layer 0"):
        enc.forward(params, [g], want_grad=False)
    _, tape = enc.forward(params, [g], want_grad=False, node_only=True)
    assert np.isfinite(tape.node_out.value).all()
