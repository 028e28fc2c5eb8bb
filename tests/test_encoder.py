import numpy as np
import pytest

from relviews import checkpoint as ckpt
from relviews import encoder as enc
from relviews.encoder import EncoderConfig, distinguishability, init_params
from relviews.errors import ConfigError, NumericError
from relviews.graphs import ViewGraph, num_pairs, pair_index, pair_list
from tests.conftest import central_diff, rel_error


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
    grads = enc.backward(tape, np.zeros(tape.node_out.shape),
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
    enc.backward(tape, np.ones(tape.node_out.shape))
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
    enc.backward(tape, rn[None], re[None])

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
