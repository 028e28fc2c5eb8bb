import math
from itertools import combinations

import numpy as np
import pytest

from relviews.graphs import (ExplanationSubgraph, ViewGraph, edge_weight, export_dot,
                             induced_subgraph, num_pairs, pair_rows, upper_pairs)
from tests.helpers import edge_feature


def make_graph(n_nodes=5, dim=4, seed=0, label=None):
    rng = np.random.default_rng(seed)
    return ViewGraph(rng.standard_normal((n_nodes, dim)),
                     rng.standard_normal((num_pairs(n_nodes), dim)), label=label)


def pairs(n: int) -> list[tuple[int, int]]:
    """Reference pair order: lexicographic (i, j) with i < j."""
    return list(combinations(range(n), 2))


def test_pair_rows_match_enumeration():
    for n in range(1, 9):
        for r, (i, j) in enumerate(pairs(n)):
            assert pair_rows(i, j, n) == r
        a, b = upper_pairs(n)
        assert list(zip(a.tolist(), b.tolist())) == pairs(n)
        assert np.array_equal(pair_rows(a, b, n), np.arange(num_pairs(n)))


def test_edge_count_is_choose_two():
    for n in (2, 4, 9, 17):
        g = make_graph(n)
        assert g.edge_features.shape[0] == n * (n - 1) // 2


def test_edge_weight_zero_vector():
    g = ViewGraph(np.zeros((2, 3)), np.zeros((1, 3)))
    assert edge_weight(g, 0, 1) == 0.0


def test_edge_weight_three_four_five():
    g = ViewGraph(np.zeros((2, 2)), np.array([[3.0, 4.0]]))
    assert edge_weight(g, 0, 1) == pytest.approx(5.0)


def test_edge_weight_matches_scalar_recomputation(rng):
    # oracle: explicit sqrt of a running sum of squares
    feats = rng.standard_normal((num_pairs(5), 8))
    g = ViewGraph(rng.standard_normal((5, 8)), feats)
    for r, (i, j) in enumerate(pairs(5)):
        acc = 0.0
        for x in feats[r]:
            acc += float(x) * float(x)
        assert edge_weight(g, i, j) == pytest.approx(math.sqrt(acc), abs=1e-12)


def test_edge_weight_symmetric(rng):
    g = make_graph(6, seed=3)
    for i, j in pairs(6):
        assert edge_weight(g, i, j) == edge_weight(g, j, i)


def test_edge_weight_errors():
    g = make_graph(4)
    with pytest.raises(ValueError):
        edge_weight(g, 2, 2)
    with pytest.raises(IndexError):
        edge_weight(g, 0, 9)


def test_induced_full_set_is_identity():
    g = make_graph(6, label=3)
    sub = induced_subgraph(g, range(6))
    assert np.array_equal(sub.node_features, g.node_features)
    assert np.array_equal(sub.edge_features, g.edge_features)
    assert sub.label == 3


def test_induced_two_nodes_keeps_edge():
    g = make_graph(5)
    sub = induced_subgraph(g, [0, 3])
    assert sub.num_views == 2
    assert np.array_equal(sub.edge_features[0], edge_feature(g, 0, 3))


def test_induced_six_of_seventeen_has_fifteen_edges():
    g = make_graph(17)
    sub = induced_subgraph(g, [0, 2, 5, 7, 11, 16])
    assert sub.edge_features.shape[0] == 15


def test_induced_requires_global():
    g = make_graph(5)
    with pytest.raises(ValueError):
        induced_subgraph(g, [1, 2])


def test_induced_idempotent():
    g = make_graph(8, seed=5)
    sub = induced_subgraph(g, [0, 1, 4, 6])
    again = induced_subgraph(sub, range(sub.num_views))
    assert np.array_equal(sub.node_features, again.node_features)
    assert np.array_equal(sub.edge_features, again.edge_features)
    # prefix subsets keep their indices, so literal re-application agrees too
    pre = induced_subgraph(g, [0, 1, 2])
    assert np.array_equal(induced_subgraph(pre, [0, 1, 2]).node_features,
                          pre.node_features)


def test_dot_two_nodes_single_edge_line():
    g = make_graph(2)
    text = export_dot(g)
    assert sum(1 for ln in text.splitlines() if "--" in ln) == 1


def test_dot_deterministic():
    g = make_graph(5, seed=9)
    assert export_dot(g, weights_as_labels=True) == export_dot(g, weights_as_labels=True)


def test_dot_four_nodes_six_edges_and_styles():
    g = make_graph(4)
    text = export_dot(g, weights_as_labels=True)
    lines = text.splitlines()
    assert sum(1 for ln in lines if "--" in ln) == 6
    assert any("doublecircle" in ln and "v0" in ln for ln in lines)
    assert text.endswith("}\n")
    assert "\r" not in text
    for ln in lines:
        if "--" in ln:
            assert 'label="' in ln and len(ln.split('label="')[1].split('"')[0].split(".")[1]) == 3


def test_viewgraph_validation():
    with pytest.raises(ValueError):
        ViewGraph(np.zeros((3, 2)), np.zeros((2, 2)))   # wrong edge count
    with pytest.raises(ValueError):
        ViewGraph(np.zeros((3, 2)), np.zeros((3, 3)))   # wrong edge dim


def test_explanation_subgraph_contracts():
    g = make_graph(6)
    ex = ExplanationSubgraph(g, frozenset({0, 2, 4}))
    assert ex.size == 3
    assert ex.as_graph().num_views == 3
    with pytest.raises(ValueError):
        ExplanationSubgraph(g, frozenset({1, 2}))   # missing global
    with pytest.raises(ValueError):
        ExplanationSubgraph(g, frozenset())


def loop_induced(g: ViewGraph, subset: list[int]):
    """Per-pair reference for `induced_subgraph`: one edge row at a time."""
    edges = np.array([edge_feature(g, subset[a], subset[b])
                      for a, b in pairs(len(subset))]).reshape(-1, g.feature_dim)
    return g.node_features[subset], edges


def test_induced_subgraph_equals_per_pair_loop(rng):
    for trial in range(200):
        n = int(rng.integers(1, 20))
        g = ViewGraph(rng.standard_normal((n, 3)), rng.standard_normal((num_pairs(n), 3)),
                      label=trial)
        keep = rng.permutation(np.arange(1, n))[:int(rng.integers(0, n))]
        subset = sorted({0, *(int(v) for v in keep)})
        sub = induced_subgraph(g, reversed(subset))
        nodes, edges = loop_induced(g, subset)
        assert np.array_equal(sub.node_features, nodes)
        assert np.array_equal(sub.edge_features, edges)
        assert sub.label == trial


def test_weight_matrix_equals_per_pair_edge_weights(rng):
    for n in (1, 2, 5, 17):
        g = make_graph(n, dim=6, seed=n)
        w = g.weight_matrix()
        expect = np.zeros((n, n))
        flat = g.edge_weights()
        for r, (i, j) in enumerate(pairs(n)):
            expect[i, j] = expect[j, i] = flat[r]
        assert np.array_equal(w, expect)
