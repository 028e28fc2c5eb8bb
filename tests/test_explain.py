from itertools import combinations

import numpy as np
import pytest

from relviews.explain import (ExplanationSet, fidelity, fidelity_sparsity_curve,
                              curve_csv, macs_at_k, macs_csv, random_explanation,
                              top_k_explanation)
from relviews.graphs import ExplanationSubgraph, ViewGraph, num_pairs
from relviews.hed import CostHead, hed
from relviews.proxies import ProxyGraph
from relviews.transitivity import TransitivityConfig, count_k_cliques_with_global
from tests.helpers import ConstantCostHead


def weight_graph(w: np.ndarray, label=0) -> ViewGraph:
    n = w.shape[0]
    return ViewGraph(np.zeros((n, 1)), [w[i, j] for i, j in combinations(range(n), 2)],
                     label=label)


def random_labeled_graph(n, dim, rng, label=0) -> ViewGraph:
    return ViewGraph(rng.standard_normal((n, dim)), np.abs(rng.standard_normal(num_pairs(n))),
                     label=label)


def dummy_proxy(dim=1, slots=2) -> ProxyGraph:
    return ProxyGraph(np.zeros((slots, dim)))


def proxy_from_graph(g: ViewGraph) -> ProxyGraph:
    return ProxyGraph(g.node_features.copy())


def test_full_graph_explanations_give_zero_fidelity_and_sparsity(rng):
    graphs = [random_labeled_graph(5, 3, rng, label=0) for _ in range(3)]
    proxies = {0: proxy_from_graph(random_labeled_graph(5, 3, rng, label=0))}
    expls = ExplanationSet(tuple(ExplanationSubgraph(g, frozenset(range(5)))
                                 for g in graphs), proxies)
    assert fidelity(expls, ConstantCostHead(1.0)) == pytest.approx(0.0, abs=1e-12)
    [(_, sp, _)] = fidelity_sparsity_curve(graphs, proxies, ConstantCostHead(1.0), [4])
    assert sp == 0.0


def test_fidelity_is_difference_of_distances(rng):
    g = random_labeled_graph(6, 4, rng, label=0)
    proxy = proxy_from_graph(random_labeled_graph(6, 4, rng, label=0))
    head = ConstantCostHead(0.7)
    sub = ExplanationSubgraph(g, frozenset({0, 1, 2}))
    expls = ExplanationSet((sub,), {0: proxy})
    h_sub = hed(sub.as_graph(), proxy.node_centroids, head).value
    h_full = hed(g, proxy.node_centroids, head).value
    assert fidelity(expls, head) == pytest.approx(h_sub - h_full, abs=1e-12)


def test_fidelity_matches_per_instance_oracle(rng):
    graphs = [random_labeled_graph(5, 3, rng, label=i % 2) for i in range(6)]
    proxies = {0: proxy_from_graph(random_labeled_graph(5, 3, rng, label=0)),
               1: proxy_from_graph(random_labeled_graph(5, 3, rng, label=1))}
    head = ConstantCostHead(0.4)
    expls = ExplanationSet(tuple(top_k_explanation(g, 2) for g in graphs), proxies)
    per_instance = []
    for ex in expls.entries:
        p = proxies[ex.parent.label].node_centroids
        per_instance.append(hed(ex.as_graph(), p, head).value - hed(ex.parent, p, head).value)
    assert fidelity(expls, head) == pytest.approx(np.mean(per_instance), abs=1e-12)


def test_sparsity_six_of_sixtyfive(rng):
    g = random_labeled_graph(65, 2, rng, label=0)
    # the global view and 5 locals kept
    [(_, sp, _)] = fidelity_sparsity_curve([g], {0: dummy_proxy(dim=2)},
                                                 ConstantCostHead(1.0), [5])
    assert sp == pytest.approx(1.0 - 6.0 / 65.0, abs=1e-12)


def test_sparsity_mean_of_per_instance_values(rng):
    g1 = random_labeled_graph(10, 2, rng, label=0)
    g2 = random_labeled_graph(8, 2, rng, label=0)
    [(_, sp, _)] = fidelity_sparsity_curve([g1, g2], {0: dummy_proxy(dim=2)},
                                                 ConstantCostHead(1.0), [3])
    expect = np.mean([1 - 4 / 10, 1 - 4 / 8])
    assert sp == pytest.approx(expect, abs=1e-12)


def test_top_k_ranking_and_tie_break():
    w = np.zeros((5, 5))
    w[0, 1] = w[1, 0] = 3.0
    w[0, 2] = w[2, 0] = 1.0
    w[0, 3] = w[3, 0] = 3.0   # tie with view 1: lower index first
    w[0, 4] = w[4, 0] = 0.5
    g = weight_graph(w)
    ex = top_k_explanation(g, 2)
    assert ex.node_subset == frozenset({0, 1, 3})
    full = top_k_explanation(g, 99)
    assert full.node_subset == frozenset(range(5))


def test_curve_has_requested_points_and_zero_at_full(rng):
    graphs = [random_labeled_graph(6, 3, rng, label=0) for _ in range(4)]
    proxies = {0: proxy_from_graph(random_labeled_graph(6, 3, rng, label=0))}
    rows = fidelity_sparsity_curve(graphs, proxies, ConstantCostHead(1.0), [1, 3, 5])
    assert [r[0] for r in rows] == [1, 3, 5]
    assert rows[-1][1] == 0.0                      # top_k = all locals
    assert rows[-1][2] == pytest.approx(0.0, abs=1e-12)
    assert rows[0][1] > rows[1][1] > rows[2][1]    # sparsity falls as k grows


def test_curve_csv_format(rng):
    graphs = [random_labeled_graph(5, 3, rng, label=0)]
    proxies = {0: proxy_from_graph(random_labeled_graph(5, 3, rng, label=0))}
    rows = fidelity_sparsity_curve(graphs, proxies, ConstantCostHead(1.0), [2, 4])
    text = curve_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "k,sparsity,fidelity"
    assert len(lines) == 3
    assert len(lines[1].split(",")[1].split(".")[1]) == 6   # six decimals


def degree_controlled_graph(high_global_edges: int, label=0) -> ViewGraph:
    """Explanation parent whose global view has a chosen above-threshold degree."""
    n = 7
    w = np.zeros((n, n))
    for i in range(1, high_global_edges + 1):
        w[0, i] = w[i, 0] = 10.0
    return weight_graph(w, label=label)


def make_set(global_degrees, label=0):
    entries = []
    for deg in global_degrees:
        g = degree_controlled_graph(deg, label=label)
        entries.append(ExplanationSubgraph(g, frozenset(range(7))))
    return ExplanationSet(tuple(entries), {label: dummy_proxy()})


def test_macs_identical_sets_is_one(rng):
    a = make_set([3, 4, 5])
    assert macs_at_k(a, a, 2, TransitivityConfig(gamma=1.0)) == 1.0


def test_macs_zero_vs_nonzero_is_zero():
    a = make_set([0, 0])
    b = make_set([3, 3])
    assert macs_at_k(a, b, 2, TransitivityConfig(gamma=1.0)) == 0.0


def test_macs_four_vs_five_single_class():
    # k = 2 cliques containing the global = its above-threshold degree
    a = make_set([4, 4])
    b = make_set([5, 5])
    cfg = TransitivityConfig(gamma=1.0)
    assert macs_at_k(a, b, 2, cfg) == pytest.approx(1.0 - 1.0 / 5.0)
    assert macs_at_k(b, a, 2, cfg) == pytest.approx(macs_at_k(a, b, 2, cfg))


def test_macs_in_unit_interval(rng):
    cfg = TransitivityConfig(gamma=0.5)
    for _ in range(10):
        a = make_set(list(rng.integers(0, 6, size=3)))
        b = make_set(list(rng.integers(0, 6, size=3)))
        val = macs_at_k(a, b, 2, cfg)
        assert 0.0 <= val <= 1.0


def test_macs_requires_matching_instances(rng):
    a = make_set([3, 3])
    b = make_set([3])
    with pytest.raises(ValueError):
        macs_at_k(a, b, 2, TransitivityConfig(gamma=1.0))


def test_macs_csv_format():
    assert macs_csv([(4, 0.99)]) == "k,macs\n4,0.990000\n"


def test_random_explanation_contains_global(rng):
    g = random_labeled_graph(8, 2, rng, label=0)
    ex = random_explanation(g, 3, rng)
    assert 0 in ex.node_subset
    assert len(ex.node_subset) == 4


def mixed_explanations(rng, n_graphs=12, n=9, dim=4, labels=3):
    """Explanations over several classes and kept sizes, the full size included."""
    graphs = [random_labeled_graph(n, dim, rng, label=i % labels) for i in range(n_graphs)]
    proxies = {c: ProxyGraph(rng.standard_normal((5, dim))) for c in range(labels)}
    entries = tuple(random_explanation(g, int(rng.integers(0, n)), rng) for g in graphs)
    return ExplanationSet(entries, proxies)


def test_batched_fidelity_matches_per_explanation_hed(rng):
    for head in (CostHead(4, hidden=6, seed=3), ConstantCostHead(0.8)):
        expls = mixed_explanations(rng)
        assert len({(ex.parent.label, len(ex.node_subset)) for ex in expls.entries}) > 3
        oracle = []
        for ex in expls.entries:
            p = expls.proxies[ex.parent.label].node_centroids
            oracle.append(hed(ex.as_graph(), p, head).value - hed(ex.parent, p, head).value)
        assert fidelity(expls, head) == pytest.approx(np.mean(oracle), abs=1e-12)


def test_curve_equals_fidelity_of_each_top_k_set(rng):
    # 16 nodes: numpy sums 8 or more terms pairwise, not in order
    for n in (7, 16):
        graphs = [random_labeled_graph(n, 3, rng, label=i % 3) for i in range(7)]
        proxies = {c: proxy_from_graph(random_labeled_graph(4, 3, rng, label=c))
                   for c in range(3)}
        head = CostHead(3, hidden=5, seed=1)
        ks = [1, 3, n - 1]
        rows = fidelity_sparsity_curve(graphs, proxies, head, ks)
        for (k, sp, fid) in rows:
            expls = ExplanationSet(tuple(top_k_explanation(g, k) for g in graphs), proxies)
            assert fid == fidelity(expls, head)
            assert sp == np.mean([1.0 - len(ex.node_subset) / n for ex in expls.entries])
        assert rows[-1][2] == 0.0   # k = all locals: the full graphs' own distances


def test_top_k_equals_sorted_emergence(rng):
    # rounded weights tie often
    for trial in range(60):
        n = int(rng.integers(2, 12))
        weights = np.round(rng.random(num_pairs(n)), 1)
        g = ViewGraph(np.zeros((n, 1)), weights, label=0)
        ranked = sorted(range(1, n), key=lambda v: (-weights[v - 1], v))
        for k in range(n + 1):
            assert top_k_explanation(g, k).node_subset == frozenset(ranked[:k]) | {0}


def test_macs_equals_per_explanation_thresholds(rng):
    cfg = TransitivityConfig()
    for k in (2, 3, 4):
        graphs = [random_labeled_graph(9, 2, rng, label=i % 3) for i in range(9)]
        proxies = {c: dummy_proxy(dim=2) for c in range(3)}
        a = ExplanationSet(tuple(top_k_explanation(g, 5) for g in graphs), proxies)
        b = ExplanationSet(tuple(random_explanation(g, int(rng.integers(2, 8)), rng)
                                 for g in graphs), proxies)

        def class_counts(expls):
            per_class = {}
            for ex in expls.entries:
                sub = ex.as_graph()
                gamma = cfg.resolve_rows(sub.edge_weights[None])[0]
                per_class.setdefault(ex.parent.label, []).append(
                    count_k_cliques_with_global(sub, k, gamma))
            return {c: np.mean(v) for c, v in per_class.items()}
        ca, cb = class_counts(a), class_counts(b)
        diffs = [0.0 if max(ca[c], cb[c]) == 0 else abs(ca[c] - cb[c]) / max(ca[c], cb[c])
                 for c in sorted(ca)]
        assert macs_at_k(a, b, k, cfg) == 1.0 - float(np.mean(diffs))


def test_fidelity_over_node_and_slot_counts_matches_per_instance_hed(rng):
    head = CostHead(4, hidden=6, seed=7)
    graphs = [random_labeled_graph(n, 4, rng, label=c)
              for n in (6, 11) for c in (0, 1) for _ in range(3)]
    proxies = {c: ProxyGraph(rng.standard_normal((slots, 4))) for c, slots in ((0, 3), (1, 9))}
    expls = ExplanationSet(tuple(random_explanation(g, int(rng.integers(0, g.num_views)), rng)
                                 for g in graphs), proxies)
    oracle = []
    for ex in expls.entries:
        p = proxies[ex.parent.label].node_centroids
        oracle.append(hed(ex.as_graph(), p, head).value - hed(ex.parent, p, head).value)
    assert fidelity(expls, head) == pytest.approx(np.mean(oracle), abs=1e-12)


def test_empty_sets_are_refused(rng):
    proxies = {0: dummy_proxy()}
    with pytest.raises(ValueError, match="empty"):
        fidelity(ExplanationSet((), proxies), ConstantCostHead(1.0))
    with pytest.raises(ValueError, match="empty"):
        fidelity_sparsity_curve([], proxies, ConstantCostHead(1.0), [2])


def test_negative_explanation_sizes_are_refused(rng):
    g = random_labeled_graph(8, 2, rng, label=0)
    with pytest.raises(ValueError, match="non-negative"):
        top_k_explanation(g, -1)
    with pytest.raises(ValueError, match="non-negative"):
        random_explanation(g, -2, rng)
    with pytest.raises(ValueError, match="non-negative"):
        fidelity_sparsity_curve([g], {0: dummy_proxy(dim=2)}, ConstantCostHead(1.0), [2, -1])
    assert top_k_explanation(g, 0).node_subset == {0}
