from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from relviews.graphs import ViewGraph, edge_weight, num_pairs
from relviews.transitivity import (ContinentReport, TransitivityConfig,
                                   count_k_cliques_with_global, cut_edge_mass,
                                   emergence_scores, find_continents,
                                   is_transitive_triple, mean_intra_edge_weight,
                                   pairwise_emergence, sample_complexity_noisy,
                                   sample_complexity_transitive, topology_count,
                                   turan_edge_bound)


def graph_from_weights(w: np.ndarray) -> ViewGraph:
    """Graph whose edge weight (i, j) equals w[i, j] (1-dim edge features)."""
    n = w.shape[0]
    edges = np.zeros((num_pairs(n), 1))
    for r, (i, j) in enumerate(combinations(range(n), 2)):
        edges[r, 0] = w[i, j]
    return ViewGraph(np.zeros((n, 1)), edges)


def random_weight_graph(n, rng) -> ViewGraph:
    w = np.triu(rng.random((n, n)), k=1)
    return graph_from_weights(w + w.T)


def test_emergence_score_is_global_edge_weight():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.7
    g = graph_from_weights(w)
    scores = emergence_scores(g)
    assert scores[0] == pytest.approx(0.7)
    assert scores.tolist()[1:] == [0.0, 0.0]


def test_emergence_sorts_like_global_edges(rng):
    g = random_weight_graph(8, rng)
    scores = emergence_scores(g)
    weights = [g.weight_matrix()[0, i] for i in range(1, 8)]
    assert np.argsort(scores).tolist() == np.argsort(weights).tolist()


def test_pairwise_emergence_weakest_link(rng):
    for _ in range(20):
        g = random_weight_graph(6, rng)
        w = g.weight_matrix()
        for i, j in combinations(range(1, 6), 2):
            expect = min(w[0, i], w[0, j], w[i, j])
            assert pairwise_emergence(g, i, j) == pytest.approx(expect)


def test_pairwise_emergence_equal_and_zero_legs():
    w = np.full((4, 4), 2.0)
    np.fill_diagonal(w, 0.0)
    g = graph_from_weights(w)
    assert pairwise_emergence(g, 1, 2) == pytest.approx(2.0)
    w[0, 1] = w[1, 0] = 0.0
    g0 = graph_from_weights(w)
    assert pairwise_emergence(g0, 1, 2) == 0.0


def test_transitive_triple_cases():
    w = np.zeros((5, 5))
    for i in range(1, 5):
        w[0, i] = w[i, 0] = 10.0
    # all three pairwise scores above gamma -> implication holds
    for i, j in combinations(range(1, 4), 2):
        w[i, j] = w[j, i] = 5.0
    g = graph_from_weights(w)
    assert is_transitive_triple(g, 1, 2, 3, gamma=1.0).all_hold
    # exactly two high, one low -> violated for the rotation concluding low
    w2 = w.copy()
    w2[1, 3] = w2[3, 1] = 0.1
    g2 = graph_from_weights(w2)
    rep = is_transitive_triple(g2, 1, 2, 3, gamma=1.0)
    assert not rep.all_hold
    assert sum(rep.holds) == 2
    # at most one high -> vacuously holds
    w3 = w.copy()
    w3[1, 2] = w3[2, 1] = 0.1
    w3[1, 3] = w3[3, 1] = 0.1
    g3 = graph_from_weights(w3)
    assert is_transitive_triple(g3, 1, 2, 3, gamma=1.0).all_hold


def brute_force_maximal_cliques(nodes, above):
    """Oracle: all maximal cliques by scanning every subset (<= 2^10)."""
    nodes = list(nodes)
    cliques = []
    for r in range(2, len(nodes) + 1):
        for sub in combinations(nodes, r):
            if all(above.get((min(a, b), max(a, b)), False)
                   for a, b in combinations(sub, 2)):
                cliques.append(frozenset(sub))
    return [c for c in cliques
            if not any(c < other for other in cliques)]


def test_all_above_threshold_single_continent():
    w = np.full((6, 6), 3.0)
    np.fill_diagonal(w, 0.0)
    g = graph_from_weights(w)
    rep = find_continents(g, TransitivityConfig(gamma=1.0))
    assert rep.continents == (frozenset({1, 2, 3, 4, 5}),)
    assert rep.islands == ()


def test_bipartition_zero_cut():
    w = np.zeros((7, 7))
    for i in range(1, 7):
        w[0, i] = w[i, 0] = 10.0
    for grp in ({1, 2, 3}, {4, 5, 6}):
        for a, b in combinations(sorted(grp), 2):
            w[a, b] = w[b, a] = 9.0
    g = graph_from_weights(w)
    rep = find_continents(g, TransitivityConfig(gamma=5.0))
    assert set(rep.continents) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}
    assert rep.islands == ()
    # the two continents have no islands; cross-mass helper still works
    assert cut_edge_mass(g, {1, 2, 3}, {4, 5, 6}) == 0.0


def test_continents_match_exhaustive_enumeration(rng):
    for trial in range(60):
        n = int(rng.integers(4, 11))
        g = random_weight_graph(n, rng)
        gamma = float(rng.random())
        rep = find_continents(g, TransitivityConfig(gamma=gamma))
        locals_ = list(range(1, n))
        above = {}
        for i, j in combinations(locals_, 2):
            above[(i, j)] = pairwise_emergence(g, i, j) > gamma
        expected = brute_force_maximal_cliques(locals_, above)
        connected = {v for v in locals_
                     if any(above[(min(v, u), max(v, u))] for u in locals_ if u != v)}
        assert set(rep.continents) == set(expected), trial
        assert set().union(*rep.islands) if rep.islands else set() == set(locals_) - connected
        # continents + islands cover every local view
        covered = set().union(*rep.continents) if rep.continents else set()
        covered |= set().union(*rep.islands) if rep.islands else set()
        assert covered == set(locals_)
        # disjoint assignment partitions the continent nodes
        seen = set()
        for grp in rep.disjoint_continents:
            assert not (grp & seen)
            seen |= grp


def test_islands_form_single_component_on_complete_graphs(rng):
    w = np.zeros((6, 6))   # nothing above threshold
    g = graph_from_weights(w)
    rep = find_continents(g, TransitivityConfig(gamma=0.5))
    assert rep.continents == ()
    assert rep.islands == (frozenset({1, 2, 3, 4, 5}),)
    assert rep.cut_edge_mass == 0.0


def test_clique_count_complete_graph_closed_form():
    w = np.full((7, 7), 5.0)   # m = 6 locals, all edges above
    np.fill_diagonal(w, 0.0)
    g = graph_from_weights(w)
    from math import comb
    for k in range(1, 8):
        assert count_k_cliques_with_global(g, k, 1.0) == comb(6, k - 1)


def test_clique_count_k1_is_one(rng):
    g = random_weight_graph(5, rng)
    assert count_k_cliques_with_global(g, 1, 99.0) == 1


def test_clique_count_matches_brute_force(rng):
    for trial in range(60):
        n = int(rng.integers(3, 11))
        g = random_weight_graph(n, rng)
        w = g.weight_matrix()
        # below 0 the zero diagonal is above gamma too, yet no view is its own neighbour
        for gamma in (float(rng.random()), -0.5):
            for k in (2, 3, 4):
                expect = 0
                for sub in combinations(range(n), k):
                    if 0 not in sub:
                        continue
                    if all(w[a, b] > gamma for a, b in combinations(sub, 2)):
                        expect += 1
                assert count_k_cliques_with_global(g, k, gamma) == expect, (trial, gamma, k)


def test_clique_count_matches_brute_force_with_ties_at_gamma(rng):
    # weights drawn from {0.5, 1, 1.5}: many edges sit exactly at gamma = 1,
    # which is not above it
    for trial in range(80):
        n = int(rng.integers(1, 10))
        w = np.triu(rng.choice([0.5, 1.0, 1.5], size=(n, n)), k=1)
        w = w + w.T
        g = graph_from_weights(w)
        for k in range(1, 6):
            expect = sum(all(w[a, b] > 1.0 for a, b in combinations((0,) + group, 2))
                         for group in combinations(range(1, n), k - 1))
            assert count_k_cliques_with_global(g, k, 1.0) == expect, (trial, k)


def test_emergence_scores_equal_scalar_scores(rng):
    # the scalar weight is a norm; a sum of squares would differ in the last bit
    for trial in range(50):
        n = int(rng.integers(2, 18))
        g = ViewGraph(rng.standard_normal((n, 32)), rng.standard_normal((num_pairs(n), 32)))
        assert np.array_equal(emergence_scores(g), [edge_weight(g, v, 0) for v in range(1, n)])


def test_resolve_rows_equals_resolve_per_row(rng):
    scores = np.round(rng.random((9, 36)), 2)   # rounded: ties in every row
    for cfg in (TransitivityConfig(), TransitivityConfig(gamma_quantile=0.3),
                TransitivityConfig(gamma=0.4)):
        assert np.array_equal(cfg.resolve_rows(scores), [cfg.resolve(r) for r in scores])


def test_clique_count_monotone_in_gamma(rng):
    g = random_weight_graph(9, rng)
    gammas = np.linspace(0.0, 1.0, 11)
    counts = [count_k_cliques_with_global(g, 3, float(t)) for t in gammas]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_quantile_threshold_resolution():
    cfg = TransitivityConfig()
    vals = np.arange(101, dtype=float)
    assert cfg.resolve(vals) == pytest.approx(75.0)
    fixed = TransitivityConfig(gamma=3.5)
    assert fixed.resolve(vals) == 3.5


def test_mean_intra_edge_weight(rng):
    g = random_weight_graph(6, rng)
    w = g.weight_matrix()
    group = [1, 3, 5]
    expect = np.mean([w[1, 3], w[1, 5], w[3, 5]])
    assert mean_intra_edge_weight(g, group) == pytest.approx(expect)
    with pytest.raises(ValueError):
        mean_intra_edge_weight(g, [2])


# ------------------------------------------------------------- calculators

def test_topology_count_values():
    assert topology_count(2) == 2
    assert topology_count(4) == 16
    assert topology_count(6) == 512
    # exponent floors: 3*3//4 = 2
    assert topology_count(3) == 4
    # big-integer exactness
    assert topology_count(40) == 2 ** 400


def test_turan_values():
    assert turan_edge_bound(6, 3) == pytest.approx(12.0)
    assert turan_edge_bound(10, 5) == pytest.approx(40.0)
    assert turan_edge_bound(7, 1) == 0.0


def test_sample_complexity_transitive_values():
    assert sample_complexity_transitive(8, 1.0, 0.5) == pytest.approx(4.0)
    assert sample_complexity_transitive(1024, 0.1, 2.0 ** -10) == pytest.approx(200.0)
    assert sample_complexity_transitive(8, 1e9, 0.5) == pytest.approx(4e-9)


def test_sample_complexity_noisy_values():
    assert sample_complexity_noisy(8, 1.0, 0.5) == pytest.approx(9.0)
    assert sample_complexity_noisy(8, 0.1, 0.5) == pytest.approx(900.0)


def test_noisy_to_transitive_ratio_grows_as_inverse_epsilon():
    # fixed n = eta and delta: ratio M_eta / M_star = ((eta + L)/(log2 n + L)) / eps
    for eps in (1.0, 0.5, 0.1):
        ratio = sample_complexity_noisy(8, eps, 0.5) / sample_complexity_transitive(8, eps, 0.5)
        expect = Fraction(9, 4) / Fraction(eps).limit_denominator()
        assert ratio == pytest.approx(float(expect))


def test_calculator_domain_errors():
    with pytest.raises(ValueError):
        topology_count(-1)
    with pytest.raises(ValueError):
        turan_edge_bound(5, 0)
    with pytest.raises(ValueError):
        sample_complexity_transitive(0, 1, 0.5)
    with pytest.raises(ValueError):
        sample_complexity_noisy(8, 0, 0.5)
