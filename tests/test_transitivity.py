from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from relviews.graphs import ViewGraph, num_pairs
from relviews.transitivity import (TransitivityConfig, count_k_cliques_with_global,
                                   emergence_scores, sample_complexity_noisy,
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
