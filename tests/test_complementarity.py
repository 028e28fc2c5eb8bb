from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from relviews.complementarity import WEIGHT_CAP, build_dataset
from relviews.graphs import ViewGraph, num_pairs, pair_rows
from relviews.synth import SynthConfig, SynthDataset, SynthInstance, generate
from tests.helpers import instance_build


def build_one(embeddings, uniform: bool = False) -> ViewGraph:
    """`build_dataset` of a one-instance dataset whose views are the rows of
    `embeddings`, the global view first."""
    emb = np.asarray(embeddings, dtype=np.float64)
    k = emb.shape[0] - 1
    inst = SynthInstance(0, emb, np.zeros(k, dtype=int))
    [graph] = build_dataset(SynthDataset(SynthConfig(), [inst]), 1, uniform=uniform)
    return graph


def test_identical_unit_vectors_give_unit_edge():
    v = np.zeros(4)
    v[0] = 1.0
    g = build_one(np.stack([np.ones(4) / 2.0, v, v]))
    assert g.weight_matrix()[1, 2] == pytest.approx(1.0)


def test_orthogonal_vectors_hit_cap():
    e1, e2 = np.eye(4)[0], np.eye(4)[1]
    g = build_one(np.stack([np.ones(4), e1, e2]))
    assert g.weight_matrix()[1, 2] == WEIGHT_CAP == 1e4


def test_global_edges_all_ones():
    rng = np.random.default_rng(0)
    g = build_one(rng.standard_normal((6, 8)))
    assert np.array_equal(g.weight_matrix()[0, 1:], np.ones(5))


def test_monotone_in_absolute_dot():
    # lower |dot| -> larger edge weight, until the cap
    base = np.zeros(8)
    base[0] = 1.0
    prev = None
    for ang in (0.2, 0.5, 0.9, 1.3):
        other = np.zeros(8)
        other[0], other[1] = np.cos(ang), np.sin(ang)
        g = build_one(np.stack([np.ones(8), base, other]))
        w = g.weight_matrix()[1, 2]
        if prev is not None:
            assert w > prev
        prev = w


def test_views_are_scaled_to_unit_norm():
    a = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 5.0], [0.0, 0.0]])
    g = build_one(a)
    assert np.array_equal(g.node_features, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_uniform_ablation_edges():
    rng = np.random.default_rng(2)
    g = build_one(rng.standard_normal((5, 4)), uniform=True)
    assert np.array_equal(g.edge_weights, np.ones(num_pairs(5)))


def test_dataset_build_order_and_counts():
    ds = generate(SynthConfig(num_classes=2, instances_per_class=5,
                              views_per_instance=16, feature_dim=8, seed=1))
    graphs = build_dataset(ds, 8)
    assert len(graphs) == 10
    assert all(g.label == inst.label for g, inst in zip(graphs, ds.instances))
    assert all(g.edge_weights.shape == (136,) for g in graphs)  # C(17, 2)


def test_dataset_build_deterministic():
    ds = generate(SynthConfig(num_classes=2, instances_per_class=3,
                              views_per_instance=8, feature_dim=8, seed=1))
    g1 = build_dataset(ds, 8)
    g2 = build_dataset(ds, 8)
    for a, b in zip(g1, g2):
        assert np.array_equal(a.node_features, b.node_features)
        assert np.array_equal(a.edge_weights, b.edge_weights)


def loop_build(embeddings, uniform=False):
    """Per-pair reference for `build_one`: one Python dot product per local pair."""
    emb = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    emb = emb / np.where(norms == 0, 1.0, norms)
    weights = np.ones(num_pairs(emb.shape[0]))
    if not uniform:
        for r, (i, j) in enumerate(combinations(range(emb.shape[0]), 2)):
            if i == 0 or j == 0:
                continue
            dot = abs(float(emb[i] @ emb[j]))
            weights[r] = WEIGHT_CAP if dot == 0 else min(1.0 / dot, WEIGHT_CAP)
    return emb, weights


def test_build_equals_per_pair_loop():
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(200):
        n, dim = int(rng.integers(2, 18)), int(rng.integers(1, 40))
        cases.append(rng.standard_normal((n, dim)))
    eye = np.eye(5)
    cases.append(np.stack([np.ones(5), eye[0], eye[1], eye[2]]))   # orthogonal: cap
    cases.append(np.stack([eye[1], eye[3], eye[0], np.zeros(5)]))  # zero vector
    cases.append(np.stack([np.ones(5), eye[0], 1e-5 * eye[0] + eye[1]]))  # 1/dot past cap
    for emb in cases:
        for uniform in (False, True):
            g = build_one(emb, uniform=uniform)
            nodes, weights = loop_build(emb, uniform=uniform)
            assert np.array_equal(g.node_features, nodes)
            assert np.array_equal(g.edge_weights, weights)


def planted_dataset(count: int) -> SynthDataset:
    """Random instances plus planted ones: an orthogonal local pair (capped
    weight), a pair whose 1/|dot| lands exactly on the cap, a zero local view
    and a large scale. The unit view (1e-4, s, 0, 0, 0), s one ulp above
    sqrt(1 - 1e-8), has the norm 1.0 and the dot product 1e-4 with e0, whose
    reciprocal is the cap 1e4."""
    ds = generate(SynthConfig(num_classes=3, instances_per_class=5, views_per_instance=4,
                              feature_dim=5, seed=7))
    eye = np.eye(5)
    on_cap = np.array([1e-4, np.nextafter(np.sqrt(1.0 - 1e-8), 2.0), 0.0, 0.0, 0.0])
    planted = [np.stack([eye[0], eye[1], eye[2], eye[3]]),
               np.stack([np.ones(5), eye[0], on_cap, eye[2]]),
               np.stack([np.ones(5), eye[0], np.zeros(5), eye[1]]),
               1e150 * np.stack([np.ones(5), eye[0], eye[0] + eye[1], eye[2]])]
    instances = list(ds.instances)
    for slot, locals_ in zip((1, 6, 7, 11), planted):
        instances[slot] = replace(instances[slot],
                                  embeddings=np.vstack([instances[slot].embeddings[:1], locals_]))
    return SynthDataset(ds.config, instances[:count])


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("count, chunk", [(15, 4), (13, 8), (15, 1), (3, 16)])
def test_batched_build_equals_per_instance_build(uniform, count, chunk):
    ds = planted_dataset(count)
    graphs = build_dataset(ds, chunk, uniform=uniform)
    assert len(graphs) == count
    for g, inst in zip(graphs, ds.instances):
        ref = instance_build(inst.embeddings, label=inst.label, uniform=uniform)
        assert g.label == ref.label
        assert np.array_equal(g.node_features, ref.node_features)
        assert np.array_equal(g.edge_weights, ref.edge_weights)
    assert graphs[1].edge_weights[pair_rows(1, 2, 5)] == (1.0 if uniform else WEIGHT_CAP)
    if count > 6 and not uniform:
        assert graphs[6].edge_weights[pair_rows(2, 3, 5)] == WEIGHT_CAP   # 1/1e-4

