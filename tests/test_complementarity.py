from dataclasses import replace

import numpy as np
import pytest

from relviews.complementarity import ComplementarityConfig, build, build_dataset
from relviews.graphs import pair_list
from relviews.synth import SynthConfig, SynthDataset, generate
from tests.helpers import instance_build


def test_identical_unit_vectors_give_unit_edge():
    v = np.zeros(4)
    v[0] = 1.0
    g = build(np.stack([np.ones(4) / 2.0, v, v]), 0, ComplementarityConfig())
    assert np.allclose(g.edge_feature(1, 2), 1.0)


def test_orthogonal_vectors_hit_cap():
    e1, e2 = np.eye(4)[0], np.eye(4)[1]
    cfg = ComplementarityConfig(weight_cap=1e4)
    g = build(np.stack([np.ones(4), e1, e2]), 0, cfg)
    assert np.allclose(g.edge_feature(1, 2), 1e4)


def test_global_edges_all_ones():
    rng = np.random.default_rng(0)
    g = build(rng.standard_normal((6, 8)), 0, ComplementarityConfig())
    for j in range(1, 6):
        assert np.allclose(g.edge_feature(0, j), 1.0)


def test_global_index_moves_to_zero():
    rng = np.random.default_rng(1)
    emb = rng.standard_normal((4, 3))
    g = build(emb, 2, ComplementarityConfig(normalize_embeddings=False))
    assert np.array_equal(g.node_features[0], emb[2])
    assert g.global_index == 0


def test_monotone_in_absolute_dot():
    # lower |dot| -> larger edge components, until the cap
    base = np.zeros(8)
    base[0] = 1.0
    cfg = ComplementarityConfig(weight_cap=1e6)
    prev = None
    for ang in (0.2, 0.5, 0.9, 1.3):
        other = np.zeros(8)
        other[0], other[1] = np.cos(ang), np.sin(ang)
        g = build(np.stack([np.ones(8), base, other]), 0, cfg)
        w = g.edge_feature(1, 2)[0]
        assert np.allclose(g.edge_feature(1, 2), w)  # constant vector
        if prev is not None:
            assert w > prev
        prev = w


def test_normalization_flag():
    a = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 5.0]])
    g_norm = build(a, 0, ComplementarityConfig(normalize_embeddings=True))
    assert np.allclose(np.linalg.norm(g_norm.node_features, axis=1), 1.0)
    g_raw = build(a, 0, ComplementarityConfig(normalize_embeddings=False))
    assert np.array_equal(g_raw.node_features, a)


def test_uniform_ablation_edges():
    rng = np.random.default_rng(2)
    g = build(rng.standard_normal((5, 4)), 0, ComplementarityConfig(), uniform=True)
    for i, j in pair_list(5):
        assert np.allclose(g.edge_feature(i, j), 1.0)


def test_build_errors():
    with pytest.raises(ValueError):
        build(np.zeros((1, 3)), 0, ComplementarityConfig())
    with pytest.raises(IndexError):
        build(np.zeros((3, 3)), 7, ComplementarityConfig())


def test_dataset_build_order_and_counts():
    ds = generate(SynthConfig(num_classes=2, instances_per_class=5,
                              views_per_instance=16, feature_dim=8, seed=1))
    graphs = build_dataset(ds, ComplementarityConfig())
    assert len(graphs) == 10
    assert all(g.label == inst.label for g, inst in zip(graphs, ds.instances))
    assert all(g.edge_features.shape[0] == 136 for g in graphs)  # C(17, 2)


def test_dataset_build_deterministic():
    ds = generate(SynthConfig(num_classes=2, instances_per_class=3,
                              views_per_instance=8, feature_dim=8, seed=1))
    g1 = build_dataset(ds, ComplementarityConfig())
    g2 = build_dataset(ds, ComplementarityConfig())
    for a, b in zip(g1, g2):
        assert np.array_equal(a.node_features, b.node_features)
        assert np.array_equal(a.edge_features, b.edge_features)


def loop_build(embeddings, global_index, cfg, uniform=False):
    """Per-pair reference for `build`: one Python dot product per local pair."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if global_index != 0:
        order = [global_index] + [i for i in range(emb.shape[0]) if i != global_index]
        emb = emb[order]
    if cfg.normalize_embeddings:
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = emb / np.where(norms == 0, 1.0, norms)
    edges = np.ones((len(pair_list(emb.shape[0])), emb.shape[1]))
    if not uniform:
        for r, (i, j) in enumerate(pair_list(emb.shape[0])):
            if i == 0 or j == 0:
                continue
            dot = abs(float(emb[i] @ emb[j]))
            edges[r] = cfg.weight_cap if dot == 0 else min(1.0 / dot, cfg.weight_cap)
    return emb, edges


@pytest.mark.parametrize("normalize", [True, False])
def test_build_equals_per_pair_loop(normalize):
    rng = np.random.default_rng(20)
    cfg = ComplementarityConfig(weight_cap=50.0, normalize_embeddings=normalize)
    cases = []
    for _ in range(200):
        n, dim = int(rng.integers(2, 18)), int(rng.integers(1, 40))
        cases.append((rng.standard_normal((n, dim)), int(rng.integers(0, n))))
    eye = np.eye(5)
    cases.append((np.stack([np.ones(5), eye[0], eye[1], eye[2]]), 0))   # orthogonal: cap
    cases.append((np.stack([eye[3], eye[0], np.zeros(5), eye[1]]), 3))  # zero vector
    cases.append((np.stack([np.ones(5), eye[0], 1e-3 * eye[0] + eye[1]]), 0))  # 1/dot past cap
    for emb, gi in cases:
        for uniform in (False, True):
            g = build(emb, gi, cfg, uniform=uniform)
            nodes, edges = loop_build(emb, gi, cfg, uniform=uniform)
            assert np.array_equal(g.node_features, nodes)
            assert np.array_equal(g.edge_features, edges)


def planted_dataset(count: int) -> SynthDataset:
    """Random instances plus planted ones: an orthogonal local pair (capped
    weight), a pair whose 1/|dot| lands exactly on the cap, a zero local view
    and a large scale."""
    ds = generate(SynthConfig(num_classes=3, instances_per_class=5, views_per_instance=4,
                              feature_dim=5, seed=7))
    eye = np.eye(5)
    planted = [np.stack([eye[0], eye[1], eye[2], eye[3]]),
               np.stack([np.ones(5), eye[0], 0.5 * eye[0] + eye[1], eye[2]]),
               np.stack([np.ones(5), eye[0], np.zeros(5), eye[1]]),
               1e150 * np.stack([np.ones(5), eye[0], eye[0] + eye[1], eye[2]])]
    instances = list(ds.instances)
    for slot, locals_ in zip((1, 6, 7, 11), planted):
        instances[slot] = replace(instances[slot], local_embeddings=locals_)
    return SynthDataset(ds.config, instances[:count])


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("count, chunk", [(15, 4), (13, 8), (15, 1), (3, 16)])
def test_batched_build_equals_per_instance_build(normalize, uniform, count, chunk):
    # weight cap 2 = 1/|0.5|: the planted 0.5 dot product lands exactly on the cap
    cfg = ComplementarityConfig(weight_cap=2.0, normalize_embeddings=normalize)
    ds = planted_dataset(count)
    graphs = build_dataset(ds, cfg, uniform=uniform, chunk_size=chunk)
    assert len(graphs) == count
    for g, inst in zip(graphs, ds.instances):
        ref = instance_build(inst.embeddings(), 0, cfg, label=inst.label, uniform=uniform)
        assert g.label == ref.label and g.global_index == 0
        assert np.array_equal(g.node_features, ref.node_features)
        assert np.array_equal(g.edge_features, ref.edge_features)
    pair = pair_list(5).index((1, 2))
    assert (graphs[1].edge_features[pair] == (1.0 if uniform else 2.0)).all()  # orthogonal
    if count > 6 and not (normalize or uniform):
        at_cap = graphs[6].edge_features[pair_list(5).index((2, 3))]
        assert (at_cap == 2.0).all()                           # 1/0.5, at the cap


def test_single_build_equals_per_instance_build():
    rng = np.random.default_rng(21)
    cfg = ComplementarityConfig(weight_cap=50.0)
    for _ in range(50):
        n, dim = int(rng.integers(2, 18)), int(rng.integers(1, 40))
        emb, gi = rng.standard_normal((n, dim)), int(rng.integers(0, n))
        g = build(emb, gi, cfg, label=3)
        ref = instance_build(emb, gi, cfg, label=3)
        assert np.array_equal(g.node_features, ref.node_features)
        assert np.array_equal(g.edge_features, ref.edge_features)
