import numpy as np
import pytest

from relviews.errors import ConfigError
from relviews.synth import (NoiseModel, SynthConfig, generate,
                            ground_truth_emergence, load, save)


def cfg(**kw):
    base = dict(num_classes=4, instances_per_class=5, views_per_instance=16,
                feature_dim=32, noise_rate=0.0, concept_count_per_class=4,
                noise_scale=0.1, seed=7)
    base.update(kw)
    return SynthConfig(**base)


def test_eta_zero_all_clean():
    ds = generate(cfg(noise_rate=0.0))
    for inst in ds.instances:
        assert inst.clean_mask.all()
        assert (inst.source_class_per_view == inst.label).all()


def test_model2_exact_noisy_count():
    ds = generate(cfg(noise_rate=0.5, noise_model=NoiseModel.OUTSIDE_GLOBAL_FRACTION))
    for inst in ds.instances:
        assert int((~inst.clean_mask).sum()) == 8  # round(0.5 * 16)


def test_clean_count_matches_round_rule():
    for eta in (0.1, 0.25, 0.3, 0.77):
        ds = generate(cfg(noise_rate=eta, instances_per_class=2,
                          noise_model=NoiseModel.CAUSAL_INTERVENTION))
        for inst in ds.instances:
            assert int(inst.clean_mask.sum()) == round((1 - eta) * 16)


def test_model1_mean_noisy_fraction():
    ds = generate(cfg(noise_rate=0.25, instances_per_class=100,
                      noise_model=NoiseModel.UNIFORM_WHOLE_IMAGE))
    rate = np.mean([(~inst.clean_mask).mean() for inst in ds.instances])
    assert abs(rate - 0.25) < 0.03


def test_causal_sources_differ_from_label():
    # oracle: exhaustive scan of every generated view
    ds = generate(cfg(noise_rate=0.25, num_classes=8,
                      noise_model=NoiseModel.CAUSAL_INTERVENTION))
    noisy_seen = 0
    for inst in ds.instances:
        for v in range(16):
            src = inst.source_class_per_view[v]
            if inst.clean_mask[v]:
                assert src == inst.label
            else:
                noisy_seen += 1
                assert src != inst.label
                assert 0 <= src < 8
    assert noisy_seen == len(ds.instances) * 4


def test_determinism():
    a = generate(cfg(noise_rate=0.3, noise_model=NoiseModel.CAUSAL_INTERVENTION))
    b = generate(cfg(noise_rate=0.3, noise_model=NoiseModel.CAUSAL_INTERVENTION))
    for x, y in zip(a.instances, b.instances):
        assert np.array_equal(x.global_embedding, y.global_embedding)
        assert np.array_equal(x.local_embeddings, y.local_embeddings)
        assert np.array_equal(x.clean_mask, y.clean_mask)


def test_label_balance():
    ds = generate(cfg(num_classes=3, instances_per_class=7))
    counts = {c: 0 for c in range(3)}
    for inst in ds.instances:
        counts[inst.label] += 1
    assert all(v == 7 for v in counts.values())


def test_emergence_exact_when_noiseless():
    ds = generate(cfg(noise_scale=0.0, instances_per_class=3))
    for inst in ds.instances:
        val = ground_truth_emergence(inst, range(16))
        assert abs(val - 1.0) < 1e-9


def test_emergence_monte_carlo_ordering():
    # oracle: compare clean-subset vs noisy-view scores across 100 seeds
    clean_wins = 0
    for seed in range(100):
        ds = generate(cfg(noise_rate=0.25, instances_per_class=1, seed=seed,
                          feature_dim=64,
                          noise_model=NoiseModel.OUTSIDE_GLOBAL_FRACTION))
        inst = ds.instances[0]
        clean = np.flatnonzero(inst.clean_mask)
        noisy = np.flatnonzero(~inst.clean_mask)
        c = ground_truth_emergence(inst, clean)
        n = ground_truth_emergence(inst, [int(noisy[0])])
        m = ground_truth_emergence(inst, list(clean) + list(noisy))
        clean_wins += int(c > n)
        assert c >= m - 1e-9 or m >= n - 1e-9  # mixed sits between on average
    assert clean_wins >= 95


def test_emergence_mixed_subset_between_pure_cases():
    cs, ns, ms = [], [], []
    for seed in range(100):
        ds = generate(cfg(noise_rate=0.5, instances_per_class=1, seed=seed,
                          noise_model=NoiseModel.OUTSIDE_GLOBAL_FRACTION))
        inst = ds.instances[0]
        clean = list(np.flatnonzero(inst.clean_mask))
        noisy = list(np.flatnonzero(~inst.clean_mask))
        cs.append(ground_truth_emergence(inst, clean))
        ns.append(ground_truth_emergence(inst, noisy))
        ms.append(ground_truth_emergence(inst, clean + noisy))
    assert np.mean(ns) < np.mean(ms) < np.mean(cs)


def test_separation_property_lemma_sanity():
    # clean pairs cohere with the global more than clean+noisy pairs
    ds = generate(cfg(noise_rate=0.25, instances_per_class=25, num_classes=4,
                      noise_scale=0.3,
                      noise_model=NoiseModel.OUTSIDE_GLOBAL_FRACTION))
    assert len(ds.instances) >= 100
    clean_vals, mixed_vals = [], []
    for inst in ds.instances:
        clean = list(np.flatnonzero(inst.clean_mask))
        noisy = list(np.flatnonzero(~inst.clean_mask))
        clean_vals.append(ground_truth_emergence(inst, clean[:2]))
        mixed_vals.append(ground_truth_emergence(inst, [clean[0], noisy[0]]))
    assert np.mean(clean_vals) > np.mean(mixed_vals)


def test_emergence_domain_errors():
    ds = generate(cfg(instances_per_class=1))
    with pytest.raises(ValueError):
        ground_truth_emergence(ds.instances[0], [])
    with pytest.raises(IndexError):
        ground_truth_emergence(ds.instances[0], [99])


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg(noise_rate=1.5)
    with pytest.raises(ConfigError):
        cfg(concept_count_per_class=40)
    with pytest.raises(ConfigError):
        cfg(num_classes=0)
    for sigma in (-0.1, np.inf, np.nan):
        with pytest.raises(ConfigError, match="noise_scale must be finite and non-negative"):
            cfg(noise_scale=sigma)


def test_save_load_roundtrip(tmp_path):
    ds = generate(cfg(noise_rate=0.25, noise_model=NoiseModel.CAUSAL_INTERVENTION))
    path = tmp_path / "data.txt"
    save(ds, path)
    back = load(path)
    assert back.config == ds.config
    assert len(back) == len(ds)
    for a, b in zip(ds.instances, back.instances):
        assert a.label == b.label
        assert np.array_equal(a.clean_mask, b.clean_mask)
        assert np.array_equal(a.source_class_per_view, b.source_class_per_view)
        np.testing.assert_allclose(a.embeddings(), b.embeddings(), rtol=1e-8)


def test_save_deterministic_bytes(tmp_path):
    ds = generate(cfg())
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save(ds, p1)
    save(generate(cfg()), p2)
    assert p1.read_bytes() == p2.read_bytes()
