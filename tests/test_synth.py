import warnings

import numpy as np
import pytest

from relviews.errors import ConfigError
from relviews.synth import (NoiseModel, SynthConfig, SynthDataset, generate, load, save,
                            split_dataset)
from relviews.training import CONFIG_KEYS
from tests.helpers import ground_truth_emergence, loop_generate


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
    # 17 significant digits: every value reads back bit for bit
    for model in NoiseModel:
        ds = generate(cfg(noise_rate=0.25, noise_model=model))
        save(ds, tmp_path / f"{model.value}.txt")
        assert_same_dataset(load(tmp_path / f"{model.value}.txt"), ds)


@pytest.mark.parametrize("model", list(NoiseModel), ids=lambda m: m.value)
def test_save_load_returns_an_equal_config(tmp_path, model):
    # floats are written in full, so no digit of eta or sigma is lost
    config = cfg(noise_rate=0.1234567891, noise_scale=1 / 3, noise_model=model,
                 instances_per_class=2)
    save(generate(config), tmp_path / "data.txt")
    assert load(tmp_path / "data.txt").config == config


def test_header_keys_are_the_run_config_synth_keys(tmp_path):
    save(generate(cfg(instances_per_class=1, noise_rate=0.5)), tmp_path / "data.txt")
    lines = (tmp_path / "data.txt").read_text().splitlines()
    assert lines[:10] == ["relviews-synth 3", "config classes=4", "config instances_per_class=1",
                          "config views=16", "config dim=32", "config eta=0.5",
                          "config noise_model=outside_global_fraction",
                          "config concepts_per_class=4", "config sigma=0.1", "config seed=7"]
    keys = [line[len("config "):].partition("=")[0] for line in lines[1:10]]
    assert keys == [key[len("synth."):] for key in CONFIG_KEYS if key.startswith("synth.")]
    assert lines[10::2] == ["tensor labels 4", "tensor clean 4,16", "tensor sources 4,16",
                            "tensor embeddings 4,17,32"]
    assert lines[11] == "0 1 2 3"


def test_save_deterministic_bytes(tmp_path):
    ds = generate(cfg())
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save(ds, p1)
    save(generate(cfg()), p2)
    assert p1.read_bytes() == p2.read_bytes()


# (views, dim, concepts): the default, as many concepts as views, a single
# feature, and the tiny shape of the benchmark's own tests
SHAPES = [(16, 32, 4), (5, 6, 5), (16, 1, 4), (4, 8, 2)]


def assert_same_dataset(got, ref):
    assert got.config == ref.config and len(got) == len(ref)
    for a, b in zip(got.instances, ref.instances):
        assert type(a.label) is type(b.label) and a.label == b.label
        for name in ("global_embedding", "local_embeddings", "clean_mask",
                     "source_class_per_view"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name    # -0.0 and 0.0 differ here
            assert x.flags.owndata, name


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("classes", [1, 4])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("model", list(NoiseModel), ids=lambda m: m.value)
def test_generate_matches_loop_oracle(model, eta, classes, sigma):
    for seed, (views, dim, concepts) in enumerate(SHAPES):
        config = SynthConfig(num_classes=classes, instances_per_class=3,
                             views_per_instance=views, feature_dim=dim,
                             concept_count_per_class=concepts, noise_rate=eta,
                             noise_model=model, noise_scale=sigma, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = generate(config)
        assert_same_dataset(got, loop_generate(config))


@pytest.mark.parametrize("model", list(NoiseModel), ids=lambda m: m.value)
def test_save_writes_the_loop_oracle_bytes(tmp_path, model):
    config = cfg(noise_rate=0.5, noise_model=model)
    save(generate(config), tmp_path / "bulk.txt")
    save(loop_generate(config), tmp_path / "loop.txt")
    assert (tmp_path / "bulk.txt").read_bytes() == (tmp_path / "loop.txt").read_bytes()


def test_split_refuses_a_class_of_one():
    with pytest.raises(ConfigError, match="^class 0 has 1 instance; a stratified split "
                                          "needs at least 2 per class$"):
        split_dataset(generate(SynthConfig(instances_per_class=1)), 0.2)


def test_split_refuses_classes_of_unequal_size():
    ds = generate(cfg(num_classes=3, instances_per_class=5))
    uneven = SynthDataset(ds.config, ds.instances[:12])    # 5, 5 and 2 instances
    with pytest.raises(ConfigError, match="^class 2 has 2 instances, class 0 has 5; "
                                          "a stratified split needs classes of equal size$"):
        split_dataset(uneven, 0.2)
