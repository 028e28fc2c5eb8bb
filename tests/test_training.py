"""Batched encoder and trainer: equivalence, determinism and persistence."""
from dataclasses import replace

import numpy as np
import pytest

from relviews import encoder as enc
from relviews import synth, training
from relviews.encoder import EncoderConfig, init_params
from relviews.graphs import ViewGraph, num_pairs
from relviews.training import AblationConfig, TrainConfig, TrainedModel

TINY_SYNTH = synth.SynthConfig(num_classes=3, instances_per_class=20, views_per_instance=4,
                               feature_dim=8, concept_count_per_class=2, seed=0)
TINY_TRAIN = TrainConfig(epochs=4, batch_size=8, cost_head_hidden=4,
                         encoder=EncoderConfig(heads_per_layer=2, hidden_dim=8), seed=0)


def random_batch(count, n_nodes=6, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return [ViewGraph(rng.standard_normal((n_nodes, dim)),
                      rng.standard_normal((num_pairs(n_nodes), dim)), label=i % 3)
            for i in range(count)]


def tiny_split(noise_rate=0.0):
    ds = synth.generate(replace(TINY_SYNTH, noise_rate=noise_rate))
    return synth.split_dataset(ds, 0.2)


def test_batch_outputs_bit_identical_to_batch_of_one():
    params = init_params(EncoderConfig(), 8, seed=1)
    graphs = random_batch(8, seed=2)
    outs, tape = enc.forward(params, graphs, want_grad=False)
    for b, g in enumerate(graphs):
        (one,), tape_one = enc.forward(params, [g], want_grad=False)
        assert np.array_equal(outs[b].node_features, one.node_features)
        assert np.array_equal(outs[b].edge_features, one.edge_features)
        assert outs[b].label == g.label
        for layer, layer_one in zip(tape.attention, tape_one.attention):
            assert np.array_equal(layer[b], layer_one[0])


def test_batched_gradients_equal_sum_of_single_graph_gradients():
    params = init_params(EncoderConfig(heads_per_layer=2, hidden_dim=8), 8, seed=3)
    graphs = random_batch(8, seed=4)
    _, tape = enc.forward(params, graphs)
    rng = np.random.default_rng(5)
    rn = rng.standard_normal(tape.node_out.shape)
    re = rng.standard_normal(tape.edge_out.shape)
    params.zero_grads()
    batched = enc.backward(tape, rn, re)
    summed = {name: np.zeros_like(arr) for name, arr in params.named_tensors()}
    for b, g in enumerate(graphs):
        _, one = enc.forward(params, [g])
        for name, grad in enc.backward(one, rn[b:b + 1], re[b:b + 1]).items():
            summed[name] += grad
    for name, grad in batched.items():
        scale = np.abs(summed[name]).max()
        assert scale > 0, name
        assert np.abs(grad - summed[name]).max() <= 1e-12 * scale, name


def test_mixed_node_counts_are_refused():
    params = init_params(EncoderConfig(heads_per_layer=2, hidden_dim=8), 8, seed=6)
    with pytest.raises(ValueError, match="node count"):
        enc.forward(params, random_batch(1, n_nodes=5) + random_batch(1, n_nodes=6))


def test_evaluate_matches_argmin_of_distances():
    train_ds, test_ds = tiny_split(noise_rate=0.5)
    cfg = replace(TINY_TRAIN, epochs=1, batch_size=5)   # chunks of 5 leave a remainder
    _, model = training.train(train_ds, cfg)
    ids = model.class_ids()
    preds = [ids[int(np.argmin(model.distances(g)))]
             for g in training.encode_dataset(model, test_ds)]
    labels = [inst.label for inst in test_ds.instances]
    expect = float(np.mean([p == y for p, y in zip(preds, labels)]))
    assert training.evaluate(model, test_ds) == expect


def test_train_is_deterministic_for_a_seed():
    train_ds, test_ds = tiny_split(noise_rate=0.5)
    cfg = replace(TINY_TRAIN, epochs=2)
    report_a, model_a = training.train(train_ds, cfg)
    report_b, model_b = training.train(train_ds, cfg)
    assert report_a.epoch_losses == report_b.epoch_losses
    srgs_a = training.encode_dataset(model_a, test_ds)
    srgs_b = training.encode_dataset(model_b, test_ds)
    assert [int(np.argmin(model_a.distances(g))) for g in srgs_a] == \
        [int(np.argmin(model_b.distances(g))) for g in srgs_b]


@pytest.mark.parametrize("ablations", [
    AblationConfig(use_complementarity_graph=False),
    AblationConfig(proxy_as_graph=False),
    AblationConfig(transitivity_recovery=False),
], ids=["cg_off", "pd_off", "tr_off"])
def test_save_load_gives_identical_distances(tmp_path, ablations):
    train_ds, test_ds = tiny_split(noise_rate=0.5)
    _, model = training.train(train_ds, replace(TINY_TRAIN, epochs=1, ablations=ablations))
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded = TrainedModel.load(path)
    assert loaded.config == model.config
    srgs = training.encode_dataset(model, test_ds)
    loaded_srgs = training.encode_dataset(loaded, test_ds)
    for g, lg in zip(srgs, loaded_srgs):
        assert np.array_equal(g.node_features, lg.node_features)
        assert np.array_equal(model.distances(g), loaded.distances(lg))


def test_sweeps_test_on_held_out_instances_of_the_same_classes():
    # chance is 1/3; a test set drawn with fresh class concepts scores
    # about that, a hold-out of the training classes close to 1
    rows = training.sweep_noise(TINY_TRAIN, TINY_SYNTH, [0.0], ["outside_global_fraction"])
    assert [(r["model"], r["eta"]) for r in rows] == [("outside_global_fraction", 0.0)]
    assert rows[0]["accuracy"] >= 0.9
    (depth_row,) = training.sweep_depth(TINY_TRAIN, TINY_SYNTH, [2])
    assert depth_row["accuracy"] >= 0.9
