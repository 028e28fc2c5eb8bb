"""Batched encoder and trainer: equivalence, determinism and persistence."""
import importlib
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from relviews import autodiff as ad
from relviews import encoder as enc
from relviews import synth, training
from relviews.cli import main
from relviews.encoder import EncoderConfig, init_params
from relviews.errors import ConfigError, NumericError
from relviews.explain import (ExplanationSet, fidelity, fidelity_sparsity_curve,
                              top_k_explanation)
from relviews.graphs import ViewGraph, num_pairs
from relviews.hed import CostHead, hed
from relviews.proxies import ProxyAnchorConfig, ProxyGraph, SinkhornConfig
from relviews.training import AblationConfig, TrainConfig, TrainedModel, format_config
from tests.helpers import (PerTensorAdam, assert_steps_agree, encoder_backward, one_step,
                           tape_distance_table, tape_forward)

TINY_SYNTH = synth.SynthConfig(num_classes=3, instances_per_class=20, views_per_instance=4,
                               feature_dim=8, concept_count_per_class=2, seed=0)
TINY_TRAIN = TrainConfig(epochs=4, batch_size=8, cost_head_hidden=4,
                         encoder=EncoderConfig(heads_per_layer=2, hidden_dim=8), seed=0)


def random_batch(count, n_nodes=6, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return [ViewGraph(rng.standard_normal((n_nodes, dim)), rng.standard_normal(num_pairs(n_nodes)),
                      label=i % 3)
            for i in range(count)]


def tiny_split(noise_rate=0.0):
    ds = synth.generate(replace(TINY_SYNTH, noise_rate=noise_rate))
    return synth.split_dataset(ds, 0.2)


def test_batch_outputs_bit_identical_to_batch_of_one():
    params = init_params(EncoderConfig(), 8, seed=1)
    graphs = random_batch(8, seed=2)
    nodes = enc.forward(params, graphs, want_grad=False)
    for b, g in enumerate(graphs):
        one = enc.forward(params, [g], want_grad=False)
        assert np.array_equal(nodes[b], one[0])


def test_batched_gradients_equal_sum_of_single_graph_gradients():
    params = init_params(EncoderConfig(heads_per_layer=2, hidden_dim=8), 8, seed=3)
    graphs = random_batch(8, seed=4)
    out = enc.forward(params, graphs)
    rng = np.random.default_rng(5)
    rn = rng.standard_normal(out.shape)
    params.zero_grads()
    batched = encoder_backward(params, out, rn)
    summed = {name: np.zeros_like(arr) for name, arr in params.named_tensors()}
    for b, g in enumerate(graphs):
        one = enc.forward(params, [g])
        for name, grad in encoder_backward(params, one, rn[b:b + 1]).items():
            summed[name] += grad
    for name, grad in batched.items():
        scale = np.abs(summed[name]).max()
        assert scale > 0, name
        assert np.abs(grad - summed[name]).max() <= 1e-12 * scale, name


# one-step harness settings: (SynthConfig fields, encoder) and ablations
HARNESS_SETTINGS = {
    "default": ({}, EncoderConfig()),
    "classes16": ({"num_classes": 16}, EncoderConfig()),
    "layers3": ({}, EncoderConfig(num_layers=3)),
    "in_dim12": ({"feature_dim": 12}, EncoderConfig()),
}
HARNESS_ABLATIONS = {
    "tr_on": AblationConfig(),
    "tr_off": AblationConfig(transitivity_recovery=False),
    "pd_off": AblationConfig(proxy_as_graph=False),
    "cg_off": AblationConfig(use_complementarity_graph=False),
}


def harness_case(setting: str, ablation: str, seed: int):
    """A model with random parameters and the proxies of a first batch's
    classes, and a second batch of 8 instances: (model, graphs, labels)."""
    synth_fields, enc_cfg = HARNESS_SETTINGS[setting]
    ds = synth.generate(synth.SynthConfig(instances_per_class=3, noise_rate=0.5, seed=seed,
                                          **synth_fields))
    cfg = TrainConfig(encoder=enc_cfg, ablations=HARNESS_ABLATIONS[ablation], seed=seed)
    graphs = training._input_graphs(cfg, ds)
    labels = np.array([inst.label for inst in ds.instances])
    params = init_params(enc_cfg, ds.config.feature_dim, seed=seed)
    head = CostHead(enc_cfg.hidden_dim, cfg.cost_head_hidden, seed=seed + 1)
    rng = np.random.default_rng(seed)
    for store in (params, head):     # away from the initial values' symmetries
        store.buffer += rng.normal(scale=0.1, size=store.buffer.shape)
    model = TrainedModel(cfg, params, head)
    order = rng.permutation(len(graphs))
    first, batch = order[:4], order[4:12]
    nodes = enc.forward(params, [graphs[i] for i in first], False)
    training._update_proxies(model, {int(c): nodes[labels[first] == c]
                                     for c in np.unique(labels[first])}, cfg, 0.0)
    return model, [graphs[i] for i in batch], labels[batch].tolist()


@pytest.mark.parametrize("ablation", list(HARNESS_ABLATIONS))
@pytest.mark.parametrize("setting", list(HARNESS_SETTINGS))
def test_one_step_matches_the_tape_encoder(setting, ablation):
    # the closed-form encoder backward against the encoder as tape ops, over
    # 5 seeds: bit-identical node embeddings, the same decisions, and loss,
    # gradient buffers and proxies within 1e-12 relative
    for seed in range(5):
        model, graphs, labels = harness_case(setting, ablation, seed)
        assert np.array_equal(enc.forward(model.params, graphs, False),
                              tape_forward(model.params, graphs, False))
        ref = one_step(model, graphs, labels, tape_forward)
        assert_steps_agree(one_step(model, graphs, labels), ref)


@pytest.mark.parametrize("ablation", list(HARNESS_ABLATIONS))
@pytest.mark.parametrize("setting", list(HARNESS_SETTINGS))
def test_one_step_matches_the_tape_table(setting, ablation):
    # the closed-form distance tables (HED, or the mean-pool matching under
    # TR or PD off) against the tables as tape ops, over 20 seeds: the same
    # table and loss, the same decisions, and gradient buffers and proxies
    # within 1e-12 relative
    for seed in range(20):
        model, graphs, labels = harness_case(setting, ablation, seed)
        ref = one_step(model, graphs, labels, table=tape_distance_table)
        got = one_step(model, graphs, labels)
        assert np.array_equal(got["table"], ref["table"]) and got["loss"] == ref["loss"]
        assert_steps_agree(got, ref)


def test_one_step_harness_flags_a_gradient_off_by_1e_9():
    model, graphs, labels = harness_case("default", "tr_on", 0)

    def skewed(params, graphs, want_grad):
        out = enc.forward(params, graphs, want_grad)
        return ad.Var(out.value, requires_grad=True,
                      backward=lambda g: out._backward(g * (1.0 + 1e-9)))
    ref = one_step(model, graphs, labels)
    with pytest.raises(AssertionError, match="grad encoder"):
        assert_steps_agree(one_step(model, graphs, labels, skewed), ref)


@pytest.mark.parametrize("ablations", list(HARNESS_ABLATIONS.values()),
                         ids=list(HARNESS_ABLATIONS))
def test_only_training_steps_build_tape_nodes_three_per_step(monkeypatch, ablations):
    # a step's tape is the encoder, the distance table and the anchor loss;
    # evaluation and the explanation metrics compute without a tape
    train_ds, test_ds = tiny_split(noise_rate=0.5)
    built, at_backward = [0], []
    init, backward = ad.Var.__init__, ad.backward

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def stamped(*args, **kwargs):
        at_backward.append(built[0])
        return backward(*args, **kwargs)
    monkeypatch.setattr(ad.Var, "__init__", counted)
    monkeypatch.setattr(ad, "backward", stamped)
    _, model = training.train(train_ds, replace(TINY_TRAIN, epochs=2, ablations=ablations))
    assert len(at_backward) > 2 and set(np.diff(at_backward)) == {3}
    built[0] = 0
    training.evaluate(model, test_ds)
    srgs = training.encode_dataset(model, test_ds)
    if ablations.proxy_as_graph:
        expls = ExplanationSet([top_k_explanation(g, 2) for g in srgs], model.proxies)
        fidelity(expls, model.cost_head)
        fidelity_sparsity_curve(srgs, model.proxies, model.cost_head, [1, 2])
    assert built[0] == 0


def test_mixed_node_counts_are_refused():
    params = init_params(EncoderConfig(heads_per_layer=2, hidden_dim=8), 8, seed=6)
    with pytest.raises(ValueError, match="node count"):
        enc.forward(params, random_batch(1, n_nodes=5) + random_batch(1, n_nodes=6))


def test_evaluate_matches_argmin_of_distances():
    train_ds, test_ds = tiny_split(noise_rate=0.5)
    _, model = training.train(train_ds, replace(TINY_TRAIN, epochs=1))
    ids = model.class_ids()
    preds = [ids[int(np.argmin(model.distances(g)))]
             for g in training.encode_dataset(model, test_ds)]
    labels = [inst.label for inst in test_ds.instances]
    expect = float(np.mean([p == y for p, y in zip(preds, labels)]))
    assert training.evaluate(model, test_ds) == expect


def test_evaluate_over_two_chunks_and_a_remainder_matches_argmin_of_distances():
    train_ds, _ = tiny_split(noise_rate=0.5)
    _, model = training.train(train_ds, replace(TINY_TRAIN, epochs=1))
    held = synth.generate(replace(TINY_SYNTH, noise_rate=0.5, seed=9))
    ds = synth.SynthDataset(held.config, held.instances[:2 * training._INFERENCE_CHUNK + 3])
    assert len(ds) == 51 and set(ds.class_ids) == set(model.class_ids())
    ids = model.class_ids()
    preds = [ids[int(np.argmin(model.distances(g)))]
             for g in training.encode_dataset(model, ds)]
    expect = float(np.mean([p == inst.label for p, inst in zip(preds, ds.instances)]))
    assert 0.0 < expect < 1.0
    assert training.evaluate(model, ds) == expect


def test_inference_chunk_size_changes_no_value(monkeypatch, tmp_path):
    # evaluate, encode_dataset and train's input graphs run in inference
    # chunks; no value may depend on their size
    train_ds, test_ds = tiny_split(noise_rate=0.5)
    default = training._INFERENCE_CHUNK
    assert len(train_ds) == 2 * default
    runs = []
    for chunk in (default, 1, 1000):
        monkeypatch.setattr(training, "_INFERENCE_CHUNK", chunk)
        report, model = training.train(train_ds, replace(TINY_TRAIN, epochs=2))
        model.save(tmp_path / "model.ckpt")
        srgs = training.encode_dataset(model, train_ds)
        runs.append((report, (tmp_path / "model.ckpt").read_bytes(),
                     (training.evaluate(model, train_ds), training.evaluate(model, test_ds)),
                     np.stack([g.node_features for g in srgs]),
                     np.stack([g.edge_weights for g in srgs])))
    (report, ckpt, accs, nodes, weights), *others = runs
    for other_report, other_ckpt, other_accs, other_nodes, other_weights in others:
        assert other_report == report and other_ckpt == ckpt and other_accs == accs
        assert np.array_equal(other_nodes, nodes) and np.array_equal(other_weights, weights)


def test_evaluate_refuses_a_class_without_proxy():
    train_ds, _ = tiny_split()
    two = synth.SynthDataset(train_ds.config,
                             [inst for inst in train_ds.instances if inst.label < 2])
    _, model = training.train(two, replace(TINY_TRAIN, epochs=1))
    with pytest.raises(ConfigError, match=r"^the model has no proxy for class 2 of the data$"):
        training.evaluate(model, train_ds)


def test_evaluate_refuses_an_empty_dataset():
    cfg = replace(TINY_TRAIN, encoder=EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=4))
    model = TrainedModel(cfg, init_params(cfg.encoder, 8, seed=1), CostHead(4, 3, seed=2),
                         proxy_vectors={0: np.zeros(4)})
    empty = synth.SynthDataset(synth.generate(TINY_SYNTH).config, [])
    with pytest.raises(ConfigError, match=r"^cannot evaluate a dataset with no instances$"):
        training.evaluate(model, empty)


@pytest.fixture(scope="module")
def sixteen_classes():
    """A model trained one epoch on the benchmark's eval_many_classes shapes:
    16 classes of 16 views, 32 features and hidden dims; and its hold-out."""
    cfg = synth.SynthConfig(num_classes=16, instances_per_class=4, views_per_instance=16,
                            feature_dim=32, noise_rate=0.0, seed=5)
    train_ds, held = synth.split_dataset(synth.generate(cfg), 0.5)
    return training.train(train_ds, TrainConfig(epochs=1, seed=5))[1], train_ds, held


def _record_exact_tables(monkeypatch) -> list[np.ndarray]:
    """The node sets of every exact `hed._forward` table from now on."""
    hed_module, calls = importlib.import_module("relviews.hed"), []
    forward = hed_module._forward
    monkeypatch.setattr(hed_module, "_forward",
                        lambda x, *args, **kw: calls.append(x) or forward(x, *args, **kw))
    return calls


def test_evaluate_of_a_16_class_model_computes_no_exact_table(monkeypatch, sixteen_classes):
    # the Gram table's bound decides every row of a trained model, so a
    # bound that grew loose enough to send rows to the exact table shows here
    model, train_ds, held = sixteen_classes
    calls = _record_exact_tables(monkeypatch)
    training.evaluate(model, train_ds)
    training.evaluate(model, held)
    assert calls == []


def test_evaluate_refuses_a_nan_view_in_the_encoder(monkeypatch, sixteen_classes):
    # evaluate encodes each chunk before it picks a class, and the encoder
    # refuses non-finite input: a NaN view never reaches `nearest`, so it
    # cannot send its chunk to the exact table
    model, _, held = sixteen_classes
    instances = list(held.instances)
    emb = instances[1].embeddings.copy()
    emb[3, 0] = np.nan
    instances[1] = replace(instances[1], embeddings=emb)

    def no_nearest(*args, **kwargs):
        raise AssertionError("nearest called")
    monkeypatch.setattr(training, "nearest", no_nearest)
    with pytest.raises(NumericError, match=r"^non-finite values in input graph \(layer 0\)$"):
        training.evaluate(model, synth.SynthDataset(held.config, instances))


def test_classes_with_identical_proxies_take_the_exact_tables_argmin(monkeypatch):
    # classes 0 and 1 share one proxy, so every row nearest to them ties
    # exactly: those rows, and only those, go through the exact table, whose
    # argmin takes class 0, and evaluate equals the exact table's accuracy
    train_ds, test_ds = tiny_split(noise_rate=0.5)
    _, model = training.train(train_ds, replace(TINY_TRAIN, epochs=1))
    model.proxies[1] = ProxyGraph(model.proxies[0].node_centroids.copy())
    ds = synth.SynthDataset(train_ds.config, train_ds.instances + test_ds.instances)
    nodes = np.concatenate(list(training._encoded_chunks(
        model, training._input_graphs(model.config, ds))))
    table = model.distance_table(nodes)
    tied = table[:, :2].min(axis=1) == table.min(axis=1)
    assert 0 < tied.sum() < len(ds) and np.array_equal(table[:, 0], table[:, 1])
    labels = np.asarray([inst.label for inst in ds.instances])
    expect = float(np.mean(np.asarray(model.class_ids())[table.argmin(axis=1)] == labels))
    calls = _record_exact_tables(monkeypatch)
    assert training.evaluate(model, ds) == expect
    assert np.array_equal(np.concatenate(calls), nodes[tied])


def test_one_inference_chunk_of_a_16_class_model_allocates_at_most_5_mb(sixteen_classes):
    # the encoder pass without a backward runs in place, and the prediction
    # reads the Gram table, with no explicit distance table beside it
    model, _, held = sixteen_classes
    chunk = synth.SynthDataset(held.config, held.instances[:training._INFERENCE_CHUNK])
    assert len(chunk) == 24 and len(model.class_ids()) == 16
    training.evaluate(model, chunk)          # fills the per-size caches
    tracemalloc.start()
    try:
        training.evaluate(model, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6, f"{peak / 1e6:.2f} MB"


def test_train_builds_its_input_graphs_once(monkeypatch):
    train_ds, test_ds = tiny_split()
    calls = []
    build = training.build_dataset

    def counted(ds, *args, **kwargs):
        calls.append(len(ds))
        return build(ds, *args, **kwargs)
    monkeypatch.setattr(training, "build_dataset", counted)
    _, model = training.train(train_ds, replace(TINY_TRAIN, epochs=1))
    assert calls == [len(train_ds)]
    training.evaluate(model, test_ds)
    assert calls == [len(train_ds), len(test_ds)]


def test_train_runs_only_training_passes(monkeypatch):
    # every encoder pass of a train call is a training step's, taped for its
    # backward; accuracies are `evaluate`'s, so the report holds none
    train_ds, _ = tiny_split()
    cfg = replace(TINY_TRAIN, epochs=2)
    flags = []
    forward = enc.forward

    def recorded(params, graphs, want_grad=True):
        flags.append(want_grad)
        return forward(params, graphs, want_grad)
    monkeypatch.setattr(enc, "forward", recorded)
    report, _ = training.train(train_ds, cfg)
    assert flags == [True] * (cfg.epochs * -(-len(train_ds) // cfg.batch_size))
    assert [f.name for f in fields(training.TrainReport)] == ["epoch_losses",
                                                              "sinkhorn_nonconverged"]
    assert len(report.epoch_losses) == cfg.epochs


@pytest.mark.parametrize("bad_step", ["first", "last"])
def test_train_refuses_a_non_finite_cost_head(monkeypatch, bad_step):
    # only the cost head turns non-finite: an encoder-only check misses it
    # after the last step, and after any other names an encoder tensor next step
    train_ds, _ = tiny_split()
    cfg = replace(TINY_TRAIN, epochs=1)
    steps = -(-len(train_ds) // cfg.batch_size)
    step = training.Adam.step

    def nan_head_step(self, grads, lr):
        step(self, grads, lr)
        if self.t == (1 if bad_step == "first" else steps):
            self.buffers[1][-1] = np.nan                # cost.b2
    monkeypatch.setattr(training.Adam, "step", nan_head_step)
    with pytest.raises(NumericError, match=r"^non-finite parameter tensor cost\.b2$"):
        training.train(train_ds, cfg)


def test_distances_of_fewer_nodes_than_slots_equal_per_class_hed():
    train_ds, _ = tiny_split()
    _, model = training.train(train_ds, replace(TINY_TRAIN, epochs=1))
    small = synth.generate(replace(TINY_SYNTH, views_per_instance=2, instances_per_class=2))
    ids = model.class_ids()
    assert {model.proxies[c].num_slots for c in ids} == {5}
    for g in training.encode_dataset(model, small):
        assert g.num_views == 3
        expect = [hed(g, model.proxies[c].node_centroids, model.cost_head).value for c in ids]
        np.testing.assert_allclose(model.distances(g), expect, rtol=0, atol=1e-12)


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


def test_screened_distance_tables_train_and_predict_bit_for_bit(monkeypatch):
    # the screen must not change a loss, a parameter or a table entry; with the
    # threshold at 0 every table is screened, at infinity every table is full
    hed_module = importlib.import_module("relviews.hed")
    train_ds, test_ds = tiny_split(noise_rate=0.5)
    runs = []
    for limit in (0, np.inf):
        monkeypatch.setattr(hed_module, "SCREEN_MIN_ENTRIES", limit)
        report, model = training.train(train_ds, TINY_TRAIN)
        tables = [model.distance_table(nodes)
                  for nodes in training._encoded_chunks(
                      model, training._input_graphs(model.config, test_ds))]
        runs.append((report, model, np.concatenate(tables), training.evaluate(model, test_ds)))
    (rep_s, model_s, table_s, acc_s), (rep_f, model_f, table_f, acc_f) = runs
    assert rep_s.epoch_losses == rep_f.epoch_losses
    for (name, a), (_, b) in zip(model_s.params.named_tensors(), model_f.params.named_tensors()):
        assert np.array_equal(a, b), name
    assert np.array_equal(table_s, table_f)
    assert acc_s == acc_f


def test_sweep_rows_equal_the_direct_composition():
    # each point generates its data, holds out the last fifth of each class and
    # trains, as a direct call would; chance is 1/3, a test set drawn with fresh
    # class concepts scores about that, a hold-out of the training classes close to 1
    rows = training.sweep({"synth.seed": [0, 1], "ablate.tr": [True, False],
                           "encoder.layers": [1, 2]}, TINY_SYNTH, TINY_TRAIN)
    points = [(seed, tr, layers) for seed in (0, 1) for tr in (True, False) for layers in (1, 2)]
    for row, (seed, tr, layers) in zip(rows, points, strict=True):
        cfg = replace(TINY_TRAIN, encoder=replace(TINY_TRAIN.encoder, num_layers=layers),
                      ablations=AblationConfig(transitivity_recovery=tr))
        data = synth.generate(replace(TINY_SYNTH, seed=seed))
        train_ds, test_ds = synth.split_dataset(data, 0.2)
        report, model = training.train(train_ds, cfg)
        dist = np.mean([enc.distinguishability(g.node_features)
                        for g in training.encode_dataset(model, test_ds)])
        assert row == {"synth.seed": seed, "ablate.tr": tr, "encoder.layers": layers,
                       "train_accuracy": training.evaluate(model, train_ds),
                       "test_accuracy": training.evaluate(model, test_ds),
                       "sinkhorn_nonconverged": report.sinkhorn_nonconverged,
                       "distinguishability": dist}
        assert row["test_accuracy"] >= 0.9


def test_save_load_round_trips_every_checkpoint_key(tmp_path):
    cfg = TrainConfig(
        encoder=EncoderConfig(num_layers=1, heads_per_layer=2, hidden_dim=4),
        sinkhorn=SinkhornConfig(entropic_regularizer=0.1, max_iters=50, marginal_tol=1e-5),
        anchor=ProxyAnchorConfig(margin=0.2, scale=16.0),
        ablations=AblationConfig(use_complementarity_graph=False, proxy_as_graph=False,
                                 transitivity_recovery=False),
        epochs=3, learning_rate=0.01, lr_decay=0.5, lr_decay_every=7, weight_decay=1e-3,
        batch_size=5, proxy_momentum=0.8, cost_head_hidden=3, seed=9)
    written, default = format_config(cfg), format_config(TrainConfig())
    assert written.keys() == default.keys() and len(written) == 20
    assert all(written[key] != default[key] for key in written)
    model = TrainedModel(cfg, init_params(cfg.encoder, 6, seed=1), CostHead(4, 3, seed=2),
                         proxy_vectors={0: np.arange(4.0), 3: -np.arange(4.0)})
    model.save(tmp_path / "a.ckpt")
    loaded = TrainedModel.load(tmp_path / "a.ckpt")
    assert loaded.config == cfg and loaded.params.in_dim == 6
    loaded.save(tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    bad = tmp_path / "nan.ckpt"
    bad.write_text((tmp_path / "a.ckpt").read_text().replace(
        "tensor proxies.vectors 2,4\n0 1 2 3 -0", "tensor proxies.vectors 2,4\n0 1 2 3 nan"))
    with pytest.raises(ConfigError, match=r"nan\.ckpt: checkpoint tensor proxies\.vectors: "
                                          r"non-finite value$"):
        TrainedModel.load(bad)


# A one-layer model with graph proxies, as `relviews-checkpoint 3` stores it.
V3_CHECKPOINT = """\
relviews-checkpoint 3
config in_dim=2
config encoder.layers=1
config encoder.heads=1
config encoder.hidden_dim=2
config sinkhorn.epsilon=0.05
config sinkhorn.max_iters=1000
config sinkhorn.tol=1e-06
config anchor.margin=0.1
config anchor.scale=32.0
config train.epochs=3
config train.lr=0.005
config train.lr_decay=0.1
config train.lr_decay_every=100
config train.weight_decay=0.0005
config train.batch_size=8
config train.proxy_momentum=0.9
config train.cost_hidden=1
config train.seed=7
config ablate.cg=true
config ablate.pd=true
config ablate.tr=true
tensor layer0.W 1,2,2
0.17999999999999999 0.56000000000000005 0.39000000000000001 -0.39000000000000001
tensor layer0.a 1,6
-0.16 0.31 -0.40000000000000002 0.26000000000000001 0.23999999999999999 -0.029999999999999999
tensor layer0.P 1,2,2
-0.28000000000000003 -0.31 -0.34999999999999998 -0.080000000000000002
tensor cost.W1 2,1
-0.23999999999999999 0.68999999999999995
tensor cost.b1 1
0
tensor cost.w2 1,1
-0.35999999999999999
tensor cost.b2 1
0
tensor proxies.ids 2
0 1
tensor proxies.nodes 2,3,2
0.5 -0.25 1 0 0 1.5 -0.5 0.25 2 1 1 -1.5
"""
# The same model under ablate.pd = false: one vector per class.
V3_VECTOR_CHECKPOINT = V3_CHECKPOINT.replace("config ablate.pd=true", "config ablate.pd=false") \
    .replace("tensor proxies.nodes 2,3,2\n0.5 -0.25 1 0 0 1.5 -0.5 0.25 2 1 1 -1.5",
             "tensor proxies.vectors 2,2\n0.5 -0.25 -0.5 0.25")


def test_v3_checkpoint_text_loads_and_writes_back(tmp_path):
    path = tmp_path / "v3.ckpt"
    path.write_text(V3_CHECKPOINT)
    model = TrainedModel.load(path)
    assert model.params.in_dim == 2
    assert model.config == TrainConfig(
        encoder=EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=2),
        cost_head_hidden=1, epochs=3, seed=7)
    assert sorted(model.proxies) == [0, 1] and not model.proxy_vectors
    assert np.array_equal(model.proxies[1].node_centroids, [[-0.5, 0.25], [2, 1], [1, -1.5]])
    assert model.cost_head.W1[1, 0] == 0.69
    distances = model.distances(ViewGraph(model.proxies[0].node_centroids, np.zeros(3)))
    assert distances[0] == 0.0 < distances[1]
    model.save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_text() == V3_CHECKPOINT
    path.write_text(V3_VECTOR_CHECKPOINT)
    model = TrainedModel.load(path)
    assert not model.proxies and sorted(model.proxy_vectors) == [0, 1]
    assert np.array_equal(model.proxy_vectors[1], [-0.5, 0.25])
    model.save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_text() == V3_VECTOR_CHECKPOINT


def test_format_1_checkpoints_are_refused_by_name(tmp_path, capsys):
    # format 1 stored an edge map in the final layer and edge tensors in the
    # proxies; its files are refused whole, before any key or tensor is read
    path = tmp_path / "v1.ckpt"
    path.write_text(V3_CHECKPOINT.replace("relviews-checkpoint 3", "relviews-checkpoint 1"))
    message = (f"{path}: checkpoint format 'relviews-checkpoint 1' is not read by this "
               "version, which reads 'relviews-checkpoint 3'; train the model again")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        TrainedModel.load(path)
    data, out = str(tmp_path / "none.txt"), tmp_path / "out"
    for args in (["eval"], ["explain", "--out", str(out)], ["metrics", "--out", str(out)]):
        assert main([*args, "--checkpoint", str(path), "--data", data]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# The start of a format-2 checkpoint: three more config keys, one tensor per
# head and one per class proxy.
FORMAT_2_CHECKPOINT = """\
relviews-checkpoint 2
config in_dim=2
config encoder.layers=1
config encoder.heads=1
config encoder.hidden_dim=2
config encoder.leaky_slope=0.2
config encoder.norm_eps=1e-05
"""


def test_format_2_checkpoints_are_refused_by_name(tmp_path, capsys):
    path = tmp_path / "v2.ckpt"
    path.write_text(FORMAT_2_CHECKPOINT)
    assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "none.txt")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: checkpoint format 'relviews-checkpoint 2' is not read by this "
        "version, which reads 'relviews-checkpoint 3'; train the model again\n")


@pytest.mark.parametrize("text, old, new, message", [
    (V3_CHECKPOINT, "proxies.ids 2\n0 1", "proxies.ids 2\n0 0.5",
     "tensor proxies.ids: class id 0.5 is not an integer"),
    (V3_CHECKPOINT, "proxies.ids 2\n0 1", "proxies.ids 2\n1 1",
     "tensor proxies.ids: class id 1 appears twice"),
    (V3_CHECKPOINT, "proxies.ids 2\n0 1", "proxies.ids 3\n0 1 2",
     "tensor proxies.nodes: shape (2, 3, 2) does not fit proxies.ids of shape (3,) and "
     "hidden_dim 2"),
    (V3_CHECKPOINT, "proxies.ids 2\n0 1", "proxies.ids 1,2\n0 1",
     "tensor proxies.nodes: shape (2, 3, 2) does not fit proxies.ids of shape (1, 2) and "
     "hidden_dim 2"),
    (V3_CHECKPOINT, "proxies.nodes 2,3,2", "proxies.nodes 2,2,3",
     "tensor proxies.nodes: shape (2, 2, 3) does not fit proxies.ids of shape (2,) and "
     "hidden_dim 2"),
    (V3_CHECKPOINT, "proxies.nodes 2,3,2", "proxies.nodes 6,2",
     "tensor proxies.nodes: shape (6, 2) does not fit proxies.ids of shape (2,) and "
     "hidden_dim 2"),
    (V3_VECTOR_CHECKPOINT, "proxies.vectors 2,2", "proxies.nodes 2,2",
     "tensor proxies.nodes does not belong to a checkpoint with ablate.pd=false"),
    (V3_VECTOR_CHECKPOINT, "proxies.vectors 2,2", "proxies.vectors 1,4",
     "tensor proxies.vectors: shape (1, 4) does not fit proxies.ids of shape (2,) and "
     "hidden_dim 2"),
    (V3_VECTOR_CHECKPOINT, "proxies.vectors 2,2", "proxies.vectors 4,1",
     "tensor proxies.vectors: shape (4, 1) does not fit proxies.ids of shape (2,) and "
     "hidden_dim 2"),
    (V3_VECTOR_CHECKPOINT, "proxies.vectors 2,2", "proxies.vectors 2,1,2",
     "tensor proxies.vectors: shape (2, 1, 2) does not fit proxies.ids of shape (2,) and "
     "hidden_dim 2"),
], ids=["non_integer_id", "repeated_id", "more_ids", "ids_2d", "width", "flat_nodes",
        "nodes_without_pd", "fewer_vectors", "vector_width", "vectors_3d"])
def test_checkpoint_refuses_proxies_that_do_not_fit(tmp_path, text, old, new, message):
    # one id per proxy, each an integer and none repeated; one stack whose
    # kind follows ablate.pd, one row per id and hidden_dim wide
    path = tmp_path / "bad.ckpt"
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        TrainedModel.load(path)


def test_adam_over_buffers_equals_per_tensor_adam():
    cfg = EncoderConfig(heads_per_layer=2, hidden_dim=8)
    params, ref_params = init_params(cfg, 6, seed=3), init_params(cfg, 6, seed=3)
    head, ref_head = CostHead(8, 4, seed=4), CostHead(8, 4, seed=4)
    opt = training.Adam([params.buffer, head.buffer], weight_decay=5e-4)
    ref = PerTensorAdam(ref_params.named_tensors() + ref_head.named_tensors(),
                        weight_decay=5e-4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        grads = {name: rng.standard_normal(arr.shape)
                 for name, arr in params.named_tensors() + head.named_tensors()}
        for name, g in grads.items():
            (head if name.startswith("cost.") else params).grads[name][...] = g
        opt.step([params.grad_buffer, head.grad_buffer], 0.005)
        ref.step(grads, 0.005)
    for (name, arr), (_, want) in zip(params.named_tensors() + head.named_tensors(),
                                      ref_params.named_tensors() + ref_head.named_tensors(),
                                      strict=True):
        assert np.array_equal(arr, want), name
    assert not np.array_equal(params.buffer, init_params(cfg, 6, seed=3).buffer)


def test_loaded_tensors_are_views_of_the_buffers(tmp_path):
    path = tmp_path / "v3.ckpt"
    path.write_text(V3_CHECKPOINT)
    model = TrainedModel.load(path)
    for owner in (model.params, model.cost_head):
        tensors = owner.named_tensors()
        assert sum(arr.size for _, arr in tensors) == owner.buffer.size
        assert all(np.shares_memory(arr, owner.buffer) for _, arr in tensors)
        assert all(np.shares_memory(owner.grads[name], owner.grad_buffer) for name, _ in tensors)
    assert np.array_equal(model.params.buffer[:4], [0.18, 0.56, 0.39, -0.39])
    assert np.array_equal(model.cost_head.buffer, [-0.24, 0.69, 0.0, -0.36, 0.0])


@pytest.mark.parametrize("in_dim", ["-1", "0"])
def test_checkpoint_refuses_a_non_positive_in_dim(tmp_path, capsys, in_dim):
    path = tmp_path / "v3.ckpt"
    path.write_text(V3_CHECKPOINT.replace("config in_dim=2", f"config in_dim={in_dim}"))
    with pytest.raises(ConfigError, match=rf"v3\.ckpt: in_dim: expected a positive integer, "
                                          rf"got {in_dim}$"):
        TrainedModel.load(path)
    assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "none.txt")]) == 2
    assert "in_dim: expected a positive integer" in capsys.readouterr().err


@pytest.fixture(scope="module")
def default_run():
    """One default-config epoch: its report and the encoder gradients of its first step."""
    first = []
    step = training.Adam.step

    def record(self, grads, lr):
        if not first:
            first.append(grads[0].copy())
        step(self, grads, lr)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training.Adam, "step", record)
        report, model = training.train(synth.generate(synth.SynthConfig(seed=1)),
                                       TrainConfig(epochs=1))
    return report, model, first[0]


def test_one_default_step_gives_every_encoder_tensor_a_gradient(default_run):
    _, model, grad_buffer = default_run
    model.params.grad_buffer[:] = grad_buffer
    for name, grad in model.params.grads.items():
        # every head of the head-stacked W, a and P
        for part in (grad if name.rsplit(".", 1)[1] in ("W", "a", "P") else [grad]):
            assert np.any(part != 0.0), name


def test_default_config_counts_no_nonconverged_proxy_update(default_run):
    report, _, _ = default_run
    assert report.sinkhorn_nonconverged == 0


def test_train_refuses_a_run_in_which_no_proxy_update_converges():
    train_ds, _ = tiny_split()
    cfg = replace(TINY_TRAIN, epochs=1, sinkhorn=SinkhornConfig(max_iters=1, marginal_tol=1e-15))
    with pytest.raises(NumericError, match=r"^none of \d+ proxy updates converged$"):
        training.train(train_ds, cfg)
