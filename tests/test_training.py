"""Batched encoder and trainer: equivalence, determinism and persistence."""
import importlib
from dataclasses import replace

import numpy as np
import pytest

from relviews import encoder as enc
from relviews import synth, training
from relviews.cli import main
from relviews.complementarity import ComplementarityConfig
from relviews.encoder import EncoderConfig, init_params
from relviews.errors import ConfigError, NumericError
from relviews.graphs import ViewGraph, num_pairs
from relviews.hed import CostHead, hed
from relviews.proxies import ProxyAnchorConfig, SinkhornConfig
from relviews.training import AblationConfig, TrainConfig, TrainedModel, format_config
from tests.helpers import PerTensorAdam, encoder_backward

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
    nodes = enc.forward(params, graphs, want_grad=False).node_out.value
    for b, g in enumerate(graphs):
        one = enc.forward(params, [g], want_grad=False).node_out.value
        assert np.array_equal(nodes[b], one[0])


def test_batched_gradients_equal_sum_of_single_graph_gradients():
    params = init_params(EncoderConfig(heads_per_layer=2, hidden_dim=8), 8, seed=3)
    graphs = random_batch(8, seed=4)
    tape = enc.forward(params, graphs)
    rng = np.random.default_rng(5)
    rn = rng.standard_normal(tape.node_out.shape)
    params.zero_grads()
    batched = encoder_backward(tape, rn)
    summed = {name: np.zeros_like(arr) for name, arr in params.named_tensors()}
    for b, g in enumerate(graphs):
        one = enc.forward(params, [g])
        for name, grad in encoder_backward(one, rn[b:b + 1]).items():
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


def test_evaluate_over_two_chunks_and_a_remainder_matches_argmin_of_distances():
    train_ds, _ = tiny_split(noise_rate=0.5)
    cfg = replace(TINY_TRAIN, epochs=1, batch_size=4)
    _, model = training.train(train_ds, cfg)
    held = synth.generate(replace(TINY_SYNTH, noise_rate=0.5, seed=9))
    ds = synth.SynthDataset(held.config, held.instances[::5][:2 * cfg.batch_size + 3])
    assert len(ds) == 11 and set(ds.class_ids) == set(model.class_ids())
    ids = model.class_ids()
    preds = [ids[int(np.argmin(model.distances(g)))]
             for g in training.encode_dataset(model, ds)]
    expect = float(np.mean([p == inst.label for p, inst in zip(preds, ds.instances)]))
    assert 0.0 < expect < 1.0
    assert training.evaluate(model, ds) == expect


def test_evaluate_refuses_a_class_without_proxy():
    train_ds, _ = tiny_split()
    two = synth.SynthDataset(train_ds.config,
                             [inst for inst in train_ds.instances if inst.label < 2])
    _, model = training.train(two, replace(TINY_TRAIN, epochs=1))
    with pytest.raises(ConfigError, match=r"^the model has no proxy for class 2$"):
        training.evaluate(model, train_ds)


def test_evaluate_refuses_an_empty_dataset():
    cfg = replace(TINY_TRAIN, encoder=EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=4))
    model = TrainedModel(cfg, 8, init_params(cfg.encoder, 8, seed=1), CostHead(4, 3, seed=2),
                         proxy_vectors={0: np.zeros(4)})
    empty = synth.SynthDataset(synth.generate(TINY_SYNTH).config, [])
    with pytest.raises(ConfigError, match=r"^cannot evaluate a dataset with no instances$"):
        training.evaluate(model, empty)


def test_train_builds_its_input_graphs_once(monkeypatch):
    train_ds, _ = tiny_split()
    calls = []
    build = training.build_dataset

    def counted(ds, *args, **kwargs):
        calls.append(len(ds))
        return build(ds, *args, **kwargs)
    monkeypatch.setattr(training, "build_dataset", counted)
    report, _ = training.train(train_ds, replace(TINY_TRAIN, epochs=1))
    assert calls == [len(train_ds)] and report.final_test_accuracy is None


@pytest.mark.parametrize("bad_step", ["first", "last"])
def test_train_refuses_a_non_finite_cost_head(monkeypatch, tmp_path, bad_step):
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
        training.train(train_ds, cfg, checkpoint_path=tmp_path / "model.ckpt")
    assert not (tmp_path / "model.ckpt").exists()


def test_train_refuses_test_data_with_an_unseen_class_before_training(monkeypatch):
    train_ds, test_ds = tiny_split()
    two = synth.SynthDataset(train_ds.config,
                             [inst for inst in train_ds.instances if inst.label != 1])

    def no_forward(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(enc, "forward", no_forward)
    with pytest.raises(ConfigError, match=r"^the model being trained has no proxy for class 1$"):
        training.train(two, TINY_TRAIN, test_dataset=test_ds)


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
        report, model = training.train(train_ds, TINY_TRAIN, test_dataset=test_ds)
        bound = model.cost_head.bind(False)
        tables = [model.distance_table(nodes, bound).value
                  for nodes in training._encoded_chunks(
                      model, training._input_graphs(model.config, test_ds))]
        runs.append((report, model, np.concatenate(tables)))
    (rep_s, model_s, table_s), (rep_f, model_f, table_f) = runs
    assert rep_s.epoch_losses == rep_f.epoch_losses
    for (name, a), (_, b) in zip(model_s.params.named_tensors(), model_f.params.named_tensors()):
        assert np.array_equal(a, b), name
    assert np.array_equal(table_s, table_f)
    assert rep_s.final_test_accuracy == rep_f.final_test_accuracy


def test_sweeps_test_on_held_out_instances_of_the_same_classes():
    # chance is 1/3; a test set drawn with fresh class concepts scores
    # about that, a hold-out of the training classes close to 1
    rows = training.sweep_noise(TINY_TRAIN, TINY_SYNTH, [0.0], ["outside_global_fraction"])
    assert [(r["model"], r["eta"]) for r in rows] == [("outside_global_fraction", 0.0)]
    assert rows[0]["accuracy"] >= 0.9
    (depth_row,) = training.sweep_depth(TINY_TRAIN, TINY_SYNTH, [2])
    assert depth_row["accuracy"] >= 0.9


def test_save_load_round_trips_every_checkpoint_key(tmp_path):
    cfg = TrainConfig(
        encoder=EncoderConfig(num_layers=1, heads_per_layer=2, hidden_dim=4, leaky_slope=0.3,
                              edge_update=False, norm_eps=1e-4),
        sinkhorn=SinkhornConfig(entropic_regularizer=0.1, max_iters=50, marginal_tol=1e-5),
        anchor=ProxyAnchorConfig(margin=0.2, scale=16.0),
        comp=ComplementarityConfig(weight_cap=100.0, normalize_embeddings=False),
        ablations=AblationConfig(use_complementarity_graph=False, proxy_as_graph=False,
                                 transitivity_recovery=False),
        epochs=3, learning_rate=0.01, lr_decay=0.5, lr_decay_every=7, weight_decay=1e-3,
        batch_size=5, proxy_momentum=0.8, cost_head_hidden=3, seed=9)
    written, default = format_config(cfg), format_config(TrainConfig())
    assert written.keys() == default.keys() and len(written) == 25
    assert all(written[key] != default[key] for key in written)
    model = TrainedModel(cfg, 6, init_params(cfg.encoder, 6, seed=1), CostHead(4, 3, seed=2),
                         proxy_vectors={0: np.arange(4.0), 3: -np.arange(4.0)})
    model.save(tmp_path / "a.ckpt")
    loaded = TrainedModel.load(tmp_path / "a.ckpt")
    assert loaded.config == cfg and loaded.in_dim == 6
    loaded.save(tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    bad = tmp_path / "nan.ckpt"
    bad.write_text((tmp_path / "a.ckpt").read_text().replace(
        "tensor proxy3.vector 4\n-0 -1", "tensor proxy3.vector 4\nnan -1"))
    with pytest.raises(ConfigError, match=r"nan\.ckpt: tensor proxy3\.vector: non-finite value$"):
        TrainedModel.load(bad)


# Written by the first checkpoint writer, `relviews-checkpoint 1`.
V1_CHECKPOINT = """\
relviews-checkpoint 1
config in_dim=2
config encoder.layers=1
config encoder.heads=1
config encoder.hidden_dim=2
config encoder.leaky_slope=0.2
config encoder.edge_update=true
config encoder.norm_eps=1e-05
config sinkhorn.epsilon=0.05
config sinkhorn.max_iters=1000
config sinkhorn.tol=1e-06
config anchor.margin=0.1
config anchor.scale=32.0
config comp.weight_cap=10000.0
config comp.normalize=true
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
tensor layer0.head0.W 2,2
0.17999999999999999 0.56000000000000005 0.39000000000000001 -0.39000000000000001
tensor layer0.head0.a 6
-0.16 0.31 -0.40000000000000002 0.26000000000000001 0.23999999999999999 -0.029999999999999999
tensor layer0.head0.P 2,2
-0.28000000000000003 -0.31 -0.34999999999999998 -0.080000000000000002
tensor layer0.edge_update 6,2
0 0.040000000000000001 0.40000000000000002 0.23999999999999999 0.10000000000000001 \
0.40000000000000002 -0.23000000000000001 -0.28000000000000003 0.089999999999999997 -0.37 -0.38 0.01
tensor cost.W1 2,1
-0.23999999999999999 0.68999999999999995
tensor cost.b1 1
0
tensor cost.w2 1,1
-0.35999999999999999
tensor cost.b2 1
0
tensor proxy0.nodes 3,2
0.5 -0.25 1 0 0 1.5
tensor proxy0.edges 3,2
0.10000000000000001 0.20000000000000001 0.29999999999999999 0.40000000000000002 0.5 \
0.59999999999999998
tensor proxy1.nodes 3,2
-0.5 0.25 2 1 1 -1.5
tensor proxy1.edges 3,2
0 0 1 1 2 2
"""


def test_v1_checkpoint_text_loads_and_writes_back_without_proxy_edges(tmp_path):
    # the proxies' edge tensors and the final layer's edge update of V1 text
    # enter no distance: they are checked on load, dropped, and not written back
    path = tmp_path / "v1.ckpt"
    path.write_text(V1_CHECKPOINT)
    model = TrainedModel.load(path)
    assert model.in_dim == 2
    assert model.config == TrainConfig(
        encoder=EncoderConfig(num_layers=1, heads_per_layer=1, hidden_dim=2),
        cost_head_hidden=1, epochs=3, seed=7)
    assert sorted(model.proxies) == [0, 1] and not model.proxy_vectors
    assert np.array_equal(model.proxies[1].node_centroids, [[-0.5, 0.25], [2, 1], [1, -1.5]])
    assert model.cost_head.W1[1, 0] == 0.69
    distances = model.distances(ViewGraph(model.proxies[0].node_centroids, np.zeros((3, 2))))
    assert distances[0] == 0.0 < distances[1]
    model.save(tmp_path / "again.ckpt")
    lines = V1_CHECKPOINT.splitlines()
    edges = [i for i, line in enumerate(lines) if line.startswith("tensor ")
             and line.split()[1].endswith((".edges", ".edge_update"))]
    assert len(edges) == 3
    kept = [line for i, line in enumerate(lines) if i not in {j + k for j in edges for k in (0, 1)}]
    assert (tmp_path / "again.ckpt").read_text() == "\n".join(kept) + "\n"


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
    path = tmp_path / "v1.ckpt"
    path.write_text(V1_CHECKPOINT)
    model = TrainedModel.load(path)
    for owner in (model.params, model.cost_head):
        tensors = owner.named_tensors()
        assert sum(arr.size for _, arr in tensors) == owner.buffer.size
        assert all(np.shares_memory(arr, owner.buffer) for _, arr in tensors)
        assert all(np.shares_memory(owner.grads[name], owner.grad_buffer) for name, _ in tensors)
    assert np.array_equal(model.params.buffer[:4], [0.18, 0.56, 0.39, -0.39])
    assert np.array_equal(model.cost_head.buffer, [-0.24, 0.69, 0.0, -0.36, 0.0])


def test_checkpoint_refuses_a_final_edge_update_of_another_shape(tmp_path, capsys):
    path = tmp_path / "v1.ckpt"
    path.write_text(V1_CHECKPOINT.replace("tensor layer0.edge_update 6,2",
                                          "tensor layer0.edge_update 4,3"))
    with pytest.raises(ConfigError, match=r"v1\.ckpt: shape mismatch for layer0\.edge_update: "
                                          r"\(6, 2\) vs \(4, 3\)$"):
        TrainedModel.load(path)
    assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "none.txt")]) == 2
    assert "shape mismatch for layer0.edge_update" in capsys.readouterr().err


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
        assert np.any(grad != 0.0), name


def test_default_config_counts_no_nonconverged_proxy_update(default_run):
    report, _, _ = default_run
    assert report.sinkhorn_nonconverged == 0


def test_train_refuses_a_run_in_which_no_proxy_update_converges():
    train_ds, _ = tiny_split()
    cfg = replace(TINY_TRAIN, epochs=1, sinkhorn=SinkhornConfig(max_iters=1, marginal_tol=1e-15))
    with pytest.raises(NumericError, match=r"^none of \d+ proxy updates converged$"):
        training.train(train_ds, cfg)
