"""End-to-end training: encoder -> edit distance to proxies -> anchor loss.

Each mini-batch goes through the encoder in one batched pass, is scored
against every initialized class proxy in one (B, C) distance table,
backpropagates the anchor loss through the table, cost head and encoder in
one backward pass, takes an Adam step with a stepped learning-rate
schedule, and then refreshes the touched proxies by online clustering of
its node embeddings, counting the updates whose transport did not converge.
`evaluate` runs the same encoder and table over chunks of `batch_size`
instances, so a prediction never depends on the chunk an instance falls in;
`encode_dataset` derives the explanations' relevance graphs from the same
node embeddings. Three ablation switches cover the input-graph edge rule
(CG), graph-valued proxies (PD), and graph-space matching (TR).
"""
from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .autodiff import Var
from .checkpoint import read_checkpoint, write_checkpoint
from .complementarity import ComplementarityConfig, build_dataset
from .encoder import EncoderConfig, GatParams, init_params
from .errors import ConfigError, NumericError
from .graphs import ViewGraph, midpoint_edges
from .hed import CostHead, hed_values_multi
from .proxies import (ProxyAnchorConfig, ProxyGraph, SinkhornConfig, proxy_anchor_loss,
                      update_proxies)
from .synth import SynthConfig, SynthDataset, generate, parse_noise_model, split_dataset

# Share of each generated dataset the sweeps hold out for testing.
SWEEP_TEST_FRACTION = 0.2


@dataclass(frozen=True)
class AblationConfig:
    use_complementarity_graph: bool = True   # CG: 1/|dot| local edges vs all-ones
    proxy_as_graph: bool = True              # PD: concept graph vs single vector
    transitivity_recovery: bool = True       # TR: edit distance vs mean-pool matching


@dataclass(frozen=True)
class TrainConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    anchor: ProxyAnchorConfig = field(default_factory=ProxyAnchorConfig)
    comp: ComplementarityConfig = field(default_factory=ComplementarityConfig)
    ablations: AblationConfig = field(default_factory=AblationConfig)
    epochs: int = 200
    learning_rate: float = 0.005
    lr_decay: float = 0.1
    lr_decay_every: int = 100
    weight_decay: float = 5e-4
    batch_size: int = 8
    proxy_momentum: float = 0.9
    cost_head_hidden: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.lr_decay <= 0 or self.lr_decay_every < 1:
            raise ConfigError("invalid learning-rate schedule")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if not 0.0 <= self.proxy_momentum <= 1.0:
            raise ConfigError("proxy_momentum must lie in [0, 1]")
        if self.cost_head_hidden < 1:
            raise ConfigError("cost_head_hidden must be >= 1")

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * self.lr_decay ** (epoch // self.lr_decay_every)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


# The one schema of run-config and checkpoint keys: key -> (component,
# dataclass field, parser). "train" names TrainConfig's own scalars; every
# other component but "synth" is the TrainConfig field of that name.
CONFIG_KEYS: dict[str, tuple[str, str, Callable[[str], object]]] = {
    "synth.classes": ("synth", "num_classes", _parse_int),
    "synth.instances_per_class": ("synth", "instances_per_class", _parse_int),
    "synth.views": ("synth", "views_per_instance", _parse_int),
    "synth.dim": ("synth", "feature_dim", _parse_int),
    "synth.eta": ("synth", "noise_rate", _parse_float),
    "synth.noise_model": ("synth", "noise_model", parse_noise_model),
    "synth.concepts_per_class": ("synth", "concept_count_per_class", _parse_int),
    "synth.sigma": ("synth", "noise_scale", _parse_float),
    "synth.seed": ("synth", "seed", _parse_int),
    "encoder.layers": ("encoder", "num_layers", _parse_int),
    "encoder.heads": ("encoder", "heads_per_layer", _parse_int),
    "encoder.hidden_dim": ("encoder", "hidden_dim", _parse_int),
    "encoder.leaky_slope": ("encoder", "leaky_slope", _parse_float),
    "encoder.edge_update": ("encoder", "edge_update", _parse_bool),
    "encoder.norm_eps": ("encoder", "norm_eps", _parse_float),
    "sinkhorn.epsilon": ("sinkhorn", "entropic_regularizer", _parse_float),
    "sinkhorn.max_iters": ("sinkhorn", "max_iters", _parse_int),
    "sinkhorn.tol": ("sinkhorn", "marginal_tol", _parse_float),
    "anchor.margin": ("anchor", "margin", _parse_float),
    "anchor.scale": ("anchor", "scale", _parse_float),
    "comp.weight_cap": ("comp", "weight_cap", _parse_float),
    "comp.normalize": ("comp", "normalize_embeddings", _parse_bool),
    "train.epochs": ("train", "epochs", _parse_int),
    "train.lr": ("train", "learning_rate", _parse_float),
    "train.lr_decay": ("train", "lr_decay", _parse_float),
    "train.lr_decay_every": ("train", "lr_decay_every", _parse_int),
    "train.weight_decay": ("train", "weight_decay", _parse_float),
    "train.batch_size": ("train", "batch_size", _parse_int),
    "train.proxy_momentum": ("train", "proxy_momentum", _parse_float),
    "train.cost_hidden": ("train", "cost_head_hidden", _parse_int),
    "train.seed": ("train", "seed", _parse_int),
    "ablate.cg": ("ablations", "use_complementarity_graph", _parse_bool),
    "ablate.pd": ("ablations", "proxy_as_graph", _parse_bool),
    "ablate.tr": ("ablations", "transitivity_recovery", _parse_bool),
}

# Checkpoints write and require every key but the synth ones, in table order.
_CHECKPOINT_KEYS = [key for key, (part, _, _) in CONFIG_KEYS.items() if part != "synth"]

_COMPONENTS = {"synth": SynthConfig, "encoder": EncoderConfig, "sinkhorn": SinkhornConfig,
               "anchor": ProxyAnchorConfig, "comp": ComplementarityConfig,
               "ablations": AblationConfig}


def parse_value(key: str, raw: str) -> object:
    """The value of one config key; the ConfigError names the key."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown key {key!r}")
    try:
        return CONFIG_KEYS[key][2](raw)
    except ConfigError as err:
        raise ConfigError(f"{key}: {err}") from None


def build_configs(values: dict[str, object]) -> tuple[SynthConfig, TrainConfig]:
    """Component configs from parsed key values; absent keys keep their defaults."""
    kwargs: dict[str, dict[str, object]] = {part: {} for part in (*_COMPONENTS, "train")}
    for key, value in values.items():
        part, attr, _ = CONFIG_KEYS[key]
        kwargs[part][attr] = value
    parts = {part: cls(**kwargs[part]) for part, cls in _COMPONENTS.items()}
    synth = parts.pop("synth")
    return synth, TrainConfig(**parts, **kwargs["train"])


def format_config(cfg: TrainConfig) -> dict[str, str]:
    """Checkpoint text of every non-synth key: booleans as true/false, else repr."""
    out = {}
    for key in _CHECKPOINT_KEYS:
        part, attr, _ = CONFIG_KEYS[key]
        value = getattr(cfg if part == "train" else getattr(cfg, part), attr)
        out[key] = str(value).lower() if isinstance(value, bool) else repr(value)
    return out


@dataclass
class TrainReport:
    epoch_losses: list[float]
    final_train_accuracy: float
    final_test_accuracy: float | None
    sinkhorn_nonconverged: int           # proxy updates whose transport missed its tolerance
    checkpoint_path: str | None = None

    def losses_csv(self) -> str:
        lines = ["epoch,loss"]
        lines += [f"{e},{v:.9g}" for e, v in enumerate(self.epoch_losses)]
        return "\n".join(lines) + "\n"


@dataclass
class TrainedModel:
    config: TrainConfig
    in_dim: int
    params: GatParams
    cost_head: CostHead
    proxies: dict[int, ProxyGraph] = field(default_factory=dict)
    proxy_vectors: dict[int, np.ndarray] = field(default_factory=dict)

    # -- inference ---------------------------------------------------------
    def class_ids(self) -> list[int]:
        src = self.proxies if self.config.ablations.proxy_as_graph else self.proxy_vectors
        return sorted(src)

    def distance_table(self, nodes: Var, bound_head) -> Var:
        """(B, C) distances of encoded node sets (B, N, d) to every class, id order."""
        ab = self.config.ablations
        ids = self.class_ids()
        targets = ad.constant(_proxy_targets(self, ids))
        if ab.proxy_as_graph and ab.transitivity_recovery:
            return hed_values_multi(nodes, targets, self.proxies[ids[0]].num_slots, bound_head)
        return ad.pairwise_l2(ad.vmean(nodes, axis=1), targets)

    def distances(self, srg: ViewGraph) -> np.ndarray:
        """Distance of one encoded instance to every known class, id order."""
        table = self.distance_table(ad.constant(srg.node_features[None]),
                                    self.cost_head.bind(False))
        return table.value[0]

    # -- persistence -------------------------------------------------------
    def save(self, path) -> None:
        tensors = list(self.params.named_tensors()) + list(self.cost_head.named_tensors())
        for cid in sorted(self.proxies):
            tensors.append((f"proxy{cid}.nodes", self.proxies[cid].node_centroids))
        for cid in sorted(self.proxy_vectors):
            tensors.append((f"proxy{cid}.vector", self.proxy_vectors[cid]))
        write_checkpoint(path, {"in_dim": str(self.in_dim), **format_config(self.config)},
                         tensors)

    @classmethod
    def load(cls, path) -> "TrainedModel":
        config, tensors = read_checkpoint(path)
        try:
            return cls._from_checkpoint(config, tensors)
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None

    @classmethod
    def _from_checkpoint(cls, config: dict[str, str], tensors) -> "TrainedModel":
        for key in config:
            if key != "in_dim" and key not in _CHECKPOINT_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
        for key in ("in_dim", *_CHECKPOINT_KEYS):
            if key not in config:
                raise ConfigError(f"missing config key {key!r}")
        try:
            in_dim = _parse_int(config.pop("in_dim"))
        except ConfigError as err:
            raise ConfigError(f"in_dim: {err}") from None
        _, cfg = build_configs({key: parse_value(key, raw) for key, raw in config.items()})
        params = init_params(cfg.encoder, in_dim, seed=cfg.seed)
        head = CostHead(cfg.encoder.hidden_dim, cfg.cost_head_hidden, seed=cfg.seed + 1)
        model = cls(cfg, in_dim, params, head)
        width = cfg.encoder.hidden_dim
        pd = cfg.ablations.proxy_as_graph
        unread = {name: store for store in (params, head) for name, _ in store.named_tensors()}
        # `proxyN.edges`, written by earlier versions, pass the checks of the
        # nodes and are then dropped: no distance reads them
        stash: dict[str, dict[int, np.ndarray]] = {
            "nodes": {}, "edges": {}, "vector": model.proxy_vectors}
        for name, arr in tensors:
            if name in unread:
                unread.pop(name).set_tensor(name, arr)
                continue
            if name == f"layer{cfg.encoder.num_layers - 1}.edge_update":
                # the final layer's edge map of earlier versions: checked, dropped
                shape = (2 * width + enc._layer_dims(cfg.encoder, in_dim)[-1][2], width)
                if arr.shape != shape:
                    raise ConfigError(f"shape mismatch for {name}: {shape} vs {arr.shape}")
                continue
            slot, _, kind = name.partition(".")
            cid = slot[len("proxy"):]
            # canonical ids only, as `save` writes them: no two names alias one class
            if not (slot.startswith("proxy") and re.fullmatch("0|-?[1-9][0-9]*", cid)
                    and kind in stash):
                raise ConfigError(f"unknown tensor {name}")
            if (kind == "vector") == pd:
                raise ConfigError(f"tensor {name} does not belong to a checkpoint with "
                                  f"ablate.pd={str(pd).lower()}")
            if arr.shape[-1:] != (width,) or arr.ndim != (1 if kind == "vector" else 2):
                raise ConfigError(f"tensor {name}: shape {arr.shape} does not fit "
                                  f"hidden_dim {width}")
            stash[kind][int(cid)] = arr
        if unread:
            raise ConfigError(f"missing tensor {next(iter(unread))}")
        orphans = sorted(stash["edges"].keys() - stash["nodes"].keys())
        if orphans:
            raise ConfigError(f"missing tensor proxy{orphans[0]}.nodes")
        for cid in sorted(stash["nodes"]):
            try:
                model.proxies[cid] = ProxyGraph(cid, stash["nodes"][cid])
            except ValueError as err:
                raise ConfigError(f"proxy{cid}: {err}") from None
        return model


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with L2 weight decay folded into the gradient (betas 0.9/0.999).

    Works on flat parameter buffers, such as `GatParams.buffer` and
    `CostHead.buffer`, and updates each buffer in place with one
    elementwise pass per `step`; the gradients come as buffers of the same
    layout, in the same order."""

    def __init__(self, buffers: list[np.ndarray], weight_decay: float = 0.0):
        self.buffers = buffers
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(buf) for buf in buffers]
        self.v = [np.zeros_like(buf) for buf in buffers]
        self.t = 0

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        self.t += 1
        b1c = 1.0 - _BETA1 ** self.t
        b2c = 1.0 - _BETA2 ** self.t
        for i, (buf, grad) in enumerate(zip(self.buffers, grads, strict=True)):
            g = grad + self.weight_decay * buf
            self.m[i] = _BETA1 * self.m[i] + (1.0 - _BETA1) * g
            self.v[i] = _BETA2 * self.v[i] + (1.0 - _BETA2) * g * g
            mhat = self.m[i] / b1c
            vhat = self.v[i] / b2c
            buf -= lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)


def _anchor_loss_var(table: Var, labels, class_ids, cfg: ProxyAnchorConfig) -> Var:
    """Anchor loss as a tape node; local gradients come from the closed form."""
    loss, dh = proxy_anchor_loss(table.value, labels, class_ids, cfg)

    def bk(g):
        return (g * dh,)
    return Var(np.asarray(loss), requires_grad=table.requires_grad,
               parents=(table,), backward=bk)


def _proxy_targets(model: TrainedModel, class_ids: list[int]) -> np.ndarray:
    """Stacked per-class comparison targets matching the ablation mode."""
    ab = model.config.ablations
    if not ab.proxy_as_graph:
        return np.stack([model.proxy_vectors[cid] for cid in class_ids])
    if not ab.transitivity_recovery:
        return np.stack([model.proxies[cid].node_centroids.mean(axis=0)
                         for cid in class_ids])
    return np.vstack([model.proxies[cid].node_centroids for cid in class_ids])


def _update_proxies(model: TrainedModel, nodes_by_class: dict[int, np.ndarray],
                    cfg: TrainConfig, momentum: float) -> list[bool]:
    """Blend each batch class's cluster means into its proxy, keeping `momentum`
    of the old value (an unseen class starts at its first graph or batch mean).
    Returns each graph proxy update's convergence flag."""
    converged = []
    for cid, nodes in nodes_by_class.items():
        if cfg.ablations.proxy_as_graph:
            old = model.proxies[cid] if cid in model.proxies else ProxyGraph(cid, nodes[0])
            model.proxies[cid], ok = update_proxies(old, nodes, cfg.sinkhorn, momentum=momentum)
            converged.append(ok)
        else:
            mean = nodes.mean(axis=1).mean(axis=0)
            model.proxy_vectors[cid] = (momentum * model.proxy_vectors.get(cid, mean)
                                        + (1.0 - momentum) * mean)
    return converged


def train(dataset: SynthDataset, cfg: TrainConfig,
          test_dataset: SynthDataset | None = None,
          checkpoint_path=None, log=None) -> tuple[TrainReport, TrainedModel]:
    """Deterministic per config+seed; raises NumericError if the loss diverges
    or if no graph proxy update's transport converges."""
    if len(dataset.class_ids) < 2:
        raise ConfigError("training needs at least two classes")
    rng = np.random.default_rng(cfg.seed)
    in_dim = dataset.config.feature_dim

    if test_dataset is not None:
        check_classes(dataset.class_ids, test_dataset, "the model being trained")
        if test_dataset.config.feature_dim != in_dim:
            raise ConfigError(f"test data feature dim {test_dataset.config.feature_dim} "
                              f"!= training data feature dim {in_dim}")
    graphs = _input_graphs(cfg, dataset)
    labels = [inst.label for inst in dataset.instances]

    params = init_params(cfg.encoder, in_dim, seed=cfg.seed)
    head = CostHead(cfg.encoder.hidden_dim, cfg.cost_head_hidden, seed=cfg.seed + 1)
    model = TrainedModel(cfg, in_dim, params, head)

    opt = Adam([params.buffer, head.buffer], weight_decay=cfg.weight_decay)

    epoch_losses, converged = [], []    # one convergence flag per graph proxy update
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(len(graphs))
        batch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_labels = [labels[i] for i in idx]

            tape = enc.forward(params, [graphs[i] for i in idx], True)
            # each class's (B_c, N, d) node stack, in batch order, by class id
            label_arr = np.asarray(batch_labels)
            nodes_by_class = {int(cid): tape.node_out.value[label_arr == cid]
                              for cid in np.unique(label_arr)}

            known = model.class_ids()   # unseen classes start at the batch's cluster means
            unseen = {cid: nodes for cid, nodes in nodes_by_class.items() if cid not in known}
            converged += _update_proxies(model, unseen, cfg, 0.0)
            class_ids = model.class_ids()

            bound = head.bind(True)
            table = model.distance_table(tape.node_out, bound)
            loss_var = _anchor_loss_var(table, batch_labels, class_ids, cfg.anchor)
            if not np.isfinite(loss_var.value):
                raise NumericError(f"loss diverged at epoch {epoch}")
            batch_losses.append(float(loss_var.value))

            params.zero_grads()
            head.zero_grads()
            ad.backward(loss_var, np.asarray(1.0))
            tape.accumulate()
            bound.accumulate()
            opt.step([params.grad_buffer, head.grad_buffer], lr)
            params.check_finite()
            head.check_finite()

            converged += _update_proxies(model, nodes_by_class, cfg, cfg.proxy_momentum)
        epoch_losses.append(float(np.mean(batch_losses)))
        if log is not None and (epoch % 20 == 0 or epoch == cfg.epochs - 1):
            log(f"epoch {epoch}: loss {epoch_losses[-1]:.6f} lr {lr:.6g} "
                f"non-converged proxy updates {converged.count(False)}")
    if converged and not any(converged):
        raise NumericError(f"none of {len(converged)} proxy updates converged")

    train_acc = _accuracy(model, graphs, labels)
    test_acc = evaluate(model, test_dataset) if test_dataset else None
    report = TrainReport(epoch_losses, train_acc, test_acc, converged.count(False))
    if checkpoint_path is not None:
        model.save(checkpoint_path)
        report.checkpoint_path = str(checkpoint_path)
    return report, model


def check_classes(class_ids, dataset: SynthDataset, owner: str) -> None:
    """Refuse a dataset with a class outside `class_ids`: no instance of it
    could be predicted right. The ConfigError names every such class."""
    missing = sorted(set(dataset.class_ids) - set(class_ids))
    if missing:
        raise ConfigError(f"{owner} has no proxy for class "
                          + ", ".join(str(c) for c in missing))


def _input_graphs(cfg: TrainConfig, dataset: SynthDataset) -> list[ViewGraph]:
    """Input graphs of every instance, built `batch_size` instances per stacked pass."""
    return build_dataset(dataset, cfg.comp, uniform=not cfg.ablations.use_complementarity_graph,
                         chunk_size=cfg.batch_size)


def _encoded_chunks(model: TrainedModel, graphs: list[ViewGraph]):
    """The (B, N, hidden) node embedding Var of each batch_size chunk, in order."""
    step = model.config.batch_size
    for start in range(0, len(graphs), step):
        yield enc.forward(model.params, graphs[start:start + step], False).node_out


def encode_dataset(model: TrainedModel, dataset: SynthDataset) -> list[ViewGraph]:
    """Relevance graphs for every instance, in dataset order: node embeddings
    and their `midpoint_edges`."""
    graphs = _input_graphs(model.config, dataset)
    nodes = [x for chunk in _encoded_chunks(model, graphs) for x in chunk.value]
    return [ViewGraph(x, midpoint_edges(x), label=g.label) for x, g in zip(nodes, graphs)]


def _accuracy(model: TrainedModel, graphs: list[ViewGraph], labels) -> float:
    """Fraction of input graphs whose nearest proxy matches their label."""
    ids = np.asarray(model.class_ids())
    bound = model.cost_head.bind(False)
    preds = [ids[model.distance_table(nodes, bound).value.argmin(axis=1)]
             for nodes in _encoded_chunks(model, graphs)]
    return int((np.concatenate(preds) == labels).sum()) / len(labels)


def evaluate(model: TrainedModel, dataset: SynthDataset) -> float:
    """Fraction of instances whose nearest proxy matches their label.

    A ConfigError refuses a dataset with no instances, or with a class the
    model has no proxy for."""
    if not dataset.instances:
        raise ConfigError("cannot evaluate a dataset with no instances")
    check_classes(model.class_ids(), dataset, "the model")
    return _accuracy(model, _input_graphs(model.config, dataset),
                     [inst.label for inst in dataset.instances])


def sweep_noise(base_cfg: TrainConfig, synth_cfg, eta_list, models,
                log=None) -> list[dict]:
    """Train the full model and the matching-ablation baseline per (model, eta).

    Each point trains on one generated dataset and tests on its stratified
    hold-out, which shares the training data's class concepts."""
    rows = []
    for model_name in models:
        name = getattr(model_name, "value", str(model_name))
        for eta in eta_list:
            scfg = replace(synth_cfg, noise_rate=float(eta), noise_model=model_name)
            train_ds, test_ds = split_dataset(generate(scfg), SWEEP_TEST_FRACTION)
            _, full = train(train_ds, base_cfg)
            acc = evaluate(full, test_ds)
            ab_cfg = replace(base_cfg,
                             ablations=replace(base_cfg.ablations,
                                               transitivity_recovery=False))
            _, ablated = train(train_ds, ab_cfg)
            acc_off = evaluate(ablated, test_ds)
            rows.append({"model": name, "eta": float(eta),
                         "accuracy": acc, "accuracy_tr_off": acc_off})
            if log is not None:
                log(f"{name} eta={eta}: full {acc:.4f} vs matching-off {acc_off:.4f}")
    return rows


def noise_csv(rows: list[dict]) -> str:
    lines = ["model,eta,accuracy,accuracy_tr_off"]
    lines += [f"{r['model']},{r['eta']:.6g},{r['accuracy']:.6f},{r['accuracy_tr_off']:.6f}"
              for r in rows]
    return "\n".join(lines) + "\n"


def sweep_depth(base_cfg: TrainConfig, synth_cfg, depth_list, log=None) -> list[dict]:
    """Accuracy and output-node distinguishability per encoder depth, on the
    stratified hold-out of one generated dataset."""
    train_ds, test_ds = split_dataset(generate(synth_cfg), SWEEP_TEST_FRACTION)
    rows = []
    for depth in depth_list:
        cfg = replace(base_cfg, encoder=replace(base_cfg.encoder, num_layers=int(depth)))
        _, model = train(train_ds, cfg)
        acc = evaluate(model, test_ds)
        srgs = encode_dataset(model, test_ds)
        dist = float(np.mean([enc.distinguishability(g.node_features) for g in srgs]))
        rows.append({"depth": int(depth), "accuracy": acc, "distinguishability": dist})
        if log is not None:
            log(f"depth {depth}: accuracy {acc:.4f} distinguishability {dist:.4f}")
    return rows


def depth_csv(rows: list[dict]) -> str:
    lines = ["depth,accuracy,distinguishability"]
    lines += [f"{r['depth']},{r['accuracy']:.6f},{r['distinguishability']:.6f}"
              for r in rows]
    return "\n".join(lines) + "\n"
