"""End-to-end training: encoder -> edit distance to proxies -> anchor loss.

Each mini-batch goes through the encoder in one batched pass, is scored
against every initialized class proxy in one (B, C) distance table,
backpropagates the anchor loss through the table, cost head and encoder in
one backward pass, takes an Adam step with a stepped learning-rate
schedule, and then refreshes the touched proxies by online clustering of
its node embeddings, counting the updates whose transport did not converge.
`train` runs no inference pass: its report holds the epoch losses and that
count, and every accuracy, on the training data or a hold-out, comes from
`evaluate`. `evaluate` runs the same encoder over chunks of
`_INFERENCE_CHUNK` instances, not `batch_size`, and takes the table's
argmin from `TrainedModel.predict`; every instance gets the same values in
any chunk, so a prediction never depends on the chunk it falls in.
`encode_dataset` derives the explanations' relevance graphs from the same
node embeddings. Three ablation switches cover the input-graph edge rule
(CG), graph-valued proxies (PD), and graph-space matching (TR). `sweep`
trains and tests once per point of a product of config values.
`CONFIG_KEYS` takes its `synth.*` keys from `synth.SYNTH_KEYS` and its value
parsers from `errors`.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .autodiff import Var
from .checkpoint import read_container, write_container
from .complementarity import build_dataset
from .encoder import EncoderConfig, GatParams, init_params
from .errors import (ConfigError, NumericError, check_keys, format_value, parse_bool,
                     parse_float, parse_int, parse_named)
from .graphs import ViewGraph, midpoint_weights
from .hed import CostHead, hed_values_multi, nearest
from .proxies import (ProxyAnchorConfig, ProxyGraph, SinkhornConfig, proxy_anchor_loss,
                      update_proxies)
from .synth import SYNTH_KEYS, SynthConfig, SynthDataset, generate, split_dataset

# Share of each generated dataset a sweep holds out for testing.
SWEEP_TEST_FRACTION = 0.2

# Instances per input-graph build, encoder pass and distance table outside
# training; each pass pays a fixed numpy overhead. On a 2-vCPU x86_64 host
# the per-instance cost was flat from 16 to 32 instances and rose at 64;
# 24 keeps the peak RSS about 4 MB above 8-instance chunks.
_INFERENCE_CHUNK = 24


# TR acts only with PD on; `sweep` refuses to vary TR where PD is off.
@dataclass(frozen=True)
class AblationConfig:
    use_complementarity_graph: bool = True   # CG: 1/|dot| local edge weights vs 1
    proxy_as_graph: bool = True              # PD: concept graph vs single vector
    transitivity_recovery: bool = True       # TR: edit distance vs mean-pool matching


@dataclass(frozen=True)
class TrainConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    anchor: ProxyAnchorConfig = field(default_factory=ProxyAnchorConfig)
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


# The one schema of run-config and checkpoint keys: key -> (component,
# dataclass field, parser). "train" names TrainConfig's own scalars; every
# other component but "synth" is the TrainConfig field of that name.
CONFIG_KEYS: dict[str, tuple[str, str, Callable[[str], object]]] = {
    **{f"synth.{key}": ("synth", attr, parse) for key, (attr, parse) in SYNTH_KEYS.items()},
    "encoder.layers": ("encoder", "num_layers", parse_int),
    "encoder.heads": ("encoder", "heads_per_layer", parse_int),
    "encoder.hidden_dim": ("encoder", "hidden_dim", parse_int),
    "sinkhorn.epsilon": ("sinkhorn", "entropic_regularizer", parse_float),
    "sinkhorn.max_iters": ("sinkhorn", "max_iters", parse_int),
    "sinkhorn.tol": ("sinkhorn", "marginal_tol", parse_float),
    "anchor.margin": ("anchor", "margin", parse_float),
    "anchor.scale": ("anchor", "scale", parse_float),
    "train.epochs": ("train", "epochs", parse_int),
    "train.lr": ("train", "learning_rate", parse_float),
    "train.lr_decay": ("train", "lr_decay", parse_float),
    "train.lr_decay_every": ("train", "lr_decay_every", parse_int),
    "train.weight_decay": ("train", "weight_decay", parse_float),
    "train.batch_size": ("train", "batch_size", parse_int),
    "train.proxy_momentum": ("train", "proxy_momentum", parse_float),
    "train.cost_hidden": ("train", "cost_head_hidden", parse_int),
    "train.seed": ("train", "seed", parse_int),
    "ablate.cg": ("ablations", "use_complementarity_graph", parse_bool),
    "ablate.pd": ("ablations", "proxy_as_graph", parse_bool),
    "ablate.tr": ("ablations", "transitivity_recovery", parse_bool),
}

# A checkpoint's format line, and the keys it writes and requires: every key
# but the synth ones, in table order.
_CHECKPOINT_FORMAT = "relviews-checkpoint 3"
_CHECKPOINT_KEYS = [key for key, (part, _, _) in CONFIG_KEYS.items() if part != "synth"]


def build_configs(values: dict[str, object], synth: SynthConfig = SynthConfig(),
                  cfg: TrainConfig = TrainConfig()) -> tuple[SynthConfig, TrainConfig]:
    """`synth` and `cfg` with parsed key values applied; absent keys keep their
    base values. Each component is rebuilt by `dataclasses.replace`, which
    runs its checks again, so an invalid value raises a ConfigError."""
    changes: dict[str, dict[str, object]] = {}
    for key, value in values.items():
        part, attr, _ = CONFIG_KEYS[key]
        changes.setdefault(part, {})[attr] = value
    synth = replace(synth, **changes.pop("synth", {}))
    train = changes.pop("train", {})
    parts = {part: replace(getattr(cfg, part), **attrs) for part, attrs in changes.items()}
    return synth, replace(cfg, **parts, **train)


def format_config(cfg: TrainConfig) -> dict[str, str]:
    """Checkpoint text of every non-synth key, by `errors.format_value`."""
    out = {}
    for key in _CHECKPOINT_KEYS:
        part, attr, _ = CONFIG_KEYS[key]
        out[key] = format_value(getattr(cfg if part == "train" else getattr(cfg, part), attr))
    return out


@dataclass
class TrainReport:
    """Each epoch's mean loss and the proxy updates whose transport missed its
    tolerance; accuracies come from `evaluate`."""
    epoch_losses: list[float]
    sinkhorn_nonconverged: int

    def losses_csv(self) -> str:
        lines = ["epoch,loss"]
        lines += [f"{e},{v:.9g}" for e, v in enumerate(self.epoch_losses)]
        return "\n".join(lines) + "\n"


@dataclass
class TrainedModel:
    config: TrainConfig
    params: GatParams
    cost_head: CostHead
    proxies: dict[int, ProxyGraph] = field(default_factory=dict)
    proxy_vectors: dict[int, np.ndarray] = field(default_factory=dict)

    # -- inference ---------------------------------------------------------
    def class_ids(self) -> list[int]:
        src = self.proxies if self.config.ablations.proxy_as_graph else self.proxy_vectors
        return sorted(src)

    def distance_table(self, nodes):
        """(B, C) distances of encoded node sets (B, N, d) to every class, id
        order: an array, or over the encoder's output Var one tape node."""
        ab = self.config.ablations
        ids = self.class_ids()
        targets = _proxy_targets(self, ids)
        if ab.proxy_as_graph and ab.transitivity_recovery:
            return hed_values_multi(nodes, targets, self.proxies[ids[0]].num_slots,
                                    self.cost_head)
        return _mean_pool_table(nodes, targets)

    def predict(self, nodes: np.ndarray) -> np.ndarray:
        """Class id of each encoded node set's (B, N, d) nearest class, first in
        id order on a tie: `distance_table`'s argmin, by `hed.nearest` under TR."""
        ab, ids = self.config.ablations, self.class_ids()
        if ab.proxy_as_graph and ab.transitivity_recovery:
            return np.asarray(ids)[nearest(nodes, _proxy_targets(self, ids),
                                           self.proxies[ids[0]].num_slots, self.cost_head)]
        return np.asarray(ids)[self.distance_table(nodes).argmin(axis=1)]

    def distances(self, srg: ViewGraph) -> np.ndarray:
        """Distance of one encoded instance to every known class, id order."""
        return self.distance_table(srg.node_features[None])[0]

    # -- persistence -------------------------------------------------------
    def save(self, path) -> None:
        """The config and `params.in_dim` as config lines; the encoder's and
        the cost head's stored tensors by name; then the class ids in order,
        `proxies.ids` (C,), and one stack of their proxies: `proxies.nodes`
        (C, slots, hidden) with graph proxies, else `proxies.vectors`
        (C, hidden)."""
        ids = self.class_ids()
        if self.config.ablations.proxy_as_graph:
            stack = ("proxies.nodes", np.stack([self.proxies[c].node_centroids for c in ids]))
        else:
            stack = ("proxies.vectors", np.stack([self.proxy_vectors[c] for c in ids]))
        write_container(path, _CHECKPOINT_FORMAT,
                        {"in_dim": str(self.params.in_dim), **format_config(self.config)},
                        [*self.params.named_tensors(), *self.cost_head.named_tensors(),
                         ("proxies.ids", np.asarray(ids, dtype=np.float64)), stack])

    @classmethod
    def load(cls, path) -> "TrainedModel":
        config, tensors = read_container(path, _CHECKPOINT_FORMAT, "checkpoint",
                                         "train the model again")
        try:
            return cls._from_checkpoint(config, tensors)
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None

    @classmethod
    def _from_checkpoint(cls, config: dict[str, str], tensors) -> "TrainedModel":
        check_keys(config, ("in_dim", *_CHECKPOINT_KEYS), "config key")
        in_dim = parse_named("in_dim", parse_int, config.pop("in_dim"))
        if in_dim < 1:
            raise ConfigError(f"in_dim: expected a positive integer, got {in_dim}")
        _, cfg = build_configs({key: parse_named(key, CONFIG_KEYS[key][2], raw)
                                for key, raw in config.items()})
        params = init_params(cfg.encoder, in_dim, seed=cfg.seed)
        head = CostHead(cfg.encoder.hidden_dim, cfg.cost_head_hidden, seed=cfg.seed + 1)
        model = cls(cfg, params, head)
        pd = cfg.ablations.proxy_as_graph
        kind, other = "proxies.nodes", "proxies.vectors"
        if not pd:
            kind, other = other, kind
        if other in tensors:
            raise ConfigError(f"tensor {other} does not belong to a checkpoint with "
                              f"ablate.pd={str(pd).lower()}")
        check_keys(tensors, (*params.names, *head.names, "proxies.ids", kind), "tensor")
        for store in (params, head):
            for name in store.names:
                store.set_tensor(name, tensors[name])
        # one id per proxy row, and equal slot counts by the stack's shape
        ids, stack, width = tensors["proxies.ids"], tensors[kind], cfg.encoder.hidden_dim
        if (ids.ndim, stack.ndim) != (1, 3 if pd else 2) or len(stack) != len(ids) \
                or stack.shape[-1] != width:
            raise ConfigError(f"tensor {kind}: shape {stack.shape} does not fit proxies.ids "
                              f"of shape {ids.shape} and hidden_dim {width}")
        seen = set()
        for cid in ids.tolist():
            if cid != int(cid):
                raise ConfigError(f"tensor proxies.ids: class id {cid!r} is not an integer")
            if cid in seen:
                raise ConfigError(f"tensor proxies.ids: class id {int(cid)} appears twice")
            seen.add(cid)
        for cid, arr in zip(ids.tolist(), stack):
            if pd:
                try:
                    model.proxies[int(cid)] = ProxyGraph(arr)
                except ValueError as err:
                    raise ConfigError(f"tensor proxies.nodes: {err}") from None
            else:
                model.proxy_vectors[int(cid)] = arr
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
        # in place, two temporary arrays per buffer; every product and sum
        # keeps its operands of the textbook form, so the values do not change
        for buf, grad, m, v in zip(self.buffers, grads, self.m, self.v, strict=True):
            g = self.weight_decay * buf
            g += grad
            t = np.multiply(1.0 - _BETA1, g)
            m *= _BETA1
            m += t
            np.multiply(1.0 - _BETA2, g, out=t)
            t *= g
            v *= _BETA2
            v += t
            np.divide(v, b2c, out=t)
            np.sqrt(t, out=t)
            t += _ADAM_EPS
            np.divide(m, b1c, out=g)
            g *= lr
            g /= t
            buf -= g


def _anchor_loss_var(table: Var, labels, class_ids, cfg: ProxyAnchorConfig) -> Var:
    """Anchor loss as a tape node; local gradients come from the closed form."""
    loss, dh = proxy_anchor_loss(table.value, labels, class_ids, cfg)

    def bk(g):
        return (g * dh,)
    return Var(np.asarray(loss), requires_grad=table.requires_grad,
               parents=(table,), backward=bk)


def _mean_pool_table(nodes, targets: np.ndarray):
    """(B, C) distances of each node set's mean to each target, the matching
    of the TR-off and PD-off ablations: an array, or over a Var one tape
    node whose backward spreads the mean's closed-form gradient evenly."""
    x = nodes.value if isinstance(nodes, Var) else nodes
    mean = x.mean(axis=1)
    dist = ad.pairwise_l2(mean, targets)
    if not isinstance(nodes, Var):
        return dist

    def bk(g):
        g_mean = ad.pairwise_l2_grad(g, dist, mean, targets)
        return (np.broadcast_to(g_mean[:, None], x.shape) / x.shape[1],)
    return Var(dist, requires_grad=True, parents=(nodes,), backward=bk)


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
            old = model.proxies[cid] if cid in model.proxies else ProxyGraph(nodes[0])
            model.proxies[cid], ok = update_proxies(old, nodes, cfg.sinkhorn, momentum=momentum)
            converged.append(ok)
        else:
            mean = nodes.mean(axis=1).mean(axis=0)
            model.proxy_vectors[cid] = (momentum * model.proxy_vectors.get(cid, mean)
                                        + (1.0 - momentum) * mean)
    return converged


def train(dataset: SynthDataset, cfg: TrainConfig,
          log=None) -> tuple[TrainReport, TrainedModel]:
    """Train a model on `dataset`, with no inference pass: accuracies come from
    `evaluate`. Deterministic per config+seed; raises NumericError if the loss
    diverges or if no graph proxy update's transport converges."""
    if len(dataset.class_ids) < 2:
        raise ConfigError("training needs at least two classes")
    rng = np.random.default_rng(cfg.seed)
    in_dim = dataset.config.feature_dim

    graphs = _input_graphs(cfg, dataset)
    labels = [inst.label for inst in dataset.instances]

    params = init_params(cfg.encoder, in_dim, seed=cfg.seed)
    head = CostHead(cfg.encoder.hidden_dim, cfg.cost_head_hidden, seed=cfg.seed + 1)
    model = TrainedModel(cfg, params, head)

    opt = Adam([params.buffer, head.buffer], weight_decay=cfg.weight_decay)

    epoch_losses, converged = [], []    # one convergence flag per graph proxy update
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(len(graphs))
        batch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_labels = [labels[i] for i in idx]

            nodes = enc.forward(params, [graphs[i] for i in idx], True)
            # each class's (B_c, N, d) node stack, in batch order, by class id
            label_arr = np.asarray(batch_labels)
            nodes_by_class = {int(cid): nodes.value[label_arr == cid]
                              for cid in np.unique(label_arr)}

            known = model.class_ids()   # unseen classes start at the batch's cluster means
            unseen = {cid: nodes for cid, nodes in nodes_by_class.items() if cid not in known}
            converged += _update_proxies(model, unseen, cfg, 0.0)
            class_ids = model.class_ids()

            table = model.distance_table(nodes)
            loss_var = _anchor_loss_var(table, batch_labels, class_ids, cfg.anchor)
            if not np.isfinite(loss_var.value):
                raise NumericError(f"loss diverged at epoch {epoch}")
            batch_losses.append(float(loss_var.value))

            params.zero_grads()
            head.zero_grads()
            ad.backward(loss_var, np.asarray(1.0))
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
    return TrainReport(epoch_losses, converged.count(False)), model


def check_fits(dataset: SynthDataset, class_ids, in_dim: int,
               data: str = "the data", model: str = "the model") -> None:
    """Refuse a dataset of a class outside `class_ids` or a feature dim other than
    `in_dim`, which the model cannot score; the ConfigError names both."""
    missing = sorted(set(dataset.class_ids) - set(class_ids))
    if missing:
        raise ConfigError(f"{model} has no proxy for class "
                          + ", ".join(str(c) for c in missing) + f" of {data}")
    if dataset.config.feature_dim != in_dim:
        raise ConfigError(f"{data} has feature dim {dataset.config.feature_dim}, "
                          f"but {model} takes {in_dim}")


def _input_graphs(cfg: TrainConfig, dataset: SynthDataset) -> list[ViewGraph]:
    """Input graphs of every instance, built `_INFERENCE_CHUNK` instances per stacked pass."""
    return build_dataset(dataset, _INFERENCE_CHUNK,
                         uniform=not cfg.ablations.use_complementarity_graph)


def _encoded_chunks(model: TrainedModel, graphs: list[ViewGraph]):
    """The (B, N, hidden) node embeddings of each `_INFERENCE_CHUNK` chunk, in order."""
    for start in range(0, len(graphs), _INFERENCE_CHUNK):
        yield enc.forward(model.params, graphs[start:start + _INFERENCE_CHUNK], False)


def encode_dataset(model: TrainedModel, dataset: SynthDataset) -> list[ViewGraph]:
    """Relevance graphs for every instance, in dataset order: node embeddings
    and their `midpoint_weights`."""
    graphs = _input_graphs(model.config, dataset)
    nodes = [x for chunk in _encoded_chunks(model, graphs) for x in chunk]
    return [ViewGraph(x, midpoint_weights(x), label=g.label) for x, g in zip(nodes, graphs)]


def evaluate(model: TrainedModel, dataset: SynthDataset) -> float:
    """Fraction of instances whose nearest proxy matches their label.

    A ConfigError refuses a dataset with no instances, or one that
    `check_fits` refuses."""
    if not dataset.instances:
        raise ConfigError("cannot evaluate a dataset with no instances")
    check_fits(dataset, model.class_ids(), model.params.in_dim)
    preds = [model.predict(x) for x in _encoded_chunks(model, _input_graphs(model.config, dataset))]
    labels = [inst.label for inst in dataset.instances]
    return int((np.concatenate(preds) == labels).sum()) / len(labels)


def sweep(vary: dict[str, list], synth: SynthConfig, cfg: TrainConfig,
          log=None) -> list[dict]:
    """One row per point of the product of the `vary` value lists, the first
    key outermost: the point's values, then `train_accuracy`, `test_accuracy`,
    `sinkhorn_nonconverged` and the hold-out's mean `distinguishability`.

    Each point applies its values to `synth` and `cfg` by `build_configs`,
    generates its data, holds out `SWEEP_TEST_FRACTION` of each class, whose
    instances share the training data's class concepts, trains on the rest,
    and takes both accuracies from `evaluate`. Every point's configs are
    built before the first dataset is generated, so an invalid point is a
    ConfigError that names its values before any work starts."""
    points = [dict(zip(vary, combo)) for combo in itertools.product(*vary.values())]
    configs = []
    for values in points:
        try:
            configs.append(build_configs(values, synth, cfg))
        except ConfigError as err:
            raise ConfigError(f"{_point_text(values)}: {err}") from None
    # TR acts only with PD on: with PD off, `distance_table` and `_proxy_targets`
    # match mean-pooled nodes against `proxy_vectors` whatever TR is, so TR on and
    # off would train the same model.
    if "ablate.tr" in vary and not all(c.ablations.proxy_as_graph for _, c in configs):
        raise ConfigError("ablate.tr: varying TR compares TR on with TR off, which train "
                          "the same model under ablate.pd = false")
    rows = []
    for values, (synth_cfg, train_cfg) in zip(points, configs):
        train_ds, test_ds = split_dataset(generate(synth_cfg), SWEEP_TEST_FRACTION)
        report, model = train(train_ds, train_cfg)
        test_acc = evaluate(model, test_ds)
        dist = float(np.mean([enc.distinguishability(g.node_features)
                              for g in encode_dataset(model, test_ds)]))
        rows.append({**values, "train_accuracy": evaluate(model, train_ds),
                     "test_accuracy": test_acc,
                     "sinkhorn_nonconverged": report.sinkhorn_nonconverged,
                     "distinguishability": dist})
        if log is not None:
            log(f"{_point_text(values)}: test accuracy {test_acc:.4f} "
                f"distinguishability {dist:.4f}")
    return rows


def _point_text(values: dict[str, object]) -> str:
    return ", ".join(f"{key}={format_value(value)}" for key, value in values.items())
