"""Synthetic view-embedding datasets with known emergence structure.

Stands in for a frozen relation-agnostic image encoder: every class owns a
small set of unit "concept" vectors, clean local views are perturbed
concepts, and the global view is the normalized mean of the instance's clean
concept assignments. Because the generative model is known, emergence has an
analytic ground truth, and noise can be injected under three protocols.

Draw order: `generate` takes every random number from one
`np.random.default_rng(cfg.seed)` stream, in this order. First the concept
vectors, class by class. Then, per instance (class 0..C-1, then index): the
concept assignment of each local view; the noise pick (one uniform draw per
view, or a permutation of the views); a random anchor for the global view
when every local view is noisy; then the Gaussian noise of the global view
and of each local view in turn, where a causal donor view draws its donor
class and concept index just before its own noise. This order is part of
the dataset's definition: moving any draw changes every generated dataset,
and with it every result measured on one.

File format 3 (`save`/`load`) is the text container of `checkpoint.py`
under the format line `relviews-synth 3`: a `config` line per `SYNTH_KEYS`
entry, floats in full `repr`, so the config reads back equal; then four
tensors at 17 significant digits, so the instances read back bit for bit:
`labels` (n,), `clean` (n, k) of 0 and 1, `sources` (n, k) and `embeddings`
(n, k + 1, d), global view first. `load` refuses any other `relviews-synth N`
by name.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_container, write_container
from .errors import (ConfigError, check_keys, format_value, parse_float, parse_int,
                     parse_named)


class NoiseModel(str, enum.Enum):
    # each local view independently replaced by a random unit vector w.p. eta
    UNIFORM_WHOLE_IMAGE = "uniform_whole_image"
    # exactly round(eta*k) local views replaced by random unit vectors
    OUTSIDE_GLOBAL_FRACTION = "outside_global_fraction"
    # exactly round(eta*k) local views replaced by clean views of other classes
    CAUSAL_INTERVENTION = "causal_intervention"


def parse_noise_model(raw: str) -> NoiseModel:
    try:
        return NoiseModel(raw)
    except ValueError:
        names = ", ".join(m.value for m in NoiseModel)
        raise ConfigError(f"unknown noise model {raw!r} (one of: {names})") from None


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 4
    instances_per_class: int = 50
    views_per_instance: int = 16          # k local views; +1 global
    feature_dim: int = 32
    noise_rate: float = 0.0               # eta, fraction of noisy local views
    noise_model: NoiseModel = NoiseModel.OUTSIDE_GLOBAL_FRACTION
    concept_count_per_class: int = 4
    noise_scale: float = 0.1              # sigma of the isotropic perturbation
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError("noise_rate must lie in [0, 1]")
        for name in ("num_classes", "instances_per_class", "views_per_instance",
                     "feature_dim", "concept_count_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.concept_count_per_class > self.views_per_instance:
            raise ConfigError("concept_count_per_class must be <= views_per_instance")
        if not 0 <= self.noise_scale < np.inf:   # NaN fails it too
            raise ConfigError("noise_scale must be finite and non-negative")
        object.__setattr__(self, "noise_model", NoiseModel(self.noise_model))


@dataclass(frozen=True)
class SynthInstance:
    label: int
    global_embedding: np.ndarray          # (n,)
    local_embeddings: np.ndarray          # (k, n)
    clean_mask: np.ndarray                # (k,) bool, True = clean/transitive
    source_class_per_view: np.ndarray     # (k,) int; -1 = classless noise

    def embeddings(self) -> np.ndarray:
        """Global + locals stacked; global at row 0."""
        return np.vstack([self.global_embedding[None, :], self.local_embeddings])


@dataclass(frozen=True)
class SynthDataset:
    config: SynthConfig
    instances: list[SynthInstance] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def class_ids(self) -> list[int]:
        return sorted({inst.label for inst in self.instances})


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Each row of `x` over its Euclidean norm; an all-zero row stays as it
    is. The norm is `sqrt` of a stacked (1, n) @ (n, 1) product, the same dot
    product `np.linalg.norm` takes for one vector, so a row comes out as it
    would alone."""
    norm = np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    norm[norm == 0] = 1.0
    return x / norm


def generate(cfg: SynthConfig) -> SynthDataset:
    """Deterministic per seed; instances ordered class 0..C-1, then index.

    One pass per class draws that class's random numbers in the stream
    order the module docstring fixes; the arithmetic then runs on the whole
    class at once, and each instance gets its own copies of its arrays."""
    rng = np.random.default_rng(cfg.seed)
    n, k, m = cfg.feature_dim, cfg.views_per_instance, cfg.instances_per_class
    concepts = _unit_rows(rng.standard_normal((cfg.num_classes * cfg.concept_count_per_class, n)))
    concepts = concepts.reshape(cfg.num_classes, cfg.concept_count_per_class, n)
    noisy_count = k - round((1.0 - cfg.noise_rate) * k)
    uniform = cfg.noise_model is NoiseModel.UNIFORM_WHOLE_IMAGE
    swap = cfg.noise_model is NoiseModel.CAUSAL_INTERVENTION and cfg.num_classes > 1

    instances = []
    for c in range(cfg.num_classes):
        others = [d for d in range(cfg.num_classes) if d != c]
        concept_idx = np.empty((m, k), dtype=int)
        picks = []                          # uniform draws, or a view permutation
        anchors = np.zeros((m, n))
        noise = np.empty((m, k + 1, n))     # row 0 perturbs the global view
        source = np.full((m, k), c, dtype=int)
        for i in range(m):
            concept_idx[i] = rng.integers(0, cfg.concept_count_per_class, size=k)
            pick = rng.random(k) if uniform else rng.permutation(k)
            picks.append(pick)
            all_noisy = pick.max() < cfg.noise_rate if uniform else noisy_count == k
            if all_noisy:
                anchors[i] = rng.standard_normal(n)   # eta = 1: no clean anchor
            row = 0
            if swap:
                # a donor view's class and concept are drawn just before its noise
                for v in np.sort(pick[:noisy_count]):
                    rng.standard_normal(out=noise[i, row:v + 1])
                    source[i, v] = others[rng.integers(0, len(others))]
                    concept_idx[i, v] = rng.integers(0, cfg.concept_count_per_class)
                    row = v + 1
            rng.standard_normal(out=noise[i, row:])
        picks = np.array(picks)
        if uniform:
            noisy = picks < cfg.noise_rate
        else:
            noisy = np.zeros((m, k), dtype=bool)
            np.put_along_axis(noisy, picks[:, :noisy_count], True, axis=1)
        if not swap:
            source[noisy] = -1

        clean = ~noisy
        base = concepts[source, concept_idx]          # rows of classless noise unused
        counts = clean.sum(axis=1)
        # a noisy view adds an exact zero; an instance without clean views
        # divides by 1, and its mean is replaced by its anchor
        means = (base * clean[:, :, None]).sum(axis=1) / np.maximum(counts, 1)[:, None]
        g_dir = _unit_rows(np.where(counts[:, None] > 0, means, anchors))
        global_ = g_dir + cfg.noise_scale * noise[:, 0]
        locals_ = base + cfg.noise_scale * noise[:, 1:]
        classless = source == -1
        locals_[classless] = _unit_rows(noise[:, 1:][classless])
        instances += [SynthInstance(c, global_[i].copy(), locals_[i].copy(),
                                    clean[i].copy(), source[i].copy()) for i in range(m)]
    return SynthDataset(cfg, instances)


def split_dataset(ds: SynthDataset, test_fraction: float
                  ) -> tuple[SynthDataset, SynthDataset]:
    """Deterministic stratified split: the last round(fraction * m) instances
    of each class become the test side. Both halves share the generator's
    class concepts, unlike datasets generated under different seeds. Every
    class must hold the same number m >= 2 of instances."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must lie in (0, 1)")
    per_class: dict[int, list[SynthInstance]] = {}
    for inst in ds.instances:
        per_class.setdefault(inst.label, []).append(inst)
    first = min(per_class)
    m = len(per_class[first])
    cut = min(max(round(test_fraction * m), 1), m - 1)
    train_insts, test_insts = [], []
    for label in sorted(per_class):
        group = per_class[label]
        if len(group) < 2:
            raise ConfigError(f"class {label} has {len(group)} instance; "
                              "a stratified split needs at least 2 per class")
        if len(group) != m:
            raise ConfigError(f"class {label} has {len(group)} instances, class {first} "
                              f"has {m}; a stratified split needs classes of equal size")
        train_insts.extend(group[:-cut])
        test_insts.extend(group[-cut:])
    train_cfg = SynthConfig(**{**ds.config.__dict__, "instances_per_class": m - cut})
    test_cfg = SynthConfig(**{**ds.config.__dict__, "instances_per_class": cut})
    return SynthDataset(train_cfg, train_insts), SynthDataset(test_cfg, test_insts)


_FORMAT = "relviews-synth 3"

# The run config's `synth.*` keys without the prefix, and a data file's config lines:
# key -> (SynthConfig field, parser), in the order `save` writes them.
SYNTH_KEYS = {
    "classes": ("num_classes", parse_int),
    "instances_per_class": ("instances_per_class", parse_int),
    "views": ("views_per_instance", parse_int), "dim": ("feature_dim", parse_int),
    "eta": ("noise_rate", parse_float), "noise_model": ("noise_model", parse_noise_model),
    "concepts_per_class": ("concept_count_per_class", parse_int),
    "sigma": ("noise_scale", parse_float), "seed": ("seed", parse_int),
}


def save(ds: SynthDataset, path) -> None:
    """The dataset in the text container (see the module docstring)."""
    insts, cfg = ds.instances, ds.config
    n, k, d = len(insts), cfg.views_per_instance, cfg.feature_dim
    config = {key: format_value(getattr(cfg, attr)) for key, (attr, _) in SYNTH_KEYS.items()}
    write_container(path, _FORMAT, config, [
        ("labels", np.reshape([inst.label for inst in insts], n)),
        ("clean", np.reshape([inst.clean_mask for inst in insts], (n, k))),
        ("sources", np.reshape([inst.source_class_per_view for inst in insts], (n, k))),
        ("embeddings", np.reshape([inst.embeddings() for inst in insts], (n, k + 1, d)))])


def load(path) -> SynthDataset:
    """Read a `save` file; a file that does not hold a dataset of its config
    raises a ConfigError that names the file and the key or tensor at fault."""
    config, tensors = read_container(path, _FORMAT, "dataset", "generate the data again")
    try:
        return _dataset(config, tensors)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


def _dataset(config: dict[str, str], tensors: dict[str, np.ndarray]) -> SynthDataset:
    check_keys(config, SYNTH_KEYS, "config key")
    cfg = SynthConfig(**{attr: parse_named(key, parse, config[key])
                         for key, (attr, parse) in SYNTH_KEYS.items()})
    check_keys(tensors, ("labels", "clean", "sources", "embeddings"), "tensor")
    n, k, d = len(tensors["labels"]), cfg.views_per_instance, cfg.feature_dim
    shapes = {"labels": (n,), "clean": (n, k), "sources": (n, k), "embeddings": (n, k + 1, d)}
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise ConfigError(f"tensor {name}: shape {tensors[name].shape}, but {n} instances "
                              f"of views={k} and dim={d} take {shape}")
    if n == 0:
        raise ConfigError("dataset file has no instances")
    top = cfg.num_classes - 1
    for name, low, high in (("labels", 0, top), ("clean", 0, 1), ("sources", -1, top)):
        arr = tensors[name]
        bad = arr[(arr != np.round(arr)) | (arr < low) | (arr > high)]
        if bad.size:
            raise ConfigError(f"tensor {name}: value {bad[0]:g} is not an integer "
                              f"in {low}..{high}")
    labels, emb = tensors["labels"], tensors["embeddings"]
    clean, sources = tensors["clean"].astype(bool), tensors["sources"].astype(int)
    return SynthDataset(cfg, [SynthInstance(int(labels[i]), emb[i, 0].copy(), emb[i, 1:].copy(),
                                            clean[i].copy(), sources[i].copy())
                              for i in range(n)])
