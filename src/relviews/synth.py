"""Synthetic view-embedding datasets with known emergence structure.

Stands in for a frozen relation-agnostic image encoder: every class owns a
small set of unit "concept" vectors, clean local views are perturbed
concepts, and the global view is the normalized mean of the instance's clean
concept assignments. Because the generative model is known, emergence has an
analytic ground truth, and noise can be injected under three protocols.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


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


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v if norm == 0 else v / norm


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    return _unit(rng.standard_normal(n))


def generate(cfg: SynthConfig) -> SynthDataset:
    """Deterministic per seed; instances ordered class 0..C-1, then index."""
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.feature_dim, cfg.views_per_instance
    concepts = [
        np.stack([_random_unit(rng, n) for _ in range(cfg.concept_count_per_class)])
        for _ in range(cfg.num_classes)
    ]
    noisy_count = k - round((1.0 - cfg.noise_rate) * k)

    instances = []
    for c in range(cfg.num_classes):
        for _ in range(cfg.instances_per_class):
            assign = rng.integers(0, cfg.concept_count_per_class, size=k)
            if cfg.noise_model is NoiseModel.UNIFORM_WHOLE_IMAGE:
                noisy = rng.random(k) < cfg.noise_rate
            else:
                noisy = np.zeros(k, dtype=bool)
                noisy[rng.permutation(k)[:noisy_count]] = True
            clean = ~noisy

            if clean.any():
                g_dir = _unit(concepts[c][assign[clean]].mean(axis=0))
            else:
                g_dir = _random_unit(rng, n)   # eta = 1: no clean anchor
            z_g = g_dir + cfg.noise_scale * rng.standard_normal(n)

            locals_ = np.empty((k, n))
            source = np.full(k, c, dtype=int)
            for v in range(k):
                if clean[v]:
                    locals_[v] = concepts[c][assign[v]] + cfg.noise_scale * rng.standard_normal(n)
                elif cfg.noise_model is NoiseModel.CAUSAL_INTERVENTION and cfg.num_classes > 1:
                    others = [d for d in range(cfg.num_classes) if d != c]
                    donor = others[rng.integers(0, len(others))]
                    didx = rng.integers(0, cfg.concept_count_per_class)
                    locals_[v] = concepts[donor][didx] + cfg.noise_scale * rng.standard_normal(n)
                    source[v] = donor
                else:
                    locals_[v] = _random_unit(rng, n)
                    source[v] = -1
            instances.append(SynthInstance(c, z_g, locals_, clean, source))
    return SynthDataset(cfg, instances)


def ground_truth_emergence(inst: SynthInstance, subset) -> float:
    """Cosine of the global view with the subset mean, mapped to [0, 1].

    A monotone surrogate from the known generative model, not a calibrated
    mutual-information value.
    """
    idx = sorted(set(int(v) for v in subset))
    if not idx:
        raise ValueError("subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= inst.local_embeddings.shape[0]:
        raise IndexError("subset index out of range")
    m = inst.local_embeddings[idx].mean(axis=0)
    denom = np.linalg.norm(m) * np.linalg.norm(inst.global_embedding)
    cos = 0.0 if denom == 0 else float(inst.global_embedding @ m / denom)
    return 0.5 * (1.0 + cos)


def split_dataset(ds: SynthDataset, test_fraction: float
                  ) -> tuple[SynthDataset, SynthDataset]:
    """Deterministic stratified split: the last round(fraction * m) instances
    of each class become the test side. Both halves share the generator's
    class concepts, unlike datasets generated under different seeds."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must lie in (0, 1)")
    per_class: dict[int, list[SynthInstance]] = {}
    for inst in ds.instances:
        per_class.setdefault(inst.label, []).append(inst)
    train_insts, test_insts = [], []
    n_test = None
    for label in sorted(per_class):
        group = per_class[label]
        cut = round(test_fraction * len(group))
        cut = min(max(cut, 1), len(group) - 1)
        train_insts.extend(group[:-cut])
        test_insts.extend(group[-cut:])
        n_test = cut
    train_cfg = SynthConfig(**{**ds.config.__dict__,
                               "instances_per_class": ds.config.instances_per_class - n_test})
    test_cfg = SynthConfig(**{**ds.config.__dict__, "instances_per_class": n_test})
    return SynthDataset(train_cfg, train_insts), SynthDataset(test_cfg, test_insts)


_HEADER = "relviews-synth 1"

# Header key -> (SynthConfig field, parser, formatter), in the order `save`
# writes them.
_HEADER_KEYS = {
    "classes": ("num_classes", int, str), "per_class": ("instances_per_class", int, str),
    "views": ("views_per_instance", int, str), "dim": ("feature_dim", int, str),
    "eta": ("noise_rate", float, "{:.9g}".format),
    "model": ("noise_model", parse_noise_model, lambda model: model.value),
    "concepts": ("concept_count_per_class", int, str),
    "sigma": ("noise_scale", float, "{:.9g}".format), "seed": ("seed", int, str),
}


def save(ds: SynthDataset, path) -> None:
    """Line-oriented text format, 9 significant digits, LF endings."""
    cfg = ds.config
    lines = [" ".join([_HEADER] + [f"{key}={fmt(getattr(cfg, attr))}"
                                   for key, (attr, _, fmt) in _HEADER_KEYS.items()])]
    for inst in ds.instances:
        bits = "".join("1" if b else "0" for b in inst.clean_mask)
        src = " ".join(str(int(s)) for s in inst.source_class_per_view)
        emb = " ".join(f"{x:.9g}" for x in inst.embeddings().ravel())
        lines.append(f"{inst.label} {bits} {src} {emb}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(line: str) -> SynthConfig:
    fields = {}
    for tok in line.split()[2:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ConfigError(f"header token {tok!r} is not key=value")
        fields[key] = value
    for key in _HEADER_KEYS:
        if key not in fields:
            raise ConfigError(f"missing header key {key!r}")
    return SynthConfig(**{attr: parse(fields[key])
                          for key, (attr, parse, _) in _HEADER_KEYS.items()})


def _parse_record(line: str, k: int, n: int) -> SynthInstance:
    toks = line.split()
    expect = 2 + k + (k + 1) * n
    if len(toks) != expect:
        raise ConfigError(f"malformed record: expected {expect} tokens, got {len(toks)}")
    label = int(toks[0])
    if set(toks[1]) - {"0", "1"}:
        raise ConfigError(f"clean mask {toks[1]!r} holds a character other than 0 or 1")
    mask = np.array([ch == "1" for ch in toks[1]], dtype=bool)
    if mask.shape[0] != k:
        raise ConfigError("clean mask length does not match view count")
    src = np.array([int(t) for t in toks[2:2 + k]], dtype=int)
    emb = np.array([float(t) for t in toks[2 + k:]]).reshape(k + 1, n)
    return SynthInstance(label, emb[0], emb[1:], mask, src)


def load(path) -> SynthDataset:
    """Read a `save` file; every malformed line raises a ConfigError that
    names the file and the line."""
    with open(path) as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or not lines[0][1].startswith(_HEADER):
        raise ConfigError(f"not a dataset file: {path}")
    if len(lines) == 1:
        raise ConfigError(f"{path}: dataset file has no records")
    no, line = lines[0]
    try:
        cfg = _parse_header(line)
        k, n = cfg.views_per_instance, cfg.feature_dim
        instances = []
        for no, line in lines[1:]:
            instances.append(_parse_record(line, k, n))
    except ValueError as err:
        raise ConfigError(f"{path}: line {no}: {err}") from None
    return SynthDataset(cfg, instances)
