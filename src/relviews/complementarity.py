"""Input graph construction: edges favor low-redundancy view pairs.

Built exactly once per instance before training. Local-local edges are
constant vectors with every component equal to 1/|z_i . z_j| (capped); edges
incident to the global view are all-ones so no local-to-global prior is
baked in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import ViewGraph, num_pairs, upper_pairs
from .synth import SynthDataset


@dataclass(frozen=True)
class ComplementarityConfig:
    weight_cap: float = 1e4        # bound for 1/|dot| when views are orthogonal
    normalize_embeddings: bool = True

    def __post_init__(self):
        if self.weight_cap <= 0:
            raise ConfigError("weight_cap must be positive")


def build(embeddings, global_index: int, cfg: ComplementarityConfig,
          label: int | None = None, uniform: bool = False) -> ViewGraph:
    """Complete graph over the views; the global view always lands at node 0.

    `uniform=True` replaces the 1/|dot| rule with all-ones local-local edges
    (the input-graph ablation).
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < 2:
        raise ValueError("need at least two embeddings of equal dimension")
    if not 0 <= global_index < emb.shape[0]:
        raise IndexError("global_index out of range")
    if global_index != 0:
        order = [global_index] + [i for i in range(emb.shape[0]) if i != global_index]
        emb = emb[order]
    if cfg.normalize_embeddings:
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = emb / np.where(norms == 0, 1.0, norms)

    n_nodes, dim = emb.shape
    edges = np.ones((num_pairs(n_nodes), dim))
    if not uniform:
        i, j = upper_pairs(n_nodes)
        local = i != 0  # global edges stay all-ones
        # (1, d) @ (d, 1) per pair takes the same dot product as emb[i] @ emb[j]
        dot = np.abs(np.matmul(emb[i[local], None, :], emb[j[local], :, None])[:, 0, 0])
        inv = np.divide(1.0, dot, out=np.full_like(dot, np.inf), where=dot != 0)
        edges[local] = np.minimum(inv, cfg.weight_cap)[:, None]
    return ViewGraph(emb, edges, global_index=0, label=label)


def build_dataset(ds: SynthDataset, cfg: ComplementarityConfig,
                  uniform: bool = False) -> list[ViewGraph]:
    """One graph per instance, in dataset order."""
    return [build(inst.embeddings(), 0, cfg, label=inst.label, uniform=uniform)
            for inst in ds.instances]
