"""Input graph construction: edges favor low-redundancy view pairs.

`build_dataset` builds one complete graph per instance of a dataset before
training, in stacked chunks of instances: each chunk is one pass of
whole-array operations, and an instance's graph does not depend on the
chunk it falls in. The global view, row 0 of `SynthInstance.embeddings()`,
becomes node 0. Views are scaled to unit norm. A local-local edge weighs
1/|z_i . z_j|, capped at the fixed `WEIGHT_CAP` for views that are (nearly)
orthogonal; edges incident to the global view weigh 1, so no
local-to-global prior is baked in.
"""
from __future__ import annotations

import numpy as np

from .graphs import ViewGraph, num_pairs, upper_pairs
from .synth import SynthDataset

WEIGHT_CAP = 1e4        # bound for 1/|dot| when views are orthogonal


def _build_stack(emb: np.ndarray, labels: list, uniform: bool) -> list[ViewGraph]:
    """Graphs of a (B, N, d) stack of instances whose global view is row 0."""
    # a norm along the contiguous last axis reduces each row as a 2-D call does
    norms = np.linalg.norm(emb, axis=2, keepdims=True)
    emb = emb / np.where(norms == 0, 1.0, norms)

    b, n_nodes, _ = emb.shape
    weight = np.ones((b, num_pairs(n_nodes)))
    if not uniform:
        i, j = upper_pairs(n_nodes)
        local = i != 0  # global edges stay at 1
        # (1, d) @ (d, 1) per pair takes the same dot product as emb[i] @ emb[j]
        dot = np.abs(np.matmul(emb[:, i[local], None, :], emb[:, j[local], :, None])[..., 0, 0])
        inv = np.divide(1.0, dot, out=np.full_like(dot, np.inf), where=dot != 0)
        weight[:, local] = np.minimum(inv, WEIGHT_CAP)
    # each graph owns its arrays: graphs kept as views of chunk-sized
    # blocks raised the peak RSS of a training run by about 1 MB
    return [ViewGraph(emb[k].copy(), weight[k].copy(), label=label)
            for k, label in enumerate(labels)]


def build_dataset(ds: SynthDataset, chunk_size: int,
                  uniform: bool = False) -> list[ViewGraph]:
    """One graph per instance, in dataset order, built `chunk_size` instances
    per stacked pass so the temporaries stay bounded.

    `uniform=True` gives local-local edges weight 1 instead of 1/|dot|
    (the input-graph ablation)."""
    graphs: list[ViewGraph] = []
    for start in range(0, len(ds.instances), chunk_size):
        chunk = ds.instances[start:start + chunk_size]
        emb = np.stack([inst.embeddings() for inst in chunk], dtype=np.float64)
        graphs += _build_stack(emb, [inst.label for inst in chunk], uniform)
    return graphs
