"""Explanation-quality metrics: fidelity, sparsity, and clique similarity.

Fidelity keeps the paper-style sign: distance of the kept subgraph to the
class proxy minus distance of the full graph (larger when pruning moves the
instance away from its proxy). Sparsity is the kept fraction's complement.
mACS compares two explainers by how many k-cliques containing the global
view their explanation graphs produce per class.

A kept subgraph is scored as a node mask over its parent: the parents of
one class and one node count share a single masked `hed_values_multi`
table against that class's proxy, with one row per kept set. `fidelity`
scores each kept set and the full graph in the same table, and the
fidelity-sparsity curve scores every requested size of a graph's nested
top-k sets there. A row equals the `hed` of the induced subgraph within
rounding: numpy sums the zero terms of dropped nodes along with the kept
ones, and BLAS may round the cost head's products for a stack of graphs
differently than for one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graphs import ExplanationSubgraph, ViewGraph
from .hed import hed, hed_values_multi
from .proxies import ProxyGraph
from .transitivity import TransitivityConfig, count_k_cliques_with_global, emergence_scores


def _check_labels(parents, proxies: dict[int, ProxyGraph]) -> None:
    for g in parents:
        if g.label is None:
            raise ValueError("explanation parents must carry class labels")
        if g.label not in proxies:
            raise ValueError(f"no proxy for class {g.label}")


@dataclass(frozen=True)
class ExplanationSet:
    """One explanation per instance plus the proxies they are scored against."""
    entries: tuple[ExplanationSubgraph, ...]
    proxies: dict[int, ProxyGraph]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        _check_labels((ex.parent for ex in self.entries), self.proxies)

    def __len__(self) -> int:
        return len(self.entries)


def _check_size(size: int) -> None:
    if size < 0:
        raise ValueError(f"explanation size must be non-negative, got {size}")


def _ranked_locals(graph: ViewGraph) -> np.ndarray:
    """Local views by descending emergence; ties by node index."""
    locals_ = np.arange(1, graph.num_views)
    return locals_[np.lexsort((locals_, -emergence_scores(graph)))]


def top_k_explanation(graph: ViewGraph, top_k: int) -> ExplanationSubgraph:
    """The global view plus the top_k locals by emergence; ties by node index."""
    _check_size(top_k)
    keep = _ranked_locals(graph)[:top_k]
    return ExplanationSubgraph(graph, frozenset(keep.tolist()) | {0})


def random_explanation(graph: ViewGraph, size: int, rng: np.random.Generator
                       ) -> ExplanationSubgraph:
    _check_size(size)
    keep = rng.permutation(graph.local_indices)[:size]
    return ExplanationSubgraph(graph, frozenset(int(v) for v in keep) | {0})


def _rows_by(keys) -> dict:
    """Positions of each key in `keys`, keys in first-seen order."""
    rows: dict = {}
    for i, key in enumerate(keys):
        rows.setdefault(key, []).append(i)
    return rows


def _subset_distances(graphs: list[ViewGraph], masks: list[np.ndarray],
                      proxies: dict[int, ProxyGraph], head) -> np.ndarray:
    """(G, S) HED of each graph's S kept node subsets, masks[i] (S, n_i), to
    its class proxy; one masked table per (class, node count)."""
    if not graphs:
        raise ValueError("explanation set is empty")
    bound = head.bind(False)
    out = np.empty((len(graphs), masks[0].shape[0]))
    for (label, _), rows in _rows_by((g.label, g.num_views) for g in graphs).items():
        target = proxies[label].node_centroids
        table = hed_values_multi(ad.constant(np.stack([graphs[i].node_features for i in rows])),
                                 ad.constant(target), target.shape[0], bound,
                                 keep=np.stack([masks[i] for i in rows]))
        out[rows] = table.value[:, :, 0]
    return out


def fidelity(expls: ExplanationSet, head) -> float:
    """Mean of h(kept subgraph, proxy) - h(full graph, proxy)."""
    parents = [ex.parent for ex in expls.entries]
    masks = []
    for ex in expls.entries:
        mask = np.zeros((2, ex.parent.num_views), dtype=bool)
        mask[0, list(ex.node_subset)] = True    # the kept set
        mask[1] = True                          # the full graph
        masks.append(mask)
    dist = _subset_distances(parents, masks, expls.proxies, head)
    return float(np.mean(dist[:, 0] - dist[:, 1]))


def sparsity(expls: ExplanationSet) -> float:
    """Mean of 1 - |kept nodes| / |all nodes|."""
    if len(expls) == 0:
        raise ValueError("explanation set is empty")
    return float(np.mean([1.0 - ex.size / ex.parent.num_views for ex in expls.entries]))


def fidelity_sparsity_curve(graphs: list[ViewGraph], proxies: dict[int, ProxyGraph],
                            head, top_k_list) -> list[tuple[int, float, float]]:
    """(top_k, sparsity, fidelity) per requested explanation size, for the
    sets `top_k_explanation` gives. Each graph is ranked once; its top-k sets
    are nested prefixes of that ranking, scored in one masked table row each,
    and its full-graph distance is computed once, by `hed`, for all sizes."""
    ks = [int(k) for k in top_k_list]
    for k in ks:
        _check_size(k)
    _check_labels(graphs, proxies)
    masks = []
    for g in graphs:
        mask = np.zeros((len(ks), g.num_views), dtype=bool)
        mask[:, 0] = True
        ranked = _ranked_locals(g)
        for row, k in zip(mask, ks):
            row[ranked[:k]] = True
        masks.append(mask)
    kept = _subset_distances(graphs, masks, proxies, head)
    # one `hed` call per graph: perfbench reads its HED pair metrics off `explain.hed`
    full = np.array([hed(g, proxies[g.label].node_centroids, head).value for g in graphs])
    return [(k, float(np.mean([1.0 - mask[j].sum() / g.num_views
                               for g, mask in zip(graphs, masks)])),
             float(np.mean(kept[:, j] - full)))
            for j, k in enumerate(ks)]


def curve_csv(rows: list[tuple[int, float, float]]) -> str:
    lines = ["k,sparsity,fidelity"]
    lines += [f"{k},{s:.6f},{f:.6f}" for k, s, f in rows]
    return "\n".join(lines) + "\n"


def _thresholds(graphs: list[ViewGraph], cfg: TransitivityConfig) -> np.ndarray:
    """cfg.resolve of each graph's own edge weights, one call per graph size."""
    out = np.empty(len(graphs))
    for rows in _rows_by(g.num_views for g in graphs).values():
        out[rows] = cfg.resolve_rows(np.stack([graphs[i].edge_weights() for i in rows]))
    return out


def macs_at_k(expls_a: ExplanationSet, expls_b: ExplanationSet, k: int,
              cfg: TransitivityConfig) -> float:
    """Mean average clique similarity between two explanation sets.

    Per class, the average count of k-cliques containing the global view is
    compared via a relative difference (defined as 0 when both are 0); the
    similarity is one minus the class-mean difference. The clique threshold
    is resolved per explanation graph from its own edge weights.
    """
    if len(expls_a) != len(expls_b):
        raise ValueError("explanation sets must cover the same instances")
    labels_a = [ex.parent.label for ex in expls_a.entries]
    labels_b = [ex.parent.label for ex in expls_b.entries]
    if labels_a != labels_b:
        raise ValueError("explanation sets must cover the same instances")

    subs = [ex.as_graph() for ex in expls_a.entries + expls_b.entries]
    counts = [count_k_cliques_with_global(sub, k, gamma)
              for sub, gamma in zip(subs, _thresholds(subs, cfg))]
    n = len(expls_a)
    class_rows = _rows_by(labels_a)   # the labels of expls_b are the same
    acc_a = {c: float(np.mean([counts[i] for i in rows])) for c, rows in class_rows.items()}
    acc_b = {c: float(np.mean([counts[n + i] for i in rows])) for c, rows in class_rows.items()}
    diffs = []
    for c in sorted(acc_a):
        hi = max(acc_a[c], acc_b[c])
        diffs.append(0.0 if hi == 0 else abs(acc_a[c] - acc_b[c]) / hi)
    return 1.0 - float(np.mean(diffs))


def macs_csv(rows: list[tuple[int, float]]) -> str:
    lines = ["k,macs"]
    lines += [f"{k},{m:.6f}" for k, m in rows]
    return "\n".join(lines) + "\n"
