"""Explanation-quality metrics: fidelity, sparsity, and clique similarity.

Fidelity keeps the paper-style sign: distance of the kept subgraph to the
class proxy minus distance of the full graph (larger when pruning moves the
instance away from its proxy). Sparsity is the kept fraction's complement.
mACS compares two explainers by how many k-cliques containing the global
view their explanation graphs produce per class.

Kept subgraphs are scored in tables: the node sets of one class and one
size share a single `hed_values_multi` call against that class's proxy,
which gives each row the value a single `hed` call would.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graphs import ExplanationSubgraph, ViewGraph
from .hed import hed, hed_values_multi
from .proxies import ProxyGraph
from .transitivity import TransitivityConfig, count_k_cliques_with_global, emergence_scores


@dataclass(frozen=True)
class ExplanationSet:
    """One explanation per instance plus the proxies they are scored against."""
    entries: tuple[ExplanationSubgraph, ...]
    proxies: dict[int, ProxyGraph]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for ex in self.entries:
            if ex.parent.label is None:
                raise ValueError("explanation parents must carry class labels")
            if ex.parent.label not in self.proxies:
                raise ValueError(f"no proxy for class {ex.parent.label}")

    def __len__(self) -> int:
        return len(self.entries)


def top_k_explanation(graph: ViewGraph, top_k: int) -> ExplanationSubgraph:
    """The global view plus the top_k locals by emergence; ties by node index."""
    locals_ = np.array(graph.local_indices, dtype=np.intp)
    ranked = locals_[np.lexsort((locals_, -emergence_scores(graph)))]
    keep = ranked[:min(top_k, len(ranked))]
    return ExplanationSubgraph(graph, frozenset(keep.tolist()) | {graph.global_index})


def random_explanation(graph: ViewGraph, size: int, rng: np.random.Generator
                       ) -> ExplanationSubgraph:
    locals_ = graph.local_indices
    keep = rng.permutation(locals_)[:min(size, len(locals_))]
    return ExplanationSubgraph(graph, frozenset(int(v) for v in keep) | {graph.global_index})


def _rows_by(keys) -> dict:
    """Positions of each key in `keys`, keys in first-seen order."""
    rows: dict = {}
    for i, key in enumerate(keys):
        rows.setdefault(key, []).append(i)
    return rows


def _proxy_distances(node_sets: list[np.ndarray], labels: list[int],
                     proxies: dict[int, ProxyGraph], head) -> np.ndarray:
    """HED of each node set to its class proxy, one table per (class, size)."""
    groups = _rows_by((label, nodes.shape[0]) for nodes, label in zip(node_sets, labels))
    bound = head.bind(False)
    out = np.empty(len(node_sets))
    for (label, _), rows in groups.items():
        target = proxies[label].node_centroids
        table = hed_values_multi(ad.constant(np.stack([node_sets[i] for i in rows])),
                                 ad.constant(target), target.shape[0], bound)
        out[rows] = table.value[:, 0]
    return out


def _kept_distances(expls: ExplanationSet, head) -> np.ndarray:
    """h(kept subgraph, proxy) per entry."""
    if len(expls) == 0:
        raise ValueError("explanation set is empty")
    # kept nodes in the ascending order `as_graph` gives them
    return _proxy_distances([ex.parent.node_features[sorted(ex.node_subset)]
                             for ex in expls.entries],
                            [ex.parent.label for ex in expls.entries], expls.proxies, head)


def fidelity(expls: ExplanationSet, head) -> float:
    """Mean of h(kept subgraph, proxy) - h(full graph, proxy)."""
    kept = _kept_distances(expls, head)
    full = _proxy_distances([ex.parent.node_features for ex in expls.entries],
                            [ex.parent.label for ex in expls.entries], expls.proxies, head)
    return float(np.mean(kept - full))


def sparsity(expls: ExplanationSet) -> float:
    """Mean of 1 - |kept nodes| / |all nodes|."""
    if len(expls) == 0:
        raise ValueError("explanation set is empty")
    return float(np.mean([1.0 - ex.size / ex.parent.num_views for ex in expls.entries]))


def fidelity_sparsity_curve(graphs: list[ViewGraph], proxies: dict[int, ProxyGraph],
                            head, top_k_list) -> list[tuple[int, float, float]]:
    """(top_k, sparsity, fidelity) per requested explanation size; each full
    graph's distance is computed once, by `hed`, for all sizes."""
    sets = [(int(k), ExplanationSet(tuple(top_k_explanation(g, k) for g in graphs),
                                    proxies))
            for k in top_k_list]
    # equal to a table row; perfbench reads its HED pair metrics off `explain.hed`
    full = np.array([hed(g, proxies[g.label].node_centroids, head).value for g in graphs])
    return [(k, sparsity(expls), float(np.mean(_kept_distances(expls, head) - full)))
            for k, expls in sets]


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
