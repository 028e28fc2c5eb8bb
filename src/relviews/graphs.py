"""Complete undirected graphs over image views.

Every view graph has one fixed layout, which the whole package relies on:
- node 0 is the global view, nodes 1..N-1 are the k local views;
- edge weights are stored once per unordered pair, in `upper_pairs`
  order: (0, 1), ..., (0, N-1), (1, 2), ..., which keeps the graph
  undirected by construction and exports byte-stable;
- so the global edges (0, 1)..(0, N-1) are edge weights 0..N-2.

Each node carries an n-dimensional feature vector, each pair one weight.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_rows(i, j, n: int):
    """Canonical rows of pairs with i < j; integers or integer arrays."""
    # pairs (0,1)..(0,n-1), (1,2)..(1,n-1), ...
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@lru_cache(maxsize=128)
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, 1)`, read-only: both ends of every pair in
    canonical order. Cached, since it costs more than its uses."""
    ends = np.triu_indices(n, k=1)
    for arr in ends:
        arr.flags.writeable = False
    return ends


@dataclass(frozen=True)
class ViewGraph:
    """Complete graph over the global view (node 0) and k local views,
    edges in `upper_pairs` order. Immutable once built."""

    node_features: np.ndarray   # (N, n)
    edge_weights: np.ndarray    # (N*(N-1)/2,), canonical pair order
    label: int | None = None

    def __post_init__(self):
        nodes = np.asarray(self.node_features, dtype=np.float64)
        weights = np.asarray(self.edge_weights, dtype=np.float64)
        object.__setattr__(self, "node_features", nodes)
        object.__setattr__(self, "edge_weights", weights)
        if nodes.ndim != 2 or nodes.shape[0] < 1:
            raise ValueError("node_features must be a non-empty (N, n) array")
        if weights.shape != (num_pairs(nodes.shape[0]),):
            raise ValueError(f"edge_weights must have shape ({num_pairs(nodes.shape[0])},), "
                             f"got {weights.shape}")

    @property
    def num_views(self) -> int:
        return self.node_features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    def weight_matrix(self) -> np.ndarray:
        """Symmetric (N, N) matrix of edge weights with zero diagonal."""
        n = self.num_views
        w = np.zeros((n, n))
        i, j = upper_pairs(n)
        w[i, j] = w[j, i] = self.edge_weights
        return w


def midpoint_weights(nodes: np.ndarray) -> np.ndarray:
    """Edge weights from (N, d) node embeddings, canonical pair order: the
    norm of the midpoint of the unit-normalised endpoints (a zero embedding
    stays zero), so an edge weighs sqrt((1 + cos) / 2) of its endpoints' cosine."""
    norms = np.linalg.norm(nodes, axis=1, keepdims=True)
    unit = nodes / np.where(norms == 0, 1.0, norms)
    i, j = upper_pairs(nodes.shape[0])
    return np.sqrt(np.square((unit[i] + unit[j]) * 0.5).sum(axis=1))


def induced_subgraph(g: ViewGraph, nodes) -> ViewGraph:
    """Complete subgraph over `nodes`, reindexed in ascending original order.

    The global view must be part of the subset, so it stays node 0.
    """
    subset = np.array(sorted(set(map(int, nodes))), dtype=np.intp)
    if not subset.size:
        raise ValueError("node subset must be non-empty")
    if subset[0] < 0 or subset[-1] >= g.num_views:
        raise IndexError("node subset out of range")
    if subset[0] != 0:
        raise ValueError("node subset must contain the global view")
    a, b = upper_pairs(subset.size)   # pair order within the subset
    weights = g.edge_weights[pair_rows(subset[a], subset[b], g.num_views)]
    return ViewGraph(g.node_features[subset], weights, label=g.label)


def export_dot(g: ViewGraph) -> str:
    """Render as DOT text with weight-labelled edges; deterministic node order, LF endings."""
    lines = ["graph view_graph {", '  v0 [shape=doublecircle, label="g"];']
    lines += [f'  v{i} [shape=circle, label="{i}"];' for i in range(1, g.num_views)]
    pairs = zip(*(ends.tolist() for ends in upper_pairs(g.num_views)))
    lines += [f'  v{i} -- v{j} [label="{w:.3f}"];'
              for (i, j), w in zip(pairs, g.edge_weights)]
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExplanationSubgraph:
    """A node subset of a parent graph used as an explanation."""

    parent: ViewGraph
    node_subset: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        subset = frozenset(map(int, self.node_subset))
        object.__setattr__(self, "node_subset", subset)
        if not subset:
            raise ValueError("explanation must contain at least one node")
        if min(subset) < 0 or max(subset) >= self.parent.num_views:
            raise IndexError("explanation node out of range")
        if 0 not in subset:
            raise ValueError("explanation must contain the global view")

    def as_graph(self) -> ViewGraph:
        return induced_subgraph(self.parent, self.node_subset)
