"""Class-level concept graphs and the metric-learning objective.

Each class owns a graph of node centroids (slot 0 reserved for the global
concept) and edge centroids keyed by slot pairs. Centroids follow batches of
encoded instance graphs through entropic optimal-transport assignment with
an EMA blend. `training.TrainedModel.distance_table` classifies instances by
nearest proxy under the learnable Hausdorff edit distance.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import ViewGraph, num_pairs, pair_rows, upper_pairs


@dataclass(frozen=True)
class SinkhornConfig:
    entropic_regularizer: float = 0.05
    max_iters: int = 1000
    marginal_tol: float = 1e-6

    def __post_init__(self):
        if self.entropic_regularizer <= 0:
            raise ConfigError("entropic_regularizer must be positive")
        if self.marginal_tol <= 0:
            raise ConfigError("marginal_tol must be positive")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")


@dataclass(frozen=True)
class ProxyAnchorConfig:
    margin: float = 0.1     # delta
    scale: float = 32.0     # s

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigError("scale must be positive")


@dataclass(frozen=True)
class ProxyGraph:
    class_id: int
    node_centroids: np.ndarray   # (|V|, d); slot 0 = global concept
    edge_centroids: np.ndarray   # (|V|(|V|-1)/2, d), canonical pair order

    def __post_init__(self):
        nodes = np.asarray(self.node_centroids, dtype=np.float64)
        edges = np.asarray(self.edge_centroids, dtype=np.float64)
        object.__setattr__(self, "node_centroids", nodes)
        object.__setattr__(self, "edge_centroids", edges)
        if edges.shape != (num_pairs(nodes.shape[0]), nodes.shape[1]):
            raise ValueError("edge centroid count must be |V|(|V|-1)/2")
        if not (np.isfinite(nodes).all() and np.isfinite(edges).all()):
            raise ValueError("proxy centroids must be finite")

    @property
    def num_slots(self) -> int:
        return self.node_centroids.shape[0]

    def as_view_graph(self) -> ViewGraph:
        return ViewGraph(self.node_centroids.copy(), self.edge_centroids.copy(),
                         label=self.class_id)


@dataclass(frozen=True)
class SinkhornResult:
    plan: np.ndarray
    iterations: int
    residual: float
    converged: bool


def sinkhorn(cost: np.ndarray, row_marginals, col_marginals,
             cfg: SinkhornConfig) -> SinkhornResult:
    """Entropic transport plan by alternating row/column scalings.

    The per-row minimum of the cost is subtracted before exponentiation;
    row scalings absorb the offset exactly, it only guards the exp from
    underflow. Rows or columns with zero marginal are excluded from scaling.
    """
    cost = np.asarray(cost, dtype=np.float64)
    a = np.asarray(row_marginals, dtype=np.float64)
    b = np.asarray(col_marginals, dtype=np.float64)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("marginals must be non-negative")
    if abs(a.sum() - b.sum()) > 1e-9 * max(1.0, a.sum()):
        raise ValueError("marginals must carry equal total mass")

    eps = cfg.entropic_regularizer
    k = np.exp(-(cost - cost.min(axis=1, keepdims=True)) / eps)
    rows_on = a > 0
    cols_on = b > 0
    u = np.where(rows_on, 1.0, 0.0)
    v = np.where(cols_on, 1.0, 0.0)

    def plan_residual(u, v):
        plan = u[:, None] * k * v[None, :]
        return plan, max(np.abs(plan.sum(axis=1) - a).max(),
                         np.abs(plan.sum(axis=0) - b).max())

    it = 0
    plan, res = plan_residual(u, v)
    while res > cfg.marginal_tol and it < cfg.max_iters:
        kv = k @ v
        u = np.where(rows_on, a / np.where(kv > 0, kv, 1.0), 0.0)
        ku = k.T @ u
        v = np.where(cols_on, b / np.where(ku > 0, ku, 1.0), 0.0)
        it += 1
        plan, res = plan_residual(u, v)
    converged = res <= cfg.marginal_tol
    if not converged:
        warnings.warn(f"sinkhorn did not converge: residual {res:.3e} "
                      f"after {it} iterations", RuntimeWarning)
    return SinkhornResult(plan, it, float(res), converged)


def init_proxy(class_id: int, graph: ViewGraph) -> ProxyGraph:
    """Seed a proxy from one instance graph (slots mirror its nodes)."""
    return ProxyGraph(class_id, graph.node_features.copy(), graph.edge_features.copy())


def update_proxies(proxy: ProxyGraph, batch: list[ViewGraph], cfg: SinkhornConfig,
                   momentum: float = 0.9) -> ProxyGraph:
    """One online clustering step from a batch of same-class relevance graphs.

    Node step: transport all batch node embeddings onto the node centroids
    (squared distances normalized by the feature dim; each instance's global
    view is forced onto the global slot), then blend the plan-weighted means
    into the centroids. Edge step: each batch edge lands on the edge centroid
    keyed by its endpoints' argmax slots; per-key means are blended the same
    way. Deterministic given inputs.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    if any(g.label != batch[0].label for g in batch):
        raise ValueError("batch must contain a single class")
    if not 0.0 <= momentum <= 1.0:
        raise ConfigError("momentum must lie in [0, 1]")
    slots = proxy.num_slots
    d = proxy.node_centroids.shape[1]
    n = batch[0].num_views
    if any(g.num_views != n or g.feature_dim != d for g in batch):
        raise ValueError("batch graphs must share node count and feature dim")

    if n != slots:
        raise ValueError("proxy slot count must match the graph node count")

    nodes = np.vstack([g.node_features for g in batch])          # (B*n, d)
    m = nodes.shape[0]
    cost = np.square(nodes[:, None, :] - proxy.node_centroids[None, :, :]).sum(-1) / d
    local = np.ones(m, dtype=bool)
    local[::n] = False    # each instance's global view, node 0
    # the global rows are forced onto the global slot (cost 0 there, forbidden
    # elsewhere); their mass saturates that slot's marginal exactly, so the
    # equivalent reduced problem transports only the locals onto slots 1..
    plan = np.zeros((m, slots))
    plan[~local, 0] = 1.0 / m
    with warnings.catch_warnings():
        # an EMA update only needs the achieved plan; leftover marginal
        # residual at the default tolerance is immaterial here
        warnings.simplefilter("ignore", RuntimeWarning)
        reduced = sinkhorn(cost[local, 1:], np.full(m - len(batch), 1.0 / m),
                           np.full(slots - 1, 1.0 / slots), cfg).plan
    plan[local, 1:] = reduced

    mass = plan.sum(axis=0)
    new_nodes = proxy.node_centroids.copy()
    occupied = mass > 0
    new_nodes[occupied] = (plan.T @ nodes)[occupied] / mass[occupied, None]
    node_out = momentum * proxy.node_centroids + (1.0 - momentum) * new_nodes

    # edge step: keys induced by the node plan's argmax slots. The batch's
    # edge rows are stacked in graph order, and one flat bincount adds each
    # key's components from 0.0 in row order, as a per-graph loop would.
    ends = plan.argmax(axis=1).reshape(len(batch), n)[:, upper_pairs(n)]   # (B, 2, M)
    si, sj = ends[:, 0].ravel(), ends[:, 1].ravel()
    valid = si != sj
    lo = np.minimum(si, sj)[valid]
    hi = np.maximum(si, sj)[valid]
    keys = pair_rows(lo, hi, slots)
    rows = np.vstack([g.edge_features for g in batch])[valid]
    sums = np.bincount((keys[:, None] * d + np.arange(d)).ravel(), weights=rows.ravel(),
                       minlength=num_pairs(slots) * d).reshape(-1, d)
    counts = np.bincount(keys, minlength=num_pairs(slots))
    new_edges = proxy.edge_centroids.copy()
    hit = counts > 0
    new_edges[hit] = sums[hit] / counts[hit, None]
    edge_out = momentum * proxy.edge_centroids + (1.0 - momentum) * new_edges
    return ProxyGraph(proxy.class_id, node_out, edge_out)


def proxy_anchor_loss(distances: np.ndarray, labels, class_ids,
                      cfg: ProxyAnchorConfig) -> tuple[float, np.ndarray]:
    """Anchor loss over a (batch x class) distance table, similarity = -distance.

    Returns the loss and d(loss)/d(distance) for every table entry. Positive
    proxies pull their instances' distances down; every proxy pushes its
    non-members away, both through a numerically stabilized log-sum form.
    """
    h = np.asarray(distances, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    class_ids = list(class_ids)
    if h.ndim != 2 or h.shape != (labels.shape[0], len(class_ids)):
        raise ValueError("distance table must be (batch, classes)")
    col_of = {c: idx for idx, c in enumerate(class_ids)}
    if any(int(lbl) not in col_of for lbl in labels):
        raise ValueError("every batch label needs a column in the distance table")

    pos_mask = np.zeros_like(h, dtype=bool)
    for r, lbl in enumerate(labels):
        pos_mask[r, col_of[int(lbl)]] = True
    pos_cols = np.flatnonzero(pos_mask.any(axis=0))
    if pos_cols.size == 0:
        raise ValueError("batch contains no positive pairs")

    s, delta = cfg.scale, cfg.margin
    grad = np.zeros_like(h)
    loss = 0.0

    def logsum_softmax(expo: np.ndarray):
        """log(1 + sum exp(expo)) and softmax-like weights exp/(1+sum exp)."""
        mx = max(0.0, float(expo.max()))
        z = np.exp(-mx) + np.exp(expo - mx).sum()
        return mx + np.log(z), np.exp(expo - mx) / z

    n_pos_proxies = pos_cols.size
    for c in pos_cols:
        rows = np.flatnonzero(pos_mask[:, c])
        expo = s * (h[rows, c] + delta)      # -s*(sim - delta), sim = -h
        lval, w = logsum_softmax(expo)
        loss += lval / n_pos_proxies
        grad[rows, c] += s * w / n_pos_proxies

    n_proxies = h.shape[1]
    for c in range(n_proxies):
        rows = np.flatnonzero(~pos_mask[:, c])
        if rows.size == 0:
            continue
        expo = -s * (h[rows, c] - delta)     # s*(sim + delta)
        lval, w = logsum_softmax(expo)
        loss += lval / n_proxies
        grad[rows, c] += -s * w / n_proxies

    return float(loss), grad
