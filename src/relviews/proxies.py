"""Class-level concept graphs and the metric-learning objective.

Each class owns a graph of node centroids, one per slot, slot 0 reserved
for the global concept: the Hausdorff edit distance reads node embeddings
alone, so a proxy holds nothing else. Centroids follow batches of encoded
instance graphs through entropic optimal-transport assignment with an EMA
blend. `training.TrainedModel.distance_table` classifies instances by
nearest proxy under the learnable Hausdorff edit distance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


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
    """A class's concept graph as the distance reads it: its node centroids."""
    class_id: int
    node_centroids: np.ndarray   # (|V|, d); slot 0 = global concept

    def __post_init__(self):
        nodes = np.asarray(self.node_centroids, dtype=np.float64)
        object.__setattr__(self, "node_centroids", nodes)
        if nodes.ndim != 2 or nodes.size == 0:
            raise ValueError("proxy centroids must be a non-empty (|V|, d) array")
        if not np.isfinite(nodes).all():
            raise ValueError("proxy centroids must be finite")

    @property
    def num_slots(self) -> int:
        return self.node_centroids.shape[0]


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

    Both marginals are checked before the first update. After a column
    update the columns hold up to rounding, so the residual is then
    max|u * (K v) - a|, from the K v that the next row update reads. The
    plan is built once, at the end.
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

    it = 0
    kv = k @ v
    res = max(np.abs(u * kv - a).max(), np.abs(v * (k.T @ u) - b).max())
    while res > cfg.marginal_tol and it < cfg.max_iters:
        u = np.where(rows_on, a / np.where(kv > 0, kv, 1.0), 0.0)
        ku = k.T @ u
        v = np.where(cols_on, b / np.where(ku > 0, ku, 1.0), 0.0)
        it += 1
        kv = k @ v
        res = np.abs(u * kv - a).max()
    return SinkhornResult(u[:, None] * k * v[None, :], it, float(res), res <= cfg.marginal_tol)


def update_proxies(proxy: ProxyGraph, nodes: np.ndarray, cfg: SinkhornConfig,
                   momentum: float = 0.9) -> tuple[ProxyGraph, bool]:
    """One online clustering step from one class's batch of encoded graphs.

    `nodes` is the (B, n, d) stack of the batch's node embeddings, n equal to
    the proxy's slot count. All B*n embeddings are transported onto the node
    centroids (squared distances normalized by the feature dim; each
    instance's global view is forced onto the global slot), and the
    plan-weighted means are blended into the centroids. Returns the new
    proxy and whether its transport converged; deterministic given inputs.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim != 3 or nodes.shape[0] == 0:
        raise ValueError("batch must be a non-empty (B, n, d) stack")
    if not 0.0 <= momentum <= 1.0:
        raise ConfigError("momentum must lie in [0, 1]")
    if nodes.shape[1:] != proxy.node_centroids.shape:
        raise ValueError("batch graphs must match the proxy's slot count and feature dim")
    batch, slots, d = nodes.shape

    nodes = nodes.reshape(-1, d)                                 # (B*n, d)
    m = nodes.shape[0]
    local = np.ones(m, dtype=bool)
    local[::slots] = False    # each instance's global view, node 0
    # the global rows are forced onto the global slot (cost 0 there, forbidden
    # elsewhere); their mass saturates that slot's marginal exactly, so the
    # equivalent reduced problem transports only the locals onto slots 1..,
    # and only their costs are computed
    cost = np.square(nodes[local][:, None, :] - proxy.node_centroids[None, 1:, :]).sum(-1) / d
    plan = np.zeros((m, slots))
    plan[~local, 0] = 1.0 / m
    transport = sinkhorn(cost, np.full(m - batch, 1.0 / m),
                         np.full(slots - 1, 1.0 / slots), cfg)
    plan[local, 1:] = transport.plan

    mass = plan.sum(axis=0)
    new_nodes = proxy.node_centroids.copy()
    occupied = mass > 0
    new_nodes[occupied] = (plan.T @ nodes)[occupied] / mass[occupied, None]
    blended = momentum * proxy.node_centroids + (1.0 - momentum) * new_nodes
    return ProxyGraph(proxy.class_id, blended), bool(transport.converged)


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

    # one (C, B) pass per term over every class: a positive term sums the
    # class's members, a negative term its non-members; a class with no such
    # instance has all-zero weights and the log-sum log(1) = 0
    s, delta = cfg.scale, cfg.margin
    pos_loss, pos_w = _logsum_softmax(s * (h.T + delta), pos_mask.T)
    neg_loss, neg_w = _logsum_softmax(-s * (h.T - delta), ~pos_mask.T)
    n_pos_proxies, n_proxies = pos_cols.size, h.shape[1]
    # a running total over the terms, positive then negative, in class order
    loss = np.cumsum(np.concatenate([pos_loss / n_pos_proxies, neg_loss / n_proxies]))[-1]
    grad = (s * pos_w / n_pos_proxies + -s * neg_w / n_proxies).T
    return float(loss), grad


def _logsum_softmax(expo: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, log(1 + sum exp(expo)) over the masked entries, and the
    softmax-like weights exp / (1 + sum exp), 0 off the mask; shifted by
    max(0, row max) so no exp overflows."""
    expo = np.where(mask, expo, -np.inf)
    mx = np.maximum(expo.max(axis=1), 0.0)
    ex = np.exp(expo - mx[:, None])
    z = np.exp(-mx) + ex.sum(axis=1)
    return mx + np.log(z), ex / z[:, None]
