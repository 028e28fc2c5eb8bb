"""Learnable Hausdorff edit distance between node-attributed graphs.

Per node of each graph, the cheaper of deletion (learned cost) and best
substitution at half the embedding distance; the two directional sums are
scaled by 1/(2|V|) of the first graph. Halving the substitution cost per
side means a matched pair contributes its full distance once across both
sums, which is what makes the value a lower bound on the exact edit
distance with full substitution costs, the same deletion/insertion costs
and the same 1/(2|V|) normalization.

Gradients are subgradients through the recorded argmin structure: only the
winning branch receives gradient, and a distance within rounding of zero,
at most 64 eps (|u| + |v|), uses subgradient 0 (`autodiff.pairwise_l2`).
Ties between deletion and substitution resolve to substitution.

`hed_values_multi` reads only two minima from its (B, m, C*slots) L2
table: per node and class over slots, and per slot over nodes. Tables of at
least `SCREEN_MIN_ENTRIES` entries are therefore screened first. Squared
distances in Gram form, |u|^2 + |v|^2 - 2 u.v, cost one matrix product;
an entry stays a candidate when it lies within a rounding bound of its row
or column minimum, and only candidates get the exact explicit-difference
distance, the rest +inf. The bound, (8d + 32) eps (max|u|^2 + max|v|^2)
plus the smallest normal number for underflow, covers the Gram form's
error, the explicit form's own error and two values that round to the
same square root, so every entry that ties the exact minimum is a
candidate: the minima, their argmins and the gradients equal the full
table's bit for bit. NaN compares as a candidate, and an input
whose squared norms overflow keeps every entry. Smaller tables lose more
to the screen's fixed cost than they save and compute the full table.

The same table scores node subsets. A kept node's term reads only its own
row minimum over a class's slots, and a slot's term reads only its column
minimum over the kept nodes, so with a boolean `keep` mask (B, S, m)
`hed_values_multi` returns the (B, S, C) distances of S subsets of each
instance from one (B, m, C*slots) table. Masked tables are never
screened: the screen keeps only entries that can be a row minimum or a
column minimum over all nodes, and a subset's column minimum can fall on
an entry it drops once the node holding the all-node minimum is dropped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError
from .graphs import ViewGraph

# Tables with at least this many entries (B * m * C * slots) are screened by
# `_candidates`. Measured with d = 32 on one core, BLAS at one thread, the
# screened/full time ratio was 1.10 at 884 entries, 1.03 at 1156, 0.91 at 1734
# and 0.76-0.80 at 2312: the constant sits just above the break-even.
SCREEN_MIN_ENTRIES = 1536
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


# ---------------------------------------------------------------- cost heads

class CostHead(ad.FlatParams):
    """One-hidden-layer MLP to a scalar, softplus output so costs are >= 0.

    A flat parameter store (`autodiff.FlatParams`) of W1, b1, w2 and b2."""

    def __init__(self, in_dim: int, hidden: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)
        super().__init__([ad.fan_in_uniform(rng, (in_dim, hidden)), np.zeros(hidden),
                          ad.fan_in_uniform(rng, (hidden, 1)), np.zeros(1)])
        self.W1, self.b1, self.w2, self.b2 = self.tensors

    def _named(self, arrays: list[np.ndarray]) -> list[tuple[str, np.ndarray]]:
        return list(zip(("cost.W1", "cost.b1", "cost.w2", "cost.b2"), arrays, strict=True))

    def bind(self, want_grad: bool = False) -> "_BoundMlpHead":
        return _BoundMlpHead(self, want_grad)


class _BoundMlpHead:
    def __init__(self, head: CostHead, want_grad: bool):
        self.head = head
        self.leaves = head.leaves(want_grad)

    def costs(self, x: Var) -> Var:
        """One cost per row of x, shaped like x without its last axis."""
        W1, b1, w2, b2 = self.leaves
        h = ad.tanh(ad.matmul(x, W1) + b1)
        out = ad.softplus(ad.matmul(h, w2) + b2)
        return ad.reshape(out, x.shape[:-1])

    def accumulate(self) -> None:
        self.head.accumulate(self.leaves)


# ----------------------------------------------------------------- distance

@dataclass(frozen=True)
class HedResult:
    value: float
    forward_assignment: np.ndarray    # per gs node: gp index or -1 for deletion
    backward_assignment: np.ndarray   # per gp node: gs index or -1 for insertion


def _nodes(g) -> np.ndarray:
    x = g.node_features if isinstance(g, ViewGraph) else np.asarray(g, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("graph must contain at least one node")
    return x


def _candidates(u: np.ndarray, v: np.ndarray, slots: int) -> np.ndarray:
    """(B, m, C*slots) mask of the L2 table entries that can be a row minimum
    over a class's slots or a column minimum over nodes; see the module notes."""
    b, m, d = u.shape
    rows = u.reshape(b * m, d)
    with np.errstate(over="ignore", invalid="ignore"):
        nu = np.square(rows).sum(axis=1)
        nv = np.square(v).sum(axis=1)
        scale = nu.max() + nv.max()
        tol = (8 * d + 32) * _EPS * scale + _TINY if 4.0 * scale < np.inf else np.inf
        sq = (nu[:, None] + nv - 2.0 * (rows @ v.T)).reshape(b, m, -1, slots)
        # a short last axis reduces slowly, so the slot minimum reads a slot-major copy
        slot_min = np.ascontiguousarray(np.moveaxis(sq, 3, 0)).min(axis=0)
        far = (sq > slot_min[..., None] + tol) & (sq > sq.min(axis=1, keepdims=True) + tol)
    return ~far.reshape(b, m, -1)                                 # NaN is never far


def hed_values_multi(u_var: Var, stacked_targets: Var, slots: int, bound_head,
                     keep: np.ndarray | None = None) -> Var:
    """Distances of a batch of node sets to several same-size targets in one chain.

    `u_var` is (B, m, d) and `stacked_targets` (C * slots, d); returns the
    (B, C) Var of HED values. The targets' insertion costs are computed once
    for the whole batch. Used by the trainer and `evaluate` to score
    instances against every class proxy.

    With a boolean `keep` (B, S, m), row s of instance b scores the node
    subset keep[b, s] instead, and the result is (B, S, C): the HED of the
    kept nodes alone, up to the order of summation. The explanation metrics
    score every subset of an instance this way from one table.
    """
    b, m, d = u_var.shape
    rows = stacked_targets.shape[0]
    if stacked_targets.shape[1] != d:
        raise ConfigError(f"node dims differ: {d} vs {stacked_targets.shape[1]}")
    if m < 1 or rows < 1:
        raise ValueError("graph must contain at least one node")
    if slots < 1 or rows % slots:
        raise ValueError(f"{rows} target rows do not split into targets of {slots} slots")
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if (keep.ndim != 3 or keep.shape[0] != b or keep.shape[2] != m
                or not keep.any(axis=2).all()):
            raise ValueError(f"keep must be ({b}, S, {m}) with a kept node in every row")
    count = rows // slots
    where = (_candidates(u_var.value, stacked_targets.value, slots)
             if keep is None and b * m * rows >= SCREEN_MIN_ENTRIES else None)
    dist = ad.pairwise_l2(u_var, stacked_targets, where)          # (B, m, C*slots)
    by_class = ad.reshape(dist, (b, m, count, slots))
    sub_u = ad.reduce_min(by_class, axis=3) * 0.5                 # (B, m, C)
    del_u = ad.reshape(bound_head.costs(u_var), (b, m, 1))
    ins_v = ad.reshape(bound_head.costs(stacked_targets), (count, slots))
    take_del = del_u.value < sub_u.value                          # (B, m, C)
    cost_u = ad.where_select(take_del, del_u, sub_u)
    if keep is None:
        sub_v = ad.reduce_min(by_class, axis=1) * 0.5             # (B, C, slots)
        sum_u = ad.vsum(cost_u, axis=1)                           # (B, C)
        scale = 1.0 / (2.0 * m)
    else:
        # a node's term does not depend on the subset; the kept ones are
        # summed along a contiguous last axis, as `hed` sums them
        by_node = ad.reshape(ad.transpose(cost_u, (0, 2, 1)), (b, 1, count, m))
        sum_u = ad.vsum(ad.where_select(keep[:, :, None, :], by_node, ad.constant(0.0)),
                        axis=3)                                   # (B, S, C)
        # a slot's term reads its minimum over the kept nodes only
        kept = ad.where_select(keep[:, :, :, None, None],
                               ad.reshape(by_class, (b, 1, m, count, slots)),
                               ad.constant(np.inf))               # (B, S, m, C, slots)
        sub_v = ad.reduce_min(kept, axis=2) * 0.5                 # (B, S, C, slots)
        scale = (1.0 / (2.0 * keep.sum(axis=2)))[:, :, None]
    take_ins = ins_v.value < sub_v.value                          # (B, [S,] C, slots)
    cost_v = ad.where_select(take_ins, ins_v, sub_v)
    return (sum_u + ad.vsum(cost_v, axis=-1)) * scale


def hed(gs, gp, head) -> HedResult:
    """Hausdorff edit distance with learned deletion/insertion costs."""
    u = _nodes(gs)
    v = _nodes(gp)
    if u.shape[1] != v.shape[1]:
        raise ConfigError(f"node dims differ: {u.shape[1]} vs {v.shape[1]}")
    head = head.bind(False)
    u_var, v_var = ad.constant(u), ad.constant(v)
    dist = ad.pairwise_l2(u_var, v_var)               # (m, p)
    sub_u = ad.reduce_min(dist, axis=1) * 0.5
    sub_v = ad.reduce_min(dist, axis=0) * 0.5
    del_u = head.costs(u_var)
    ins_v = head.costs(v_var)
    take_del = del_u.value < sub_u.value              # ties keep substitution
    take_ins = ins_v.value < sub_v.value
    cost_u = ad.where_select(take_del, del_u, sub_u)
    cost_v = ad.where_select(take_ins, ins_v, sub_v)
    value = (ad.vsum(cost_u) + ad.vsum(cost_v)) * (1.0 / (2.0 * u.shape[0]))
    return HedResult(float(value.value),
                     np.where(take_del, -1, dist.value.argmin(axis=1)),
                     np.where(take_ins, -1, dist.value.argmin(axis=0)))
