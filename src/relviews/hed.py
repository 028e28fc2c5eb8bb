"""Learnable Hausdorff edit distance between node-attributed graphs.

Per node of each graph, the cheaper of deletion (learned cost) and best
substitution at half the embedding distance; the two directional sums are
scaled by 1/(2|V|) of the first graph. Halving the substitution cost per
side means a matched pair contributes its full distance once across both
sums, which is what makes the value a lower bound on the exact edit
distance with full substitution costs, the same deletion/insertion costs
and the same 1/(2|V|) normalization.

Every HED value in the package comes from one plain-numpy forward, the
table of `hed_values_multi`; `hed` is its one-instance, one-target case,
whose assignments are the table's argmins, -1 where deletion or insertion
won. Without a gradient the forward keeps nothing. Over the encoder's
output Var it is one tape node, whose backward is the closed-form
subgradient through the minima (argmins tie to the first index):
- the upstream g is scaled by 1/(2|V|); a node's term takes g of its
  class, a slot's term g of its row;
- where deletion or insertion won, that gradient enters the cost head's
  backward (softplus, then tanh), which adds the head's gradient into its
  `grad_buffer` and gives the deletion costs' gradient w.r.t. u;
- elsewhere g/2 goes to the winning entry of a (B*m, C*slots) weight
  array G: the node's nearest slot of the class, the slot's nearest node.
  With W = G / dist, 0 where dist <= 64 eps (|u| + |v|) (rounding noise;
  `autodiff.pairwise_l2_grad`), the distances' share is
  g_u = (W 1) * u - W V.
The targets, the class proxies, are constants: no target gradient is
computed. Ties between deletion and substitution resolve to substitution.

The forward reads only two minima from its (B, m, C*slots) L2 table: per
node and class over slots, and per slot over nodes. Tables of at least
`SCREEN_MIN_ENTRIES` entries, large `hed` pairs included, are therefore
screened first. Squared distances in Gram form, |u|^2 + |v|^2 - 2 u.v,
cost one matrix product; an entry stays a candidate when it lies within a
rounding bound of its row or column minimum, and only candidates get the
exact explicit-difference distance, the rest +inf. `autodiff.pairwise_l2`
computes the candidates in blocks of a fixed count, so its gathers do not
grow with the class count. The bound,
(8d + 32) eps (max|u|^2 + max|v|^2) plus the smallest normal number for
underflow, covers the Gram form's error, the explicit form's own error and
two values that round to the same square root, so every entry that ties
the exact minimum is a candidate: the minima, their argmins and the
gradients equal the full table's bit for bit. NaN compares as a
candidate, and an input whose squared norms overflow keeps every entry.
Smaller tables lose more to the screen's fixed cost than they save and
compute the full table.

The same table scores node subsets. A kept node's term reads only its own
row minimum over a class's slots, and a slot's term reads only its column
minimum over the kept nodes, so with a boolean `keep` mask (B, S, m)
`hed_values_multi` returns the (B, S, C) distances of S subsets of each
instance from one (B, m, C*slots) table. No caller trains on a mask, so
masked tables are value-only. Nor are they screened: a subset's column
minimum can fall on an entry that is neither a row minimum nor a column
minimum over all nodes, once the node holding the latter is dropped.
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
        super().__init__([("cost.W1", ad.fan_in_uniform(rng, (in_dim, hidden))),
                          ("cost.b1", np.zeros(hidden)),
                          ("cost.w2", ad.fan_in_uniform(rng, (hidden, 1))),
                          ("cost.b2", np.zeros(1))])
        self.W1, self.b1, self.w2, self.b2 = self.tensors

    def forward(self, x: np.ndarray, want_grad: bool = False):
        """One cost per row of x, shaped like x without its last axis, and
        what `backward` reads: x, the tanh layer, the softplus input and its
        exp(-|.|); None without `want_grad`."""
        h = np.tanh(x @ self.W1 + self.b1)
        logit = h @ self.w2 + self.b2
        z = np.exp(-np.abs(logit))
        costs = (np.maximum(logit, 0.0) + np.log1p(z)).reshape(x.shape[:-1])
        return costs, ((x, h, logit, z) if want_grad else None)

    def backward(self, saved, g: np.ndarray) -> np.ndarray:
        """Add the gradient of sum(g * costs) into `grad_buffer`, for the
        upstream g shaped like the costs; returns its gradient w.r.t. x."""
        x, h, logit, z = saved
        hidden = h.shape[-1]
        g_logit = ad._sigmoid(logit, z)                              # softplus
        g_logit *= g[..., None]
        g_pre = g_logit @ self.w2.T
        g_pre *= 1.0 - h * h                                         # tanh
        g_W1, g_b1, g_w2, g_b2 = self.tensor_grads
        flat_logit, flat_pre = g_logit.reshape(-1, 1), g_pre.reshape(-1, hidden)
        g_w2 += h.reshape(-1, hidden).T @ flat_logit
        g_b2 += flat_logit.sum(axis=0)
        g_W1 += x.reshape(-1, x.shape[-1]).T @ flat_pre
        g_b1 += flat_pre.sum(axis=0)
        return g_pre @ self.W1.T


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


def _slot_min(table: np.ndarray) -> np.ndarray:
    """Minimum of a (..., slots) table over its last axis. A short last axis
    reduces slowly, so it reads a slot-major copy; a minimum is exact in
    any order."""
    return np.ascontiguousarray(np.moveaxis(table, -1, 0)).min(axis=0)


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
        far = (sq > _slot_min(sq)[..., None] + tol) & (sq > sq.min(axis=1, keepdims=True) + tol)
    return ~far.reshape(b, m, -1)                                 # NaN is never far


def _forward(x: np.ndarray, stacked_targets: np.ndarray, slots: int, head,
             want_grad: bool = False, keep: np.ndarray | None = None):
    """`hed_values_multi` over an array x: the values, a function giving an
    unmasked table's take_del, take_ins and argmins over slots and over
    nodes, and with `want_grad` that table's backward."""
    b, m, d = x.shape
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
    where = (_candidates(x, stacked_targets, slots)
             if keep is None and b * m * rows >= SCREEN_MIN_ENTRIES else None)
    dist = ad.pairwise_l2(x, stacked_targets, where)             # (B, m, C*slots)
    by_class = dist.reshape(b, m, count, slots)
    sub_u = _slot_min(by_class) * 0.5                            # (B, m, C)
    del_u, del_saved = head.forward(x, want_grad)
    ins_v, ins_saved = head.forward(stacked_targets, want_grad)
    del_u, ins_v = del_u.reshape(b, m, 1), ins_v.reshape(count, slots)
    take_del = del_u < sub_u                                     # (B, m, C)
    cost_u = np.where(take_del, del_u, sub_u)
    if keep is None:
        sub_v = by_class.min(axis=1) * 0.5                       # (B, C, slots)
        sum_u = cost_u.sum(axis=1)                               # (B, C)
        scale = 1.0 / (2.0 * m)
    else:
        # a node's term does not depend on the subset; the kept ones are
        # summed along a contiguous last axis, as an unmasked table sums them
        by_node = cost_u.transpose(0, 2, 1).reshape(b, 1, count, m)
        sum_u = np.where(keep[:, :, None, :], by_node, 0.0).sum(axis=3)    # (B, S, C)
        # a slot's term reads its minimum over the kept nodes only
        sub_v = np.where(keep[:, :, :, None, None], by_class.reshape(b, 1, m, count, slots),
                         np.inf).min(axis=2) * 0.5               # (B, S, C, slots)
        scale = (1.0 / (2.0 * keep.sum(axis=2)))[:, :, None]
    take_ins = ins_v < sub_v                                     # (B, [S,] C, slots)
    cost_v = np.where(take_ins, ins_v, sub_v)
    value = (sum_u + cost_v.sum(axis=-1)) * scale

    def decisions():
        return take_del, take_ins, by_class.argmin(axis=3), by_class.argmin(axis=1)

    def bk(g):
        g = g * scale
        _, _, to_slot, to_node = decisions()
        g_u = np.broadcast_to(g[:, None], (b, m, count))
        g_v = np.broadcast_to(g[..., None], (b, count, slots))
        # a won substitution sends g / 2 to its winning entry of the flat
        # (B*m, C*slots) table: each node's nearest slot per class, and each
        # slot's nearest node
        row_win = np.arange(b * m * count) * slots + to_slot.ravel()
        node = np.arange(b)[:, None, None] * m + to_node        # (B, C, slots)
        col_win = node * rows + np.arange(rows).reshape(count, slots)
        weights = np.concatenate([np.where(take_del, 0.0, g_u).ravel(),
                                  np.where(take_ins, 0.0, g_v).ravel()]) * 0.5
        w = np.bincount(np.concatenate([row_win, col_win.ravel()]), weights,
                        minlength=b * m * rows).reshape(b * m, rows)
        grad = ad.pairwise_l2_grad(w, dist.reshape(b * m, rows), x.reshape(b * m, d),
                                   stacked_targets).reshape(b, m, d)
        grad += head.backward(del_saved, np.where(take_del, g_u, 0.0).sum(axis=2))
        head.backward(ins_saved, np.where(take_ins, g_v, 0.0).reshape(-1, rows).sum(axis=0))
        return (grad,)
    return value, decisions, bk


def hed_values_multi(u, stacked_targets: np.ndarray, slots: int, head,
                     keep: np.ndarray | None = None):
    """Distances of a batch of node sets to several same-size targets in one table.

    `u` is (B, m, d) and `stacked_targets` (C * slots, d); returns the (B, C)
    HED values, an array for an array `u`. For the encoder's output Var it
    is one Var, whose backward fn returns u's gradient and adds the cost
    head's into `head.grad_buffer`.

    With a boolean `keep` (B, S, m), row s of instance b scores the node
    subset keep[b, s] instead, and the result is the (B, S, C) HED of the
    kept nodes alone, up to the order of summation. Masked tables are
    value-only: `keep` with a Var raises ValueError.
    """
    if not isinstance(u, Var):
        return _forward(u, stacked_targets, slots, head, keep=keep)[0]
    if keep is not None:
        raise ValueError("masked tables are value-only: pass an array with keep")
    value, _, bk = _forward(u.value, stacked_targets, slots, head, want_grad=True)
    return Var(value, requires_grad=True, parents=(u,), backward=bk)


def hed(gs, gp, head) -> HedResult:
    """The HED of one pair and its assignments: a one-row `hed_values_multi` table."""
    u, v = _nodes(gs), _nodes(gp)
    value, decisions, _ = _forward(u[None], v, v.shape[0], head)
    take_del, take_ins, to_slot, to_node = decisions()
    return HedResult(float(value[0, 0]), np.where(take_del, -1, to_slot)[0, :, 0],
                     np.where(take_ins, -1, to_node)[0, 0])
