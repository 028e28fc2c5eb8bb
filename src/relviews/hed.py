"""Learnable Hausdorff edit distance between node-attributed graphs.

Per node of each graph, the cheaper of deletion (learned cost) and best
substitution at half the embedding distance; the two directional sums are
scaled by 1/(2|V|) of the first graph. Halving the substitution cost per
side means a matched pair contributes its full distance once across both
sums, which is what makes the value a lower bound on the exact edit
distance (full substitution cost, computed here by exhaustive search over
partial injective node mappings, same deletion/insertion costs and the same
1/(2|V|) normalization).

Gradients are subgradients through the recorded argmin structure: only the
winning branch receives gradient, and the norm at zero uses subgradient 0.
Ties between deletion and substitution resolve to substitution.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError
from .graphs import ViewGraph


# ---------------------------------------------------------------- cost heads

class CostHead:
    """One-hidden-layer MLP to a scalar, softplus output so costs are >= 0."""

    def __init__(self, in_dim: int, hidden: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)

        def u(shape, fan_in):
            return rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(fan_in)

        self.in_dim = in_dim
        self.hidden = hidden
        self.W1 = u((in_dim, hidden), in_dim)
        self.b1 = np.zeros(hidden)
        self.w2 = u((hidden, 1), hidden)
        self.b2 = np.zeros(1)
        self.grads: dict[str, np.ndarray] = {}
        self.zero_grads()

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [("cost.W1", self.W1), ("cost.b1", self.b1),
                ("cost.w2", self.w2), ("cost.b2", self.b2)]

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        for tname, arr in self.named_tensors():
            if tname == name:
                if arr.shape != value.shape:
                    raise ConfigError(f"shape mismatch for {name}")
                arr[...] = value
                return
        raise ConfigError(f"unknown tensor {name}")

    def zero_grads(self) -> None:
        for name, arr in self.named_tensors():
            self.grads[name] = np.zeros_like(arr)

    def bind(self, want_grad: bool = False) -> "_BoundMlpHead":
        return _BoundMlpHead(self, want_grad)

    def costs(self, x: np.ndarray) -> np.ndarray:
        return self.bind(False).costs(ad.constant(x)).value


class _BoundMlpHead:
    def __init__(self, head: CostHead, want_grad: bool):
        self.head = head
        self.pvars = {name: Var(arr, requires_grad=want_grad)
                      for name, arr in head.named_tensors()}

    def costs(self, x: Var) -> Var:
        """One cost per row of x, shaped like x without its last axis."""
        h = ad.tanh(ad.matmul(x, self.pvars["cost.W1"]) + self.pvars["cost.b1"])
        out = ad.softplus(ad.matmul(h, self.pvars["cost.w2"]) + self.pvars["cost.b2"])
        return ad.reshape(out, x.shape[:-1])

    def accumulate(self) -> None:
        for name, _ in self.head.named_tensors():
            v = self.pvars[name]
            if v.grad is not None:
                self.head.grads[name] += v.grad


class ConstantCostHead:
    """Fixed deletion/insertion cost; handy as a test fixture."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("cost must be non-negative")
        self.value = float(value)

    def bind(self, want_grad: bool = False) -> "_BoundSimpleHead":
        return _BoundSimpleHead(lambda x: ad.constant(np.full(x.shape[:-1], self.value)))

    def costs(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x).shape[0], self.value)


class LinearCostHead:
    """psi(u) = |w . u|; positively homogeneous, used by scale tests."""

    def __init__(self, w: np.ndarray):
        self.w = np.asarray(w, dtype=np.float64)

    def bind(self, want_grad: bool = False) -> "_BoundSimpleHead":
        def costs(x: Var) -> Var:
            raw = ad.reshape(ad.matmul(x, ad.constant(self.w.reshape(-1, 1))), x.shape[:-1])
            return ad.where_select(raw.value >= 0, raw, -raw)
        return _BoundSimpleHead(costs)

    def costs(self, x: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(x) @ self.w)


class _BoundSimpleHead:
    def __init__(self, fn):
        self._fn = fn

    def costs(self, x: Var) -> Var:
        return self._fn(x)

    def accumulate(self) -> None:
        pass


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


def hed_terms(u_var: Var, v_var: Var, bound_head):
    """Engine-level HED: value Var plus the recorded assignments."""
    m = u_var.shape[0]
    dist = ad.pairwise_l2(u_var, v_var)               # (m, p)
    sub_u = ad.reduce_min(dist, axis=1) * 0.5
    sub_v = ad.reduce_min(dist, axis=0) * 0.5
    del_u = bound_head.costs(u_var)
    ins_v = bound_head.costs(v_var)
    take_del = del_u.value < sub_u.value              # ties keep substitution
    take_ins = ins_v.value < sub_v.value
    cost_u = ad.where_select(take_del, del_u, sub_u)
    cost_v = ad.where_select(take_ins, ins_v, sub_v)
    value = (ad.vsum(cost_u) + ad.vsum(cost_v)) * (1.0 / (2.0 * m))
    fwd = np.where(take_del, -1, dist.value.argmin(axis=1))
    bwd = np.where(take_ins, -1, dist.value.argmin(axis=0))
    return value, fwd, bwd


def hed_values_multi(u_var: Var, stacked_targets: Var, slots: int, bound_head) -> Var:
    """Distances of a batch of node sets to several same-size targets in one chain.

    `u_var` is (B, m, d) and `stacked_targets` (C * slots, d); returns the
    (B, C) Var of HED values. The targets' insertion costs are computed once
    for the whole batch. Used by the trainer and `evaluate` to score
    instances against every class proxy.
    """
    b, m = u_var.shape[0], u_var.shape[1]
    count = stacked_targets.shape[0] // slots
    dist = ad.pairwise_l2(u_var, stacked_targets)                 # (B, m, C*slots)
    by_class = ad.reshape(dist, (b, m, count, slots))
    sub_u = ad.reduce_min(by_class, axis=3) * 0.5                 # (B, m, C)
    sub_v = ad.reduce_min(by_class, axis=1) * 0.5                 # (B, C, slots)
    del_u = ad.reshape(bound_head.costs(u_var), (b, m, 1))
    ins_v = ad.reshape(bound_head.costs(stacked_targets), (count, slots))
    take_del = del_u.value < sub_u.value                          # (B, m, C)
    take_ins = ins_v.value < sub_v.value                          # (B, C, slots)
    cost_u = ad.where_select(take_del, del_u, sub_u)
    cost_v = ad.where_select(take_ins, ins_v, sub_v)
    return (ad.vsum(cost_u, axis=1) + ad.vsum(cost_v, axis=2)) * (1.0 / (2.0 * m))


def hed(gs, gp, head) -> HedResult:
    """Hausdorff edit distance with learned deletion/insertion costs."""
    u = _nodes(gs)
    v = _nodes(gp)
    if u.shape[1] != v.shape[1]:
        raise ConfigError(f"node dims differ: {u.shape[1]} vs {v.shape[1]}")
    value, fwd, bwd = hed_terms(ad.constant(u), ad.constant(v), head.bind(False))
    return HedResult(float(value.value), fwd, bwd)


_PERMS: dict[int, np.ndarray] = {}


def _perms(r: int) -> np.ndarray:
    if r not in _PERMS:
        _PERMS[r] = np.array(list(itertools.permutations(range(r))), dtype=np.intp)
    return _PERMS[r]


def exact_ged(gs, gp, head) -> float:
    """Exact edit distance by exhaustive search over partial injective maps.

    Substitution u->v costs the full ||u - v||, deletions and insertions the
    head's cost; the result carries the same 1/(2|V_gs|) normalization as the
    Hausdorff value so the two are directly comparable. Graphs above 8 nodes
    are refused (combinatorial guard).
    """
    u = _nodes(gs)
    v = _nodes(gp)
    if u.shape[1] != v.shape[1]:
        raise ConfigError(f"node dims differ: {u.shape[1]} vs {v.shape[1]}")
    m, p = u.shape[0], v.shape[0]
    if m > 8 or p > 8:
        raise ValueError("exact search refused beyond 8 nodes")
    dist = np.sqrt(np.square(u[:, None, :] - v[None, :, :]).sum(axis=-1))
    del_u = np.asarray(head.costs(u), dtype=np.float64)
    ins_v = np.asarray(head.costs(v), dtype=np.float64)
    base = del_u.sum() + ins_v.sum()
    # matching (i, j) replaces delete(i) + insert(j) with substitution cost
    gain = dist - del_u[:, None] - ins_v[None, :]
    best = 0.0  # empty mapping: delete everything, insert everything
    for r in range(1, min(m, p) + 1):
        perms = _perms(r)
        rows_idx = np.arange(r)
        for rows in itertools.combinations(range(m), r):
            g_rows = gain[list(rows)]
            for cols in itertools.combinations(range(p), r):
                sub = g_rows[:, list(cols)]
                best = min(best, float(sub[rows_idx, perms].sum(axis=1).min()))
    return (base + best) / (2.0 * m)
