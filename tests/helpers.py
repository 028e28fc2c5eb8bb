"""Test-only cost heads, the exact edit distance oracle and an encoder backward."""
import itertools

import numpy as np

from relviews import autodiff as ad
from relviews.autodiff import Var
from relviews.errors import ConfigError


class ConstantCostHead:
    """Fixed deletion/insertion cost."""

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


_PERMS: dict[int, np.ndarray] = {}


def _perms(r: int) -> np.ndarray:
    if r not in _PERMS:
        _PERMS[r] = np.array(list(itertools.permutations(range(r))), dtype=np.intp)
    return _PERMS[r]


def exact_ged(u, v, head) -> float:
    """Exact edit distance by exhaustive search over partial injective maps.

    Substitution u->v costs the full ||u - v||, deletions and insertions the
    head's cost; the result carries the same 1/(2|V_u|) normalization as the
    Hausdorff value so the two are directly comparable. Node sets above 8
    nodes are refused (combinatorial guard).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
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


def encoder_backward(tape, node_grads: np.ndarray,
                     edge_grads: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Backward from an encoder tape's outputs; accumulates into the tape's
    parameter buffers and returns this call's gradient per tensor name.

    The upstream gradients are shaped like the batch outputs, (B, N, hidden)
    and (B, N(N-1)/2, hidden).
    """
    node_grads = np.asarray(node_grads, dtype=np.float64)
    if node_grads.shape != tape.node_out.shape:
        raise ValueError(f"node gradient shape {node_grads.shape} != {tape.node_out.shape}")
    seeds = [(tape.node_out, node_grads)]
    if edge_grads is not None:
        edge_grads = np.asarray(edge_grads, dtype=np.float64)
        if edge_grads.shape != tape.edge_out.shape:
            raise ValueError(f"edge gradient shape {edge_grads.shape} != {tape.edge_out.shape}")
        seeds.append((tape.edge_out, edge_grads))
    ad.backward_from(seeds)
    return tape.accumulate()
