"""Test-only cost heads, the exact edit distance oracle, an encoder backward,
the `concat` op of the concat-form encoder, and the earlier forms that the
tape, Adam, the input-graph build, the no-grad minimum and Sinkhorn replaced."""
import itertools

import numpy as np

from relviews import autodiff as ad
from relviews.autodiff import Var
from relviews.errors import ConfigError
from relviews.graphs import ViewGraph, num_pairs, pair_rows, upper_pairs
from relviews.proxies import SinkhornResult


class ConstantCostHead:
    """Fixed deletion/insertion cost."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("cost must be non-negative")
        self.value = float(value)

    def bind(self, want_grad: bool = False) -> "_BoundSimpleHead":
        return _BoundSimpleHead(lambda x: ad.constant(np.full(x.shape[:-1], self.value)))


class LinearCostHead:
    """psi(u) = |w . u|; positively homogeneous, used by scale tests."""

    def __init__(self, w: np.ndarray):
        self.w = np.asarray(w, dtype=np.float64)

    def bind(self, want_grad: bool = False) -> "_BoundSimpleHead":
        def costs(x: Var) -> Var:
            raw = ad.reshape(ad.matmul(x, ad.constant(self.w.reshape(-1, 1))), x.shape[:-1])
            return ad.where_select(raw.value >= 0, raw, raw * -1.0)
        return _BoundSimpleHead(costs)


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
    bound = head.bind(False)
    del_u, ins_v = (bound.costs(ad.constant(x)).value for x in (u, v))
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


def encoder_backward(tape, node_grads: np.ndarray) -> dict[str, np.ndarray]:
    """Backward from an encoder tape's output; accumulates into the tape's
    parameter buffers and returns this call's gradient per tensor name.

    The upstream gradient is shaped like the batch output, (B, N, hidden).
    """
    node_grads = np.asarray(node_grads, dtype=np.float64)
    if node_grads.shape != tape.node_out.shape:
        raise ValueError(f"node gradient shape {node_grads.shape} != {tape.node_out.shape}")
    # each output's gradient under this scalar root is exactly its seed
    ad.backward(ad.vsum(tape.node_out * node_grads))
    tape.accumulate()
    leaves = [v for layer in tape.param_vars for v in layer.values() if v is not None]
    return dict(tape.params._named([np.zeros_like(v.value) if v.grad is None else v.grad
                                    for v in leaves]))


def edge_feature(g: ViewGraph, i: int, j: int) -> np.ndarray:
    """Feature row of the undirected edge (i, j), i != j."""
    return g.edge_features[pair_rows(min(i, j), max(i, j), g.num_views)]


def onehot_take_grad(shape, idx, axis: int, g: np.ndarray) -> np.ndarray:
    """The `take` backward as a one-hot matmul, for any indices."""
    onehot = (np.asarray(idx)[:, None] == np.arange(shape[axis])).astype(np.float64)
    return np.moveaxis(np.moveaxis(g, axis, -1) @ onehot, -1, axis)


def pair_gather(n: int) -> np.ndarray:
    """Flat (N*N,) row of each ordered pair (i, j) in canonical pair order;
    the diagonal points at row 0."""
    gather = np.zeros((n, n), dtype=np.intp)
    for r, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        gather[i, j] = gather[j, i] = r
    return gather.ravel()


def gathered_pair_matrix(u_pair: Var, n: int) -> Var:
    """`ad.pair_matrix` of (..., M, 1) pair values as a gather, a reshape and
    a product with the off-diagonal mask."""
    gathered = ad.take(u_pair, pair_gather(n), axis=u_pair.value.ndim - 2)
    return ad.reshape(gathered, u_pair.shape[:-2] + (n, n)) * (1.0 - np.eye(n))


def concat(vs: list[Var], axis: int) -> Var:
    """Tape node joining Vars along one axis; the concat-form encoder's edge update."""
    sizes = [v.value.shape[axis] for v in vs]

    def bk(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))
    return ad._node(np.concatenate([v.value for v in vs], axis=axis), tuple(vs), bk)


class PerTensorAdam:
    """Adam with L2 weight decay, stepping each named tensor on its own."""

    def __init__(self, named_arrays, weight_decay=0.0):
        self.arrays = named_arrays
        self.weight_decay = weight_decay
        self.m = {name: np.zeros_like(arr) for name, arr in named_arrays}
        self.v = {name: np.zeros_like(arr) for name, arr in named_arrays}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1c = 1.0 - 0.9 ** self.t
        b2c = 1.0 - 0.999 ** self.t
        for name, arr in self.arrays:
            g = grads[name] + self.weight_decay * arr
            self.m[name] = 0.9 * self.m[name] + (1.0 - 0.9) * g
            self.v[name] = 0.999 * self.v[name] + (1.0 - 0.999) * g * g
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            arr -= lr * mhat / (np.sqrt(vhat) + 1e-8)


def instance_build(embeddings, cfg, label=None, uniform=False) -> ViewGraph:
    """`complementarity.build_dataset` one instance at a time: a 2-D norm
    and one (1, d) @ (d, 1) product per local pair."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if cfg.normalize_embeddings:
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = emb / np.where(norms == 0, 1.0, norms)
    n_nodes, dim = emb.shape
    edges = np.ones((num_pairs(n_nodes), dim))
    if not uniform:
        i, j = upper_pairs(n_nodes)
        local = i != 0
        dot = np.abs(np.matmul(emb[i[local], None, :], emb[j[local], :, None])[:, 0, 0])
        inv = np.divide(1.0, dot, out=np.full_like(dot, np.inf), where=dot != 0)
        edges[local] = np.minimum(inv, cfg.weight_cap)[:, None]
    return ViewGraph(emb, edges, label=label)


def argmin_min(value: np.ndarray, axis: int) -> np.ndarray:
    """`reduce_min`'s value read at the recorded argmin."""
    arg = value.argmin(axis=axis)
    return np.take_along_axis(value, np.expand_dims(arg, axis), axis=axis).squeeze(axis)


def loop_sinkhorn(cost, row_marginals, col_marginals, cfg) -> SinkhornResult:
    """`proxies.sinkhorn` building the plan once for each residual and once
    more for the result."""
    cost = np.asarray(cost, dtype=np.float64)
    a = np.asarray(row_marginals, dtype=np.float64)
    b = np.asarray(col_marginals, dtype=np.float64)
    eps = cfg.entropic_regularizer
    k = np.exp(-(cost - cost.min(axis=1, keepdims=True)) / eps)
    rows_on = a > 0
    cols_on = b > 0
    u = np.where(rows_on, 1.0, 0.0)
    v = np.where(cols_on, 1.0, 0.0)

    def residual(u, v):
        plan = u[:, None] * k * v[None, :]
        return max(np.abs(plan.sum(axis=1) - a).max(),
                   np.abs(plan.sum(axis=0) - b).max())

    it = 0
    res = residual(u, v)
    while res > cfg.marginal_tol and it < cfg.max_iters:
        kv = k @ v
        u = np.where(rows_on, a / np.where(kv > 0, kv, 1.0), 0.0)
        ku = k.T @ u
        v = np.where(cols_on, b / np.where(ku > 0, ku, 1.0), 0.0)
        it += 1
        res = residual(u, v)
    return SinkhornResult(u[:, None] * k * v[None, :], it, float(res), res <= cfg.marginal_tol)
