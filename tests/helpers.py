"""Test-only cost heads, the exact edit distance oracle, the generic tape ops
that `relviews` no longer uses, the encoder and the distance tables as tape
ops (the oracles of their closed-form backwards), the one-step harness that
compares two encoder or table paths, the `concat` op of the concat-form
encoder, and the earlier forms that the tape, Adam, the input-graph build,
the no-grad minimum, Sinkhorn and the dataset generator replaced. Also the
generator's emergence surrogate, which no library code reads."""
import importlib
import itertools
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from relviews import autodiff as ad
from relviews import encoder as enc
from relviews import proxies, training
from relviews.synth import NoiseModel, SynthConfig, SynthDataset, SynthInstance
from relviews.autodiff import Var
from relviews.errors import ConfigError
from relviews.graphs import ViewGraph, num_pairs, upper_pairs
from relviews.hed import CostHead, HedResult
from relviews.proxies import SinkhornResult

# the module, not the `relviews.hed` function the package exports; the
# oracle reads its screen at call time, so a test's patch applies to both
hed_module = importlib.import_module("relviews.hed")

# ------------------------------------------------------------ generic tape ops


def constant(value) -> Var:
    return Var(value, requires_grad=False)


def wrap(x) -> Var:
    return x if isinstance(x, Var) else Var(x, requires_grad=False)


def node(value, parents, backward) -> Var:
    """A tape node over `parents`, or a constant when none needs a gradient."""
    rg = any(p.requires_grad for p in parents)
    if not rg:
        return Var(value, requires_grad=False)
    return Var(value, requires_grad=True, parents=parents, backward=backward)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out axes that were broadcast so grad matches the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Var:
    a, b = wrap(a), wrap(b)

    def bk(g):
        return unbroadcast(g, a.shape), unbroadcast(g, b.shape)
    return node(a.value + b.value, (a, b), bk)


def mul(a, b) -> Var:
    a, b = wrap(a), wrap(b)

    def bk(g):
        return unbroadcast(g * b.value, a.shape), unbroadcast(g * a.value, b.shape)
    return node(a.value * b.value, (a, b), bk)


def sub(a: Var, b) -> Var:
    b = wrap(b)

    def bk(g):
        return unbroadcast(g, a.shape), unbroadcast(-g, b.shape)
    return node(a.value - b.value, (a, b), bk)


def div(a: Var, b) -> Var:
    b = wrap(b)

    def bk(g):
        return (unbroadcast(g / b.value, a.shape),
                unbroadcast(-g * a.value / (b.value * b.value), b.shape))
    return node(a.value / b.value, (a, b), bk)


def matmul(a: Var, b: Var) -> Var:
    """Matrix product of (..., n, k) and (..., k, p) with broadcast batch axes."""
    def bk(g):
        ga = unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.shape) if a.requires_grad else None
        gb = unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb
    return node(a.value @ b.value, (a, b), bk)


def reshape(a: Var, shape) -> Var:
    old = a.shape

    def bk(g):
        return (g.reshape(old),)
    return node(a.value.reshape(shape), (a,), bk)


def transpose(a: Var, axes) -> Var:
    inverse = np.argsort(axes)

    def bk(g):
        return (g.transpose(inverse),)
    return node(a.value.transpose(axes), (a,), bk)


def vsum(a: Var, axis=None, keepdims=False) -> Var:
    def bk(g):
        if axis is None:
            return (np.full_like(a.value, 1.0) * g,)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)
    return node(a.value.sum(axis=axis, keepdims=keepdims), (a,), bk)


def vmean(a: Var, axis: int, keepdims=False) -> Var:
    count = a.shape[axis]

    def bk(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy() / count,)
    return node(a.value.mean(axis=axis, keepdims=keepdims), (a,), bk)


def tanh(a: Var) -> Var:
    val = np.tanh(a.value)

    def bk(g):
        return (g * (1.0 - val * val),)
    return node(val, (a,), bk)


def softplus(a: Var) -> Var:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which cannot overflow;
    the backward's sigmoid reuses exp(-|x|)."""
    x = a.value
    z = np.exp(-np.abs(x))

    def bk(g):
        return (g * ad._sigmoid(x, z),)
    return node(np.maximum(x, 0.0) + np.log1p(z), (a,), bk)


def pairwise_l2(u: Var, v: Var, where: np.ndarray | None = None) -> Var:
    """`autodiff.pairwise_l2` as a tape node, with its backward for both
    inputs: dU = diag(W 1) u - W v, dV = diag(W^T 1) v - W^T u, W = g / dist,
    0 where dist <= 64 eps (|u| + |v|)."""
    val = ad.pairwise_l2(u.value, v.value, where)

    def bk(g):
        norm_u = np.sqrt(np.square(u.value).sum(axis=-1))[..., None]
        noise = val <= ad._ROUNDING * (norm_u + np.sqrt(np.square(v.value).sum(axis=-1)))
        w = np.where(noise, 0.0, g / np.where(noise, 1.0, val))
        gu = w.sum(axis=-1)[..., None] * u.value - w @ v.value if u.requires_grad else None
        gv = None
        if v.requires_grad:
            w2 = w.reshape(-1, w.shape[-1])
            gv = w2.sum(axis=0)[:, None] * v.value - w2.T @ u.value.reshape(-1, v.shape[-1])
        return gu, gv
    return node(val, (u, v), bk)


def reduce_min(a: Var, axis: int) -> Var:
    """Min along an axis; gradient flows only to the recorded argmin slots.
    An input that needs no gradient records no argmin."""
    if not a.requires_grad:
        return Var(a.value.min(axis=axis))
    arg = a.value.argmin(axis=axis)
    val = np.take_along_axis(a.value, np.expand_dims(arg, axis), axis=axis).squeeze(axis)

    def bk(g):
        out = np.zeros_like(a.value)
        np.put_along_axis(out, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis)
        return (out,)
    return node(val, (a,), bk)


def where_select(cond: np.ndarray, a: Var, b: Var) -> Var:
    """Elementwise pick from a where cond else b; cond is a detached mask."""
    cond = np.asarray(cond, dtype=bool)

    def bk(g):
        return (unbroadcast(np.where(cond, g, 0.0), a.shape),
                unbroadcast(np.where(cond, 0.0, g), b.shape))
    return node(np.where(cond, a.value, b.value), (a, b), bk)


def take(a: Var, idx, axis: int = 0) -> Var:
    """Index along one axis with indices in [0, n).

    The backward checks the indices: unique ones get `g` assigned into
    zeros, which is exact; repeated ones scatter through a one-hot matmul,
    so their gradients add up."""
    idx = np.asarray(idx, dtype=np.intp)
    axis %= a.value.ndim

    def bk(g):
        size = a.shape[axis]
        if np.bincount(idx, minlength=size).max(initial=0) <= 1:
            out = np.zeros(a.shape)
            out[(slice(None),) * axis + (idx,)] = g
            return (out,)
        onehot = (idx[:, None] == np.arange(size)).astype(np.float64)
        return (np.moveaxis(np.moveaxis(g, axis, -1) @ onehot, -1, axis),)
    return node(np.take(a.value, idx, axis=axis), (a,), bk)


def pair_matrix(a: Var, idx_i: np.ndarray, idx_j: np.ndarray, n: int) -> Var:
    """Symmetric (..., n, n) matrices with a zero diagonal from pair values.

    `a` is (..., M, 1): one value per unordered pair (idx_i[r], idx_j[r]),
    and the pairs list each of the M = n(n-1)/2 pairs of n nodes once. Entry
    [i, j] and [j, i] both hold the pair's value; the backward is
    g[i, j] + g[j, i]."""
    assert a.shape[-2:] == (len(idx_i), 1), a.shape
    vals = a.value[..., 0]
    out = np.zeros(vals.shape[:-1] + (n, n))
    out[..., idx_i, idx_j] = vals
    out[..., idx_j, idx_i] = vals

    def bk(g):
        return ((g[..., idx_i, idx_j] + g[..., idx_j, idx_i])[..., None],)
    return node(out, (a,), bk)


def exp(a: Var) -> Var:
    val = np.exp(a.value)

    def bk(g):
        return (g * val,)
    return node(val, (a,), bk)


def sqrt(a: Var) -> Var:
    val = np.sqrt(a.value)

    def bk(g):
        return (g * 0.5 / val,)
    return node(val, (a,), bk)


def square(a: Var) -> Var:
    def bk(g):
        return (g * 2.0 * a.value,)
    return node(a.value * a.value, (a,), bk)


def leaky_relu(a: Var, slope: float) -> Var:
    pos = a.value > 0

    def bk(g):
        return (g * np.where(pos, 1.0, slope),)
    return node(np.where(pos, a.value, slope * a.value), (a,), bk)


# ------------------------------------------------------------------ cost heads

class ConstantCostHead:
    """Fixed deletion/insertion cost."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("cost must be non-negative")
        self.value = float(value)

    def forward(self, x: np.ndarray, want_grad: bool = False):
        return np.full(x.shape[:-1], self.value), (x.shape if want_grad else None)

    def backward(self, saved, g: np.ndarray) -> np.ndarray:
        return np.zeros(saved)

    def tape_costs(self, x: Var) -> Var:
        return constant(np.full(x.shape[:-1], self.value))


class LinearCostHead:
    """psi(u) = |w . u|; positively homogeneous, used by scale tests."""

    def __init__(self, w: np.ndarray):
        self.w = np.asarray(w, dtype=np.float64)

    def forward(self, x: np.ndarray, want_grad: bool = False):
        raw = (x @ self.w.reshape(-1, 1)).reshape(x.shape[:-1])
        return np.where(raw >= 0, raw, raw * -1.0), (raw >= 0 if want_grad else None)

    def backward(self, saved, g: np.ndarray) -> np.ndarray:
        return np.where(saved, g, -g)[..., None] * self.w

    def tape_costs(self, x: Var) -> Var:
        raw = reshape(matmul(x, constant(self.w.reshape(-1, 1))), x.shape[:-1])
        return where_select(raw.value >= 0, raw, mul(raw, -1.0))


class TapeHead:
    """A cost head's costs as tape ops. A `CostHead`'s tensors enter as leaf
    Vars over its buffer views, and `accumulate` adds their gradients into
    its `grad_buffer`; a test head uses its own `tape_costs`."""

    def __init__(self, head, want_grad: bool = True):
        self.head = head
        self.leaves = ([Var(t, requires_grad=want_grad) for t in head.tensors]
                       if isinstance(head, CostHead) else None)

    def costs(self, x: Var) -> Var:
        """One cost per row of x, shaped like x without its last axis."""
        if self.leaves is None:
            return self.head.tape_costs(x)
        W1, b1, w2, b2 = self.leaves
        h = tanh(add(matmul(x, W1), b1))
        out = softplus(add(matmul(h, w2), b2))
        return reshape(out, x.shape[:-1])

    def accumulate(self) -> None:
        if self.leaves is None:
            return
        for grad, v in zip(self.head.tensor_grads, self.leaves, strict=True):
            if v.grad is not None:
                grad += v.grad


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
    del_u, ins_v = (head.forward(x)[0] for x in (u, v))
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
                sub_ = g_rows[:, list(cols)]
                best = min(best, float(sub_[rows_idx, perms].sum(axis=1).min()))
    return (base + best) / (2.0 * m)


# ------------------------------------------------ the distance tables as tape ops

def _as_one_node(u, leaf: Var, table: Var, after=None):
    """A tape's output as the closed forms return it: its value for an array
    `u`; for a Var `u` one node whose backward runs the inner tape from
    `leaf`, calls `after` and returns the leaf's gradient."""
    if not isinstance(u, Var):
        return table.value

    def bk(g):
        ad.backward(table, g)
        if after is not None:
            after()
        return (leaf.grad,)
    return Var(table.value, requires_grad=True, parents=(u,), backward=bk)


def tape_table(u, stacked_targets, slots: int, head, keep=None):
    """`hed.hed_values_multi` as generic tape ops, about 30 nodes per table:
    the oracle of its values and closed-form backward. The cost head's
    gradient is added into its `grad_buffer`; a Var of targets that needs a
    gradient gets it from the inner tape."""
    want_grad = isinstance(u, Var)
    leaf = Var(u.value if want_grad else u, requires_grad=want_grad)
    targets = wrap(stacked_targets)
    bound = TapeHead(head, want_grad)
    b, m, d = leaf.shape
    rows = targets.shape[0]
    count = rows // slots
    where = None
    if keep is None and b * m * rows >= hed_module.SCREEN_MIN_ENTRIES:
        where = hed_module._candidates(leaf.value, targets.value, slots)
    dist = pairwise_l2(leaf, targets, where)                      # (B, m, C*slots)
    by_class = reshape(dist, (b, m, count, slots))
    sub_u = mul(reduce_min(by_class, axis=3), 0.5)                # (B, m, C)
    del_u = reshape(bound.costs(leaf), (b, m, 1))
    ins_v = reshape(bound.costs(targets), (count, slots))
    take_del = del_u.value < sub_u.value                          # (B, m, C)
    cost_u = where_select(take_del, del_u, sub_u)
    if keep is None:
        sub_v = mul(reduce_min(by_class, axis=1), 0.5)            # (B, C, slots)
        sum_u = vsum(cost_u, axis=1)                              # (B, C)
        scale = 1.0 / (2.0 * m)
    else:
        keep = np.asarray(keep, dtype=bool)
        by_node = reshape(transpose(cost_u, (0, 2, 1)), (b, 1, count, m))
        sum_u = vsum(where_select(keep[:, :, None, :], by_node, constant(0.0)),
                     axis=3)                                      # (B, S, C)
        kept = where_select(keep[:, :, :, None, None],
                            reshape(by_class, (b, 1, m, count, slots)),
                            constant(np.inf))                     # (B, S, m, C, slots)
        sub_v = mul(reduce_min(kept, axis=2), 0.5)                # (B, S, C, slots)
        scale = (1.0 / (2.0 * keep.sum(axis=2)))[:, :, None]
    take_ins = ins_v.value < sub_v.value                          # (B, [S,] C, slots)
    cost_v = where_select(take_ins, ins_v, sub_v)
    table = mul(add(sum_u, vsum(cost_v, axis=-1)), scale)
    return _as_one_node(u, leaf, table, bound.accumulate)


def tape_hed(gs, gp, head) -> HedResult:
    """`hed.hed` as generic tape ops, never screened: the oracle of its values
    and assignments."""
    u = gs.node_features if isinstance(gs, ViewGraph) else np.asarray(gs, dtype=np.float64)
    v = gp.node_features if isinstance(gp, ViewGraph) else np.asarray(gp, dtype=np.float64)
    bound = TapeHead(head, False)
    u_var, v_var = constant(u), constant(v)
    dist = pairwise_l2(u_var, v_var)                  # (m, p)
    sub_u = mul(reduce_min(dist, axis=1), 0.5)
    sub_v = mul(reduce_min(dist, axis=0), 0.5)
    del_u = bound.costs(u_var)
    ins_v = bound.costs(v_var)
    take_del = del_u.value < sub_u.value              # ties keep substitution
    take_ins = ins_v.value < sub_v.value
    cost_u = where_select(take_del, del_u, sub_u)
    cost_v = where_select(take_ins, ins_v, sub_v)
    value = mul(add(vsum(cost_u), vsum(cost_v)), 1.0 / (2.0 * u.shape[0]))
    return HedResult(float(value.value),
                     np.where(take_del, -1, dist.value.argmin(axis=1)),
                     np.where(take_ins, -1, dist.value.argmin(axis=0)))


def tape_mean_pool(nodes, targets):
    """The ablations' mean-pool table as generic tape ops: `vmean` and
    `pairwise_l2`."""
    want_grad = isinstance(nodes, Var)
    leaf = Var(nodes.value if want_grad else nodes, requires_grad=want_grad)
    return _as_one_node(nodes, leaf, pairwise_l2(vmean(leaf, axis=1), constant(targets)))


def tape_distance_table(model, nodes):
    """`TrainedModel.distance_table` over the tape tables."""
    ab = model.config.ablations
    ids = model.class_ids()
    targets = training._proxy_targets(model, ids)
    if ab.proxy_as_graph and ab.transitivity_recovery:
        return tape_table(nodes, targets, model.proxies[ids[0]].num_slots, model.cost_head)
    return tape_mean_pool(nodes, targets)


# ------------------------------------------- the encoder as generic tape ops

def encoder_backward(params, out: Var, node_grads: np.ndarray) -> dict[str, np.ndarray]:
    """Backward from an encoder output `out` of `params`; adds into
    `params.grad_buffer` and returns this call's gradient per tensor name.

    The upstream gradient is shaped like the batch output, (B, N, hidden).
    """
    node_grads = np.asarray(node_grads, dtype=np.float64)
    if node_grads.shape != out.shape:
        raise ValueError(f"node gradient shape {node_grads.shape} != {out.shape}")
    kept = params.grad_buffer.copy()
    params.zero_grads()
    ad.backward(out, node_grads)
    grads = {name: g.copy() for name, g in params.grads.items()}
    params.grad_buffer += kept
    return grads


def param_leaves(params) -> list[Var]:
    """One leaf Var per stored tensor of a `FlatParams`, over its buffer view."""
    return [Var(t, requires_grad=True) for t in params.tensors]


def graphnorm(h: Var, mean_scale: Var, scale: Var, shift: Var, eps: float) -> Var:
    """Per-graph normalization over the node axis of a (B, N, hidden) stack."""
    mu = vmean(h, axis=1, keepdims=True)
    shifted = sub(h, mul(mu, mean_scale))
    var = vmean(square(shifted), axis=1, keepdims=True)
    return add(mul(div(shifted, sqrt(add(var, eps))), scale), shift)


def tape_output(params, pvars: list[dict], h: Var, want_grad: bool):
    """An encoder tape's output as `encoder.forward` returns it: the array
    without `want_grad`, else one Var whose backward runs the tape and adds
    the leaves' gradients into `params.grad_buffer`."""
    if not want_grad:
        return h.value
    leaves = [v for layer in pvars for v in layer.values() if v is not None]

    def bk(g):
        ad.backward(h, g)
        for grad, v in zip(params.tensor_grads, leaves, strict=True):
            if v.grad is not None:
                grad += v.grad
        return ()
    return Var(h.value, requires_grad=True, backward=bk)


def tape_forward(params, graphs, want_grad: bool = True):
    """`encoder.forward` as generic tape ops, about 100 nodes per pass: the
    reference that the closed-form backward is checked against."""
    cfg = params.config
    n = graphs[0].num_views
    b, heads = len(graphs), cfg.heads_per_layer
    idx_i, idx_j = upper_pairs(n)
    offdiag, diag_neg = enc._diag_masks(n)
    pvars = params.by_layer(param_leaves(params))
    h = constant(np.stack([g.node_features for g in graphs]))
    weights = np.stack([g.edge_weights for g in graphs])
    e = constant(np.repeat(weights[..., None], params.in_dim, axis=2))
    for li, (node_in, head_dim, edge_in) in enumerate(enc._layer_dims(cfg, params.in_dim)):
        pv = pvars[li]
        Wh = matmul(reshape(h, (b, 1, n, node_in)), pv["W"])
        a_src, a_dst, a_edge = (
            reshape(take(pv["a"], np.arange(part * head_dim, (part + 1) * head_dim), axis=1),
                    (heads, head_dim, 1)) for part in range(3))
        s = matmul(Wh, a_src)
        t = reshape(matmul(Wh, a_dst), (b, heads, 1, n))
        pa = matmul(pv["P"], a_edge)
        u_pair = matmul(reshape(e, (b, 1, num_pairs(n), edge_in)), pa)
        u_mat = pair_matrix(u_pair, idx_i, idx_j, n)
        logits = add(leaky_relu(add(add(s, t), u_mat), cfg.leaky_slope), diag_neg)
        ex = mul(exp(sub(logits, logits.value.max(axis=-1, keepdims=True))), offdiag)
        alpha = div(ex, vsum(ex, axis=-1, keepdims=True))
        head_out = matmul(alpha, Wh)
        if li == cfg.num_layers - 1:
            h = mul(vsum(head_out, axis=1), 1.0 / heads)
        else:
            h = reshape(transpose(head_out, (0, 2, 1, 3)), (b, n, heads * head_dim))
            h = graphnorm(h, pv["norm_mean_scale"], pv["norm_scale"], pv["norm_shift"],
                          cfg.norm_eps)
            hd = cfg.hidden_dim
            u_src, u_dst, u_edge = (
                take(pv["edge_U"], np.arange(lo, hi), axis=0)
                for lo, hi in ((0, hd), (hd, 2 * hd), (2 * hd, 2 * hd + edge_in)))
            S = matmul(h, mul(add(u_src, u_dst), 0.5))
            e = softplus(add(add(take(S, idx_i, axis=1), take(S, idx_j, axis=1)),
                             matmul(e, u_edge)))
    return tape_output(params, pvars, h, want_grad)


# ---------------------------------------------------------- one-step harness

@contextmanager
def recorded_sinkhorn(results: list):
    """Append every `proxies.sinkhorn` result to `results` while the block runs."""
    original = proxies.sinkhorn

    def record(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]
    proxies.sinkhorn = record
    try:
        yield
    finally:
        proxies.sinkhorn = original


def table_decisions(nodes: np.ndarray, targets: np.ndarray, slots: int, head) -> dict:
    """The graph-proxy table's discrete choices for (B, m, d) `nodes` against
    (C * slots, d) `targets`: each node's nearest slot per class, each slot's
    nearest node, and where deletion and insertion beat substitution."""
    b, m, _ = nodes.shape
    dist = np.sqrt(np.square(nodes[:, :, None, :] - targets).sum(axis=-1))
    dist = dist.reshape(b, m, -1, slots)                                     # (B, m, C, slots)
    del_u = head.forward(nodes)[0][..., None]                                # (B, m, 1)
    ins_v = head.forward(targets)[0].reshape(-1, slots)                      # (C, slots)
    return {"decide slot argmin": dist.argmin(axis=3),
            "decide node argmin": dist.argmin(axis=1),
            "decide deletion": del_u < dist.min(axis=3) * 0.5,
            "decide insertion": ins_v < dist.min(axis=1) * 0.5}


def one_step(model, graphs, labels, encode=enc.forward,
             table=training.TrainedModel.distance_table) -> dict[str, np.ndarray]:
    """The numbers of one `training.train` step for `model`'s parameters and
    proxies and one batch, with `encode` in place of `encoder.forward` and
    `table(model, nodes)` in place of `TrainedModel.distance_table`.

    Keys starting with "decide" hold discrete decisions: the table argmins,
    the graph table's choices (`table_decisions`), each transport plan's
    argmax slots and Sinkhorn's convergence flags. The rest are floats: the
    loss, the distance table, the encoder's and the cost head's gradient
    buffers and the proxies after both of the step's updates. `model`'s
    proxies are left as they were; its gradient buffers hold the step's
    gradients."""
    cfg, params, head = model.config, model.params, model.cost_head
    model = replace(model, proxies=dict(model.proxies), proxy_vectors=dict(model.proxy_vectors))
    plans = []
    with recorded_sinkhorn(plans):
        nodes = encode(params, graphs, True)
        label_arr = np.asarray(labels)
        by_class = {int(cid): nodes.value[label_arr == cid] for cid in np.unique(label_arr)}
        known = model.class_ids()
        training._update_proxies(model, {cid: x for cid, x in by_class.items() if cid not in known},
                                 cfg, 0.0)
        ids = model.class_ids()
        dist = table(model, nodes)
        loss = training._anchor_loss_var(dist, labels, ids, cfg.anchor)
        params.zero_grads()
        head.zero_grads()
        ad.backward(loss, np.asarray(1.0))
        record = {"loss": loss.value, "table": dist.value,
                  "decide table argmin": dist.value.argmin(axis=1)}
        ab = cfg.ablations
        if ab.proxy_as_graph and ab.transitivity_recovery:
            record.update(table_decisions(nodes.value, training._proxy_targets(model, ids),
                                          model.proxies[ids[0]].num_slots, head))
        training._update_proxies(model, by_class, cfg, cfg.proxy_momentum)
    # one entry per parameter store: layer 0's P gradient is a near-cancelling
    # sum over pairs (rounding noise alone under uniform input weights), so
    # it is held to the scale of the whole encoder gradient
    record["grad encoder"] = params.grad_buffer.copy()
    record["grad cost head"] = head.grad_buffer.copy()
    record.update((f"proxy {cid}", p.node_centroids) for cid, p in model.proxies.items())
    record.update((f"proxy vector {cid}", v) for cid, v in model.proxy_vectors.items())
    record["decide plan argmax"] = np.concatenate([r.plan.argmax(axis=1) for r in plans]
                                                  or [np.zeros(0, dtype=int)])
    record["decide sinkhorn converged"] = np.array([r.converged for r in plans])
    return record


def assert_steps_agree(got: dict, ref: dict, rtol: float = 1e-12) -> None:
    """Equal decisions, and every float entry within rtol of `ref`'s:
    max |got - ref| <= rtol * max |ref|."""
    assert got.keys() == ref.keys()
    for key, expect in ref.items():
        if key.startswith("decide"):
            np.testing.assert_array_equal(got[key], expect, err_msg=key)
        else:
            err = np.abs(np.asarray(got[key]) - expect).max(initial=0.0)
            assert err <= rtol * np.abs(expect).max(initial=0.0), (key, err)


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
    """`pair_matrix` of (..., M, 1) pair values as a gather, a reshape and
    a product with the off-diagonal mask."""
    gathered = take(u_pair, pair_gather(n), axis=u_pair.value.ndim - 2)
    return mul(reshape(gathered, u_pair.shape[:-2] + (n, n)), 1.0 - np.eye(n))


def concat(vs: list[Var], axis: int) -> Var:
    """Tape node joining Vars along one axis; the concat-form encoder's edge update."""
    sizes = [v.value.shape[axis] for v in vs]

    def bk(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))
    return node(np.concatenate([v.value for v in vs], axis=axis), tuple(vs), bk)


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
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    emb = emb / np.where(norms == 0, 1.0, norms)
    weights = np.ones(num_pairs(emb.shape[0]))
    if not uniform:
        i, j = upper_pairs(emb.shape[0])
        local = i != 0
        dot = np.abs(np.matmul(emb[i[local], None, :], emb[j[local], :, None])[:, 0, 0])
        inv = np.divide(1.0, dot, out=np.full_like(dot, np.inf), where=dot != 0)
        weights[local] = np.minimum(inv, cfg.weight_cap)
    return ViewGraph(emb, weights, label=label)


def argmin_min(value: np.ndarray, axis: int) -> np.ndarray:
    """`reduce_min`'s value read at the recorded argmin."""
    arg = value.argmin(axis=axis)
    return np.take_along_axis(value, np.expand_dims(arg, axis), axis=axis).squeeze(axis)


def loop_sinkhorn(cost, row_marginals, col_marginals, cfg) -> SinkhornResult:
    """`proxies.sinkhorn` building the plan at every residual and returning
    the last one, with K v computed afresh for each residual and each row
    update. The stop rule is the same: both marginals before the first
    update, then the rows' max|u * (K v) - a|."""
    cost = np.asarray(cost, dtype=np.float64)
    a = np.asarray(row_marginals, dtype=np.float64)
    b = np.asarray(col_marginals, dtype=np.float64)
    eps = cfg.entropic_regularizer
    k = np.exp(-(cost - cost.min(axis=1, keepdims=True)) / eps)
    rows_on = a > 0
    cols_on = b > 0
    u = np.where(rows_on, 1.0, 0.0)
    v = np.where(cols_on, 1.0, 0.0)

    def residual(u, v, both):
        plan = u[:, None] * k * v[None, :]
        res = np.abs(u * (k @ v) - a).max()
        if both:
            res = max(res, np.abs(v * (k.T @ u) - b).max())
        return res, plan

    it = 0
    res, plan = residual(u, v, True)
    while res > cfg.marginal_tol and it < cfg.max_iters:
        kv = k @ v
        u = np.where(rows_on, a / np.where(kv > 0, kv, 1.0), 0.0)
        ku = k.T @ u
        v = np.where(cols_on, b / np.where(ku > 0, ku, 1.0), 0.0)
        it += 1
        res, plan = residual(u, v, False)
    return SinkhornResult(plan, it, float(res), res <= cfg.marginal_tol)


def loop_anchor_loss(distances, labels, class_ids, cfg) -> tuple[float, np.ndarray]:
    """`proxies.proxy_anchor_loss` with one log-sum pass per class and term,
    each over the rows it sums only."""
    h = np.asarray(distances, dtype=np.float64)
    col_of = {c: idx for idx, c in enumerate(class_ids)}
    pos_mask = np.zeros_like(h, dtype=bool)
    for r, lbl in enumerate(labels):
        pos_mask[r, col_of[int(lbl)]] = True
    pos_cols = np.flatnonzero(pos_mask.any(axis=0))
    s, delta = cfg.scale, cfg.margin
    grad = np.zeros_like(h)
    loss = 0.0

    def logsum_softmax(expo: np.ndarray):
        mx = max(0.0, float(expo.max()))
        ex = np.exp(expo - mx)
        z = np.exp(-mx) + ex.sum()
        return mx + np.log(z), ex / z

    for c in pos_cols:
        rows = np.flatnonzero(pos_mask[:, c])
        lval, w = logsum_softmax(s * (h[rows, c] + delta))
        loss += lval / pos_cols.size
        grad[rows, c] += s * w / pos_cols.size
    for c in range(h.shape[1]):
        rows = np.flatnonzero(~pos_mask[:, c])
        if rows.size == 0:
            continue
        lval, w = logsum_softmax(-s * (h[rows, c] - delta))
        loss += lval / h.shape[1]
        grad[rows, c] += -s * w / h.shape[1]
    return float(loss), grad


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v if norm == 0 else v / norm


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    return _unit(rng.standard_normal(n))


def loop_generate(cfg: SynthConfig) -> SynthDataset:
    """`synth.generate` one view at a time: every draw followed by its own
    arithmetic."""
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.feature_dim, cfg.views_per_instance
    concepts = [
        np.stack([_random_unit(rng, n) for _ in range(cfg.concept_count_per_class)])
        for _ in range(cfg.num_classes)
    ]
    noisy_count = k - round((1.0 - cfg.noise_rate) * k)

    instances = []
    for c in range(cfg.num_classes):
        for _ in range(cfg.instances_per_class):
            assign = rng.integers(0, cfg.concept_count_per_class, size=k)
            if cfg.noise_model is NoiseModel.UNIFORM_WHOLE_IMAGE:
                noisy = rng.random(k) < cfg.noise_rate
            else:
                noisy = np.zeros(k, dtype=bool)
                noisy[rng.permutation(k)[:noisy_count]] = True
            clean = ~noisy

            if clean.any():
                g_dir = _unit(concepts[c][assign[clean]].mean(axis=0))
            else:
                g_dir = _random_unit(rng, n)
            z_g = g_dir + cfg.noise_scale * rng.standard_normal(n)

            locals_ = np.empty((k, n))
            source = np.full(k, c, dtype=int)
            for v in range(k):
                if clean[v]:
                    locals_[v] = concepts[c][assign[v]] + cfg.noise_scale * rng.standard_normal(n)
                elif cfg.noise_model is NoiseModel.CAUSAL_INTERVENTION and cfg.num_classes > 1:
                    others = [d for d in range(cfg.num_classes) if d != c]
                    donor = others[rng.integers(0, len(others))]
                    didx = rng.integers(0, cfg.concept_count_per_class)
                    locals_[v] = concepts[donor][didx] + cfg.noise_scale * rng.standard_normal(n)
                    source[v] = donor
                else:
                    locals_[v] = _random_unit(rng, n)
                    source[v] = -1
            instances.append(SynthInstance(c, z_g, locals_, clean, source))
    return SynthDataset(cfg, instances)


def ground_truth_emergence(inst: SynthInstance, subset) -> float:
    """Cosine of the global view with the subset mean, mapped to [0, 1].

    A monotone surrogate from the known generative model, not a calibrated
    mutual-information value.
    """
    idx = sorted(set(int(v) for v in subset))
    if not idx:
        raise ValueError("subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= inst.local_embeddings.shape[0]:
        raise IndexError("subset index out of range")
    m = inst.local_embeddings[idx].mean(axis=0)
    denom = np.linalg.norm(m) * np.linalg.norm(inst.global_embedding)
    cos = 0.0 if denom == 0 else float(inst.global_embedding @ m / denom)
    return 0.5 * (1.0 + cos)
