"""Graph-attention encoder mapping input view graphs to node embeddings.

Multi-head attention over the complete graph with an edge channel in the
logits, graph-level normalization between layers, and a learned edge update
in every hidden layer; the final layer outputs node embeddings only.

Hidden layers concatenate heads; the final layer averages full-width heads
and is left unnormalized so its output scale is free to contract.

`forward` takes a list of graphs with the same node count N and runs each
layer once for the whole batch of B graphs, all heads fused: the heads'
W, a and P are stored stacked on a leading head axis, so one broadcasting
matmul computes every graph's and head's W h, and the attention is one
(B, H, N, N) softmax. Every graph of the batch gets exactly the values a
batch of one would give it. `GatParams` is a flat parameter store
(`autodiff.FlatParams`): each head-stacked tensor is one stored tensor.

Input edges are (M,) weights, M = N(N-1)/2, each copied across layer 0's
`in_dim`-wide edge channel, so that channel is rank 1: layer 0's P rows and
U_edge rows act only through their column sums, and every row of layer 0's
P gradient is equal. A width-1 channel would draw other initial values.

The edge channel has M rows per graph against N node rows, so
it is computed in factored form. A head's edge logit (e P) a_edge is taken
as e (P a_edge): P a_edge is one small product per layer, and each edge
needs one dot product, spread into the symmetric (B, H, N, N) logit term.
The edge update, [z_i || z_j || e] U averaged over both endpoint orders, is
S_i + S_j + e U_edge with U's row blocks U_src, U_dst, U_edge and
S = h (U_src + U_dst) / 2, a node-level product gathered at both
endpoints. Both agree with the unfactored forms up to rounding.

The encoder is one node of the autodiff tape. The forward runs in plain
numpy and returns the (B, N, hidden) output as one Var with no parents;
its backward fn adds every encoder gradient into `params.grad_buffer`.
Without `want_grad` it returns the array and keeps no `_Saved` record: a
layer's attention arrays die with `_attend`'s frame before the edge update,
whose input edges are dropped once read and whose softplus runs in place on
its own x and exp(-|x|), so it makes no fresh (B, M, hidden) output. With
`want_grad` the forward keeps, per layer, the arrays its backward reads
(`_Saved`): the node and edge inputs, W h, P a_edge, the LeakyReLU's sign
mask, the attention α, the GraphNorm mean, standard deviation and
normalized nodes, and the edge update's layer output, softplus input x
and exp(-|x|). The backward runs the layers in reverse with these closed
forms:
- edge update: g_x = g_e σ(x), σ from the stored exp(-|x|); S takes g_x at
  both endpoints through one (N, M) incidence product, and U's row blocks
  take h^T g_S / 2 (U_src, U_dst) and e^T g_x (U_edge);
- GraphNorm y = x̂ scale + shift, x̂ = (z - μ mean_scale) / σ:
  g_(z - μ mean_scale) = (g_x̂ - x̂ mean_N(g_x̂ x̂)) / σ, with g_x̂ = g_y scale;
- attention: g_logits = α ⊙ (g_α - Σ_j g_α α), times the LeakyReLU's
  slope where its input was not positive; s and t take its row and column
  sums, and each pair's edge logit g[i, j] + g[j, i];
- W, a and P take their batch-summed gradient from one matrix product
  each, and the edge input's gradient contracts the head axis in one.
Gradients agree with the tape form to rounding (`tests.helpers.tape_forward`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, NumericError
from .graphs import ViewGraph, num_pairs, upper_pairs

_NEG = -1e30


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 2
    heads_per_layer: int = 4
    hidden_dim: int = 32
    leaky_slope: float = 0.2
    norm_eps: float = 1e-5

    def __post_init__(self):
        if self.num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        if self.heads_per_layer < 1:
            raise ConfigError("heads_per_layer must be >= 1")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        if self.hidden_dim % self.heads_per_layer != 0:
            raise ConfigError("hidden_dim must be divisible by heads_per_layer")
        if self.norm_eps <= 0:
            raise ConfigError("norm_eps must be positive")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ConfigError("leaky_slope must lie in [0, 1]")


@dataclass
class LayerParams:
    W: np.ndarray                        # (heads, in_dim, head_dim)
    a: np.ndarray                        # (heads, 3*head_dim): source, target, edge parts
    P: np.ndarray                        # (heads, edge_in, head_dim)
    norm_mean_scale: np.ndarray | None = None   # (hidden_dim,)
    norm_scale: np.ndarray | None = None
    norm_shift: np.ndarray | None = None
    # (2*hidden_dim + edge_in, hidden_dim); row blocks U_src, U_dst, U_edge
    # weigh the source node, the target node and the edge
    edge_U: np.ndarray | None = None


@dataclass
class GatParams(ad.FlatParams):
    """Encoder tensors in one flat parameter store.

    Each LayerParams field that is not None is one stored tensor, in layer
    and field order, and the layers' fields are its views of `buffer`.
    `named_tensors` and `grads` name one view per head of the head-stacked
    W, a and P."""
    config: EncoderConfig
    in_dim: int
    layers: list[LayerParams]

    def __post_init__(self):
        super().__init__([arr for layer in self.layers
                          for arr in vars(layer).values() if arr is not None])
        for layer, views in zip(self.layers, self.by_layer(self.tensors)):
            vars(layer).update(views)

    def by_layer(self, flat: list) -> list[dict]:
        """`flat`, one entry per stored tensor, as one dict per layer keyed
        like the LayerParams fields, None where a layer has no such tensor."""
        items = iter(flat)
        return [{key: None if arr is None else next(items) for key, arr in vars(layer).items()}
                for layer in self.layers]

    def _named(self, arrays: list[np.ndarray]) -> list[tuple[str, np.ndarray]]:
        """Fixed, documented order: per layer, per head W/a/P, then norm, then edge map."""
        out = []
        for li, layer in enumerate(self.by_layer(arrays)):
            for hi in range(len(layer["W"])):
                for key in ("W", "a", "P"):
                    out.append((f"layer{li}.head{hi}.{key}", layer[key][hi]))
            if layer["norm_scale"] is not None:
                out.append((f"layer{li}.norm.mean_scale", layer["norm_mean_scale"]))
                out.append((f"layer{li}.norm.scale", layer["norm_scale"]))
                out.append((f"layer{li}.norm.shift", layer["norm_shift"]))
            if layer["edge_U"] is not None:
                out.append((f"layer{li}.edge_update", layer["edge_U"]))
        return out


def _layer_dims(cfg: EncoderConfig, in_dim: int):
    """Per layer: (node_in, head_dim, edge_in); hidden layers output hidden_dim-wide edges."""
    dims = []
    node_in, edge_in = in_dim, in_dim
    for li in range(cfg.num_layers):
        final = li == cfg.num_layers - 1
        head_dim = cfg.hidden_dim if final else cfg.hidden_dim // cfg.heads_per_layer
        dims.append((node_in, head_dim, edge_in))
        node_in = edge_in = cfg.hidden_dim
    return dims


def init_params(cfg: EncoderConfig, in_dim: int, seed: int = 0) -> GatParams:
    """Uniform init scaled by 1/sqrt(fan_in); norm scales start at identity."""
    rng = np.random.default_rng(seed)
    layers = []
    for li, (node_in, head_dim, edge_in) in enumerate(_layer_dims(cfg, in_dim)):
        W, a, P = (np.stack([ad.fan_in_uniform(rng, shape) for _ in range(cfg.heads_per_layer)])
                   for shape in ((node_in, head_dim), (3 * head_dim,), (edge_in, head_dim)))
        layer = LayerParams(W=W, a=a, P=P)
        if li < cfg.num_layers - 1:
            layer.norm_mean_scale = np.ones(cfg.hidden_dim)
            layer.norm_scale = np.ones(cfg.hidden_dim)
            layer.norm_shift = np.zeros(cfg.hidden_dim)
            layer.edge_U = ad.fan_in_uniform(rng, (2 * cfg.hidden_dim + edge_in, cfg.hidden_dim))
        layers.append(layer)
    return GatParams(cfg, in_dim, layers)


@lru_cache(maxsize=128)
def _diag_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(off-diagonal ones, _NEG on the diagonal) for N nodes, read-only."""
    masks = (1.0 - np.eye(n), np.where(np.eye(n) > 0, _NEG, 0.0))
    for mask in masks:
        mask.flags.writeable = False
    return masks


@lru_cache(maxsize=128)
def _pair_of_cell(n: int) -> np.ndarray:
    """(N*N,) pair row of each cell of an (N, N) matrix, both orders of a
    pair alike, read-only; the diagonal points at row M, one past the pairs."""
    idx_i, idx_j = upper_pairs(n)
    rows = np.full((n, n), num_pairs(n), dtype=np.intp)
    rows[idx_i, idx_j] = rows[idx_j, idx_i] = np.arange(num_pairs(n))
    rows = rows.ravel()
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=128)
def _incidence(n: int) -> np.ndarray:
    """(N, M) endpoint incidence of the pairs of N nodes, read-only: column r
    holds ones at both endpoints of pair r."""
    idx_i, idx_j = upper_pairs(n)
    inc = np.zeros((n, num_pairs(n)))
    inc[idx_i, np.arange(num_pairs(n))] = 1.0
    inc[idx_j, np.arange(num_pairs(n))] = 1.0
    inc.flags.writeable = False
    return inc


@dataclass
class _Saved:
    """The arrays of one layer's forward that its backward reads."""
    h_in: np.ndarray                     # (B, N, node_in) node input
    e_in: np.ndarray                     # (B, M, edge_in) edge input
    Wh: np.ndarray                       # (B, H, N, hd)
    pa: np.ndarray                       # (H, edge_in, 1): P a_edge
    positive: np.ndarray                 # (B, H, N, N): LeakyReLU input > 0
    alpha: np.ndarray                    # (B, H, N, N) attention
    mu: np.ndarray | None = None         # GraphNorm (B, 1, hidden): node mean
    std: np.ndarray | None = None        # (B, 1, hidden): sqrt(var + eps)
    xhat: np.ndarray | None = None       # (B, N, hidden): normalized nodes
    h_out: np.ndarray | None = None      # edge update (B, N, hidden): layer output
    x: np.ndarray | None = None          # (B, M, hidden): softplus input
    z: np.ndarray | None = None          # (B, M, hidden): exp(-|x|)


def forward(params: GatParams, graphs: list[ViewGraph], want_grad: bool = True):
    """Propagate a batch of same-size graphs through all attention layers.

    Per layer and head: logits from [W h_i || W h_j || P f_ij] through a
    LeakyReLU, softmax over the other nodes, weighted aggregation; heads are
    concatenated (hidden) or averaged (final). f_ij starts as the edge
    weight; each hidden layer refreshes it through a softplus, so it stays
    non-negative. Returns the final node embeddings, (B, N, hidden) in
    input order: with `want_grad` as one Var, whose backward adds the
    gradient of every encoder tensor into `params.grad_buffer`, else as an
    array.
    """
    cfg = params.config
    n = graphs[0].num_views
    for g in graphs:
        if g.feature_dim != params.in_dim:
            raise ConfigError(f"graph feature dim {g.feature_dim} != params in_dim {params.in_dim}")
        if g.num_views != n:
            raise ValueError(f"graphs in one batch must share a node count: {g.num_views} != {n}")
    h = np.stack([g.node_features for g in graphs])                 # (B, N, d)
    weights = np.stack([g.edge_weights for g in graphs])            # (B, M)
    if not (np.isfinite(h).all() and np.isfinite(weights).all()):
        raise NumericError("non-finite values in input graph (layer 0)")

    idx_i, idx_j = upper_pairs(n)
    saved: list[_Saved] = []
    # each weight w enters layer 0's edge_in = in_dim wide channel as the
    # contiguous row w * 1, so P, edge_U and their BLAS calls keep their shapes
    e = np.repeat(weights[..., None], params.in_dim, axis=2)        # (B, M, d_e)

    for li, (_, head_dim, _) in enumerate(_layer_dims(cfg, params.in_dim)):
        final = li == cfg.num_layers - 1
        lp = params.layers[li]
        h, keep = _attend(cfg, lp, h, e, head_dim, final, want_grad)
        if want_grad:
            saved.append(keep)
        if not np.isfinite(h).all():
            raise NumericError(f"non-finite node features after layer {li}")

        if not final:
            # [z_i || z_j || e] U averaged over both endpoint orders, so the
            # update is well defined on unordered pairs (keeps permutation
            # equivariance): S_i + S_j + e U_edge with S = h (U_src + U_dst) / 2.
            hd = cfg.hidden_dim
            S = h @ ((lp.edge_U[:hd] + lp.edge_U[hd:2 * hd]) * 0.5)  # (B, N, hidden)
            # (B, M, hidden) arrays are updated in place: each fresh one of
            # that size can cost a round of page faults
            x = np.take(S, idx_i, axis=1)
            x += np.take(S, idx_j, axis=1)
            x += e @ lp.edge_U[2 * hd:]
            e = None                     # read for the last time; a backward reads keep.e_in
            z = np.abs(x)
            np.exp(np.negative(z, out=z), out=z)
            if want_grad:
                keep.h_out, keep.x, keep.z = h, x, z
            # softplus; without a backward it overwrites x and z, which
            # nothing reads again
            e = np.maximum(x, 0.0, out=None if want_grad else x)
            e += np.log1p(z, out=None if want_grad else z)
            if not np.isfinite(e).all():
                raise NumericError(f"non-finite edge features after layer {li}")

    if not want_grad:
        return h

    def bk(g):
        _backward(params, saved, g)
        return ()
    return Var(h, requires_grad=True, backward=bk)


def _attend(cfg: EncoderConfig, lp: LayerParams, h: np.ndarray, e: np.ndarray,
            head_dim: int, final: bool, want_grad: bool):
    """A layer's attention, then its heads' mean (final) or concatenation and
    GraphNorm: (B, N, hidden) nodes, and the `_Saved` record or None."""
    (b, n, node_in), (_, m, edge_in), heads = h.shape, e.shape, cfg.heads_per_layer
    Wh = h.reshape(b, 1, n, node_in) @ lp.W                          # (B, H, N, hd)
    a_src, a_dst, a_edge = (lp.a[:, part * head_dim:(part + 1) * head_dim]
                            .reshape(heads, head_dim, 1) for part in range(3))
    s = Wh @ a_src                                                   # (B, H, N, 1)
    t = (Wh @ a_dst).reshape(b, heads, 1, n)                         # (B, H, 1, N)
    pa = lp.P @ a_edge                                               # (H, d_e, 1)
    u_pair = np.zeros((b, heads, m + 1))                             # (B, H, M + 1)
    u_pair[..., :m] = (e.reshape(b, 1, m, edge_in) @ pa)[..., 0]
    pre = s + t                                                      # (B, H, N, N)
    # each pair's edge logit at both of its cells, +0.0 on the diagonal
    pre += np.take(u_pair, _pair_of_cell(n), axis=-1).reshape(b, heads, n, n)
    positive = pre > 0 if want_grad else None
    # the logits and the softmax are updated in place: fewer fresh arrays;
    # with a slope in [0, 1] the LeakyReLU is max(slope x, x)
    logits = cfg.leaky_slope * pre
    np.maximum(logits, pre, out=logits)
    del pre
    offdiag, diag_neg = _diag_masks(n)
    logits += diag_neg
    logits -= logits.max(axis=-1, keepdims=True)
    alpha = np.exp(logits, out=logits)
    alpha *= offdiag
    alpha /= alpha.sum(axis=-1, keepdims=True)                       # (B, H, N, N)
    head_out = alpha @ Wh                                            # (B, H, N, hd)
    keep = _Saved(h, e, Wh, pa, positive, alpha) if want_grad else None
    if final:
        return head_out.sum(axis=1) * (1.0 / heads), keep
    cat = head_out.transpose(0, 2, 1, 3).reshape(b, n, heads * head_dim)
    mu = cat.mean(axis=1, keepdims=True)
    shifted = cat - mu * lp.norm_mean_scale
    std = np.sqrt((shifted * shifted).mean(axis=1, keepdims=True) + cfg.norm_eps)
    xhat = shifted / std
    if want_grad:
        keep.mu, keep.std, keep.xhat = mu, std, xhat
    return xhat * lp.norm_scale + lp.norm_shift, keep


def _backward(params: GatParams, saved: list[_Saved], g_h: np.ndarray) -> None:
    """Add the encoder's parameter gradients, from the upstream gradient
    `g_h` of its (B, N, hidden) output, into `params.grad_buffer`."""
    cfg = params.config
    heads, slope, hid = cfg.heads_per_layer, cfg.leaky_slope, cfg.hidden_dim
    grads = params.by_layer(params.tensor_grads)
    g_e = None                           # gradient of the layer's edge output
    for li in reversed(range(len(saved))):
        sv, lp, grad = saved[li], params.layers[li], grads[li]
        b, _, n, hd = sv.Wh.shape
        node_in, edge_in = sv.h_in.shape[2], sv.e_in.shape[2]
        # every edge input but layer 0's, the input weights, is a hidden layer's output
        edge_grad = li > 0
        g_e_in = None

        if sv.x is not None:
            # softplus: g_x = g_e sigmoid(x); S_i + S_j takes g_x at both endpoints
            g_x = ad._sigmoid(sv.x, sv.z)
            g_x *= g_e                                               # (B, M, hidden)
            g_S = _incidence(n) @ g_x                                # (B, N, hidden)
            u_sd = (lp.edge_U[:hid] + lp.edge_U[hid:2 * hid]) * 0.5
            g_h = g_h + g_S @ u_sd.T
            g_sd = 0.5 * (sv.h_out.reshape(-1, hid).T @ g_S.reshape(-1, hid))
            grad["edge_U"][:hid] += g_sd
            grad["edge_U"][hid:2 * hid] += g_sd
            grad["edge_U"][2 * hid:] += sv.e_in.reshape(-1, edge_in).T @ g_x.reshape(-1, hid)
            if edge_grad:
                g_e_in = g_x @ lp.edge_U[2 * hid:].T

        if sv.xhat is None:
            g_ho = np.broadcast_to((g_h * (1.0 / heads))[:, None], (b, heads, n, hd))
        else:
            grad["norm_shift"] += g_h.sum(axis=(0, 1))
            grad["norm_scale"] += (g_h * sv.xhat).sum(axis=(0, 1))
            g_xhat = g_h * lp.norm_scale
            g_shifted = (g_xhat - sv.xhat * (g_xhat * sv.xhat).mean(axis=1, keepdims=True)) / sv.std
            g_sum = g_shifted.sum(axis=1)                            # (B, hidden)
            grad["norm_mean_scale"] -= (sv.mu[:, 0] * g_sum).sum(axis=0)
            g_z = g_shifted - lp.norm_mean_scale * (g_sum[:, None] / n)
            g_ho = g_z.reshape(b, n, heads, hd).transpose(0, 2, 1, 3)

        # aggregation and softmax; the row max is a detached shift
        g_alpha = g_ho @ sv.Wh.swapaxes(-1, -2)                      # (B, H, N, N)
        g_Wh = sv.alpha.swapaxes(-1, -2) @ g_ho                      # (B, H, N, hd)
        g_pre = g_alpha
        g_pre -= (g_alpha * sv.alpha).sum(axis=-1, keepdims=True)
        g_pre *= sv.alpha
        np.multiply(g_pre, slope, out=g_pre, where=~sv.positive)
        # s_i + t_j + u_ij: s and t take row and column sums, u both orders of a pair
        idx_i, idx_j = upper_pairs(n)
        g_st = np.stack([g_pre.sum(axis=-1), g_pre.sum(axis=-2)], axis=-1)   # (B, H, N, 2)
        g_u = (g_pre[..., idx_i, idx_j] + g_pre[..., idx_j, idx_i]).transpose(0, 2, 1)

        a_parts = lp.a.reshape(heads, 3, hd)
        g_Wh = g_Wh + g_st @ a_parts[:, :2]
        by_head = sv.Wh.transpose(1, 0, 2, 3).reshape(heads, b * n, hd)
        grad["a"][:, :2 * hd] += (g_st.transpose(1, 3, 0, 2).reshape(heads, 2, b * n)
                                  @ by_head).reshape(heads, 2 * hd)
        # edge logits e (P a_edge): the head axis is contracted in one product
        g_pa = sv.e_in.reshape(-1, edge_in).T @ g_u.reshape(-1, heads)       # (d_e, H)
        grad["P"] += g_pa.T[:, :, None] * a_parts[:, 2, None, :]
        grad["a"][:, 2 * hd:] += (lp.P.swapaxes(-1, -2) @ g_pa.T[:, :, None])[..., 0]
        if edge_grad:
            g_attn = g_u @ sv.pa[..., 0]                             # (B, M, d_e)
            g_e_in = g_attn if g_e_in is None else np.add(g_e_in, g_attn, out=g_e_in)

        g_flat = g_Wh.transpose(0, 2, 1, 3).reshape(b * n, heads * hd)
        grad["W"] += (sv.h_in.reshape(-1, node_in).T @ g_flat).reshape(
            node_in, heads, hd).transpose(1, 0, 2)
        if li > 0:
            g_h = (g_flat @ lp.W.transpose(0, 2, 1).reshape(heads * hd, node_in)).reshape(
                b, n, node_in)
        g_e = g_e_in


def distinguishability(embeddings) -> float:
    """Mean L2 distance over all unordered pairs of node embeddings."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two embeddings")
    diff = x[:, None, :] - x[None, :, :]
    d = np.sqrt(np.square(diff).sum(axis=-1))
    iu = np.triu_indices(x.shape[0], k=1)
    return float(d[iu].mean())
