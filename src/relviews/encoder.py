"""Graph-attention encoder mapping input view graphs to relevance graphs.

Multi-head attention over the complete graph with an edge channel in the
logits, graph-level normalization between layers, and a learned edge update
so the output graph carries both node and edge embeddings.

Hidden layers concatenate heads; the final layer averages full-width heads
and is left unnormalized so its output scale is free to contract.

`forward` takes a list of graphs with the same node count N and runs each
layer once for the whole batch of B graphs, all heads fused: the heads'
W, a and P are stored stacked on a leading head axis, so one broadcasting
matmul computes every graph's and head's W h, and the attention is one
(B, H, N, N) softmax. Every graph of the batch gets exactly the values a
batch of one would give it. `GatParams` is a flat parameter store
(`autodiff.FlatParams`): each head-stacked tensor is one stored tensor.

The returned tape holds the batch's output node and edge Vars, (B, N,
hidden) and (B, N(N-1)/2, hidden), the latter None after a node-only pass
(see `forward`); per layer, one leaf Var per stored (head-stacked) tensor,
keyed like the LayerParams fields; and the attention coefficients as one
(B, H, N, N) array per layer: graph b's coefficients are `[layer][b]`,
indexed `[head]`. After a backward pass from the outputs,
`EncoderTape.accumulate` hands the leaves to `GatParams.accumulate`.

The edge channel has M = N(N-1)/2 rows per graph against N node rows, so
it is computed in factored form. A head's edge logit (e P) a_edge is taken
as e (P a_edge): P a_edge is one small product per layer, and each edge
needs one dot product; `ad.pair_matrix` spreads the M edge logits into the
symmetric (B, H, N, N) logit term. The edge update, [z_i || z_j || e] U averaged over
both endpoint orders, is S_i + S_j + e U_edge with U's row blocks U_src,
U_dst, U_edge and S = h (U_src + U_dst) / 2, a node-level product gathered
at both endpoints. Both agree with the unfactored forms up to rounding.
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
    edge_update: bool = True
    norm_eps: float = 1e-5

    def __post_init__(self):
        if self.num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        if self.heads_per_layer < 1:
            raise ConfigError("heads_per_layer must be >= 1")
        if self.hidden_dim % self.heads_per_layer != 0:
            raise ConfigError("hidden_dim must be divisible by heads_per_layer")
        if self.norm_eps <= 0:
            raise ConfigError("norm_eps must be positive")


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
    """Per layer: (node_in, head_dim, edge_in, updates_edges)."""
    dims = []
    node_in, edge_in = in_dim, in_dim
    for li in range(cfg.num_layers):
        final = li == cfg.num_layers - 1
        head_dim = cfg.hidden_dim if final else cfg.hidden_dim // cfg.heads_per_layer
        updates = True if final else cfg.edge_update
        dims.append((node_in, head_dim, edge_in, updates))
        node_in = cfg.hidden_dim
        if updates:
            edge_in = cfg.hidden_dim
    return dims


def init_params(cfg: EncoderConfig, in_dim: int, seed: int = 0) -> GatParams:
    """Uniform init scaled by 1/sqrt(fan_in); norm scales start at identity."""
    rng = np.random.default_rng(seed)
    layers = []
    for li, (node_in, head_dim, edge_in, updates) in enumerate(_layer_dims(cfg, in_dim)):
        final = li == cfg.num_layers - 1
        W, a, P = (np.stack([ad.fan_in_uniform(rng, shape) for _ in range(cfg.heads_per_layer)])
                   for shape in ((node_in, head_dim), (3 * head_dim,), (edge_in, head_dim)))
        layer = LayerParams(W=W, a=a, P=P)
        if not final:
            layer.norm_mean_scale = np.ones(cfg.hidden_dim)
            layer.norm_scale = np.ones(cfg.hidden_dim)
            layer.norm_shift = np.zeros(cfg.hidden_dim)
        if updates:
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


@dataclass
class EncoderTape:
    """Handles for backward plus recorded attention coefficients."""
    params: GatParams
    param_vars: list[dict[str, Var]]     # per layer: LayerParams field -> leaf Var
    node_out: Var                        # (B, N, hidden)
    edge_out: Var | None                 # (B, N(N-1)/2, hidden); None if node-only
    attention: list[np.ndarray]          # per layer: (B, H, N, N)

    def accumulate(self) -> None:
        """Hand the leaves' gradients of a finished backward pass to `params`."""
        self.params.accumulate([v for pv in self.param_vars for v in pv.values() if v is not None])


def _graphnorm(h: Var, mean_scale: Var, scale: Var, shift: Var, eps: float) -> Var:
    """Per-graph normalization over the node axis of a (B, N, hidden) stack."""
    mu = ad.vmean(h, axis=1, keepdims=True)
    shifted = h - mu * mean_scale
    var = ad.vmean(ad.square(shifted), axis=1, keepdims=True)
    return shifted / ad.sqrt(var + eps) * scale + shift


def forward(params: GatParams, graphs: list[ViewGraph], want_grad: bool = True,
            node_only: bool = False) -> tuple[list[ViewGraph] | None, EncoderTape]:
    """Propagate a batch of same-size graphs through all attention layers.

    Per layer and head: logits from [W h_i || W h_j || P f_ij] through a
    LeakyReLU, softmax over the other nodes, weighted aggregation; heads are
    concatenated (hidden) or averaged (final). Edge features are refreshed by
    the layer's update map when enabled, and always after the final layer,
    through a softplus so their norms stay non-negative. Returns one output
    graph per input graph, in order, and the batch's tape.

    The final layer's edges feed only the proxies' edge centroids and the
    explanations; the distance to a proxy reads node embeddings alone. So
    `node_only=True` skips the final edge update and the output graphs and
    returns (None, tape) with `tape.edge_out` None; `tape.node_out` holds
    exactly the values of the full pass.
    """
    cfg = params.config
    n = graphs[0].num_views
    for g in graphs:
        if g.feature_dim != params.in_dim:
            raise ConfigError(f"graph feature dim {g.feature_dim} != params in_dim {params.in_dim}")
        if g.num_views != n:
            raise ValueError(f"graphs in one batch must share a node count: {g.num_views} != {n}")
    nodes = np.stack([g.node_features for g in graphs])
    edges = np.stack([g.edge_features for g in graphs])
    if not (np.isfinite(nodes).all() and np.isfinite(edges).all()):
        raise NumericError("non-finite values in input graph (layer 0)")

    b, heads = len(graphs), cfg.heads_per_layer
    idx_i, idx_j = upper_pairs(n)
    offdiag, diag_neg = _diag_masks(n)
    pvars = params.by_layer(params.leaves(want_grad))

    h: Var = ad.constant(nodes)                                      # (B, N, d)
    e: Var = ad.constant(edges)                                      # (B, M, d_e)
    attention: list[np.ndarray] = []

    for li, (node_in, head_dim, edge_in, updates) in enumerate(_layer_dims(cfg, params.in_dim)):
        final = li == cfg.num_layers - 1
        pv = pvars[li]
        Wh = ad.matmul(ad.reshape(h, (b, 1, n, node_in)), pv["W"])  # (B, H, N, hd)
        a_src, a_dst, a_edge = (
            ad.reshape(ad.take(pv["a"], np.arange(part * head_dim, (part + 1) * head_dim), axis=1),
                       (heads, head_dim, 1)) for part in range(3))
        s = ad.matmul(Wh, a_src)                                     # (B, H, N, 1)
        t = ad.reshape(ad.matmul(Wh, a_dst), (b, heads, 1, n))       # (B, H, 1, N)
        pa = ad.matmul(pv["P"], a_edge)                              # (H, d_e, 1)
        u_pair = ad.matmul(ad.reshape(e, (b, 1, num_pairs(n), edge_in)), pa)  # (B, H, M, 1)
        u_mat = ad.pair_matrix(u_pair, idx_i, idx_j, n)              # (B, H, N, N)
        logits = ad.leaky_relu(s + t + u_mat, cfg.leaky_slope) + diag_neg
        rowmax = logits.value.max(axis=-1, keepdims=True)            # detached shift
        ex = ad.exp(logits - rowmax) * offdiag
        alpha = ex / ad.vsum(ex, axis=-1, keepdims=True)             # (B, H, N, N)
        attention.append(alpha.value)
        head_out = ad.matmul(alpha, Wh)                              # (B, H, N, hd)

        if final:
            h = ad.vsum(head_out, axis=1) * (1.0 / heads)
        else:
            h = ad.reshape(ad.transpose(head_out, (0, 2, 1, 3)), (b, n, heads * head_dim))
            h = _graphnorm(h, pv["norm_mean_scale"], pv["norm_scale"],
                           pv["norm_shift"], cfg.norm_eps)
        if not np.isfinite(h.value).all():
            raise NumericError(f"non-finite node features after layer {li}")

        if updates and not (final and node_only):
            # [z_i || z_j || e] U averaged over both endpoint orders, so the
            # update is well defined on unordered pairs (keeps permutation
            # equivariance): S_i + S_j + e U_edge with S = h (U_src + U_dst) / 2.
            # Each row of U is taken once, so its gradient is exact.
            hd = cfg.hidden_dim
            u_src, u_dst, u_edge = (
                ad.take(pv["edge_U"], np.arange(lo, hi), axis=0)
                for lo, hi in ((0, hd), (hd, 2 * hd), (2 * hd, 2 * hd + edge_in)))
            S = ad.matmul(h, (u_src + u_dst) * 0.5)                  # (B, N, hidden)
            e = ad.softplus(ad.take(S, idx_i, axis=1) + ad.take(S, idx_j, axis=1)
                            + ad.matmul(e, u_edge))
            if not np.isfinite(e.value).all():
                raise NumericError(f"non-finite edge features after layer {li}")

    if node_only:
        return None, EncoderTape(params, pvars, h, None, attention)
    outs = [ViewGraph(h.value[i], e.value[i], label=g.label) for i, g in enumerate(graphs)]
    return outs, EncoderTape(params, pvars, h, e, attention)


def distinguishability(embeddings) -> float:
    """Mean L2 distance over all unordered pairs of node embeddings."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two embeddings")
    diff = x[:, None, :] - x[None, :, :]
    d = np.sqrt(np.square(diff).sum(axis=-1))
    iu = np.triu_indices(x.shape[0], k=1)
    return float(d[iu].mean())
