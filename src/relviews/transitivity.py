"""Emergence scores, global-view clique counts, gamma resolution, and the
closed-form robustness calculators.

Emergence of a local view is its edge weight to the global view in the
relevance graph, which grows with the cosine of their node embeddings;
`explain` ranks views by it. mACS counts the k-cliques that contain the
global view once every edge weight is thresholded at gamma, which
`TransitivityConfig` fixes or resolves as a quantile of a graph's own edge
weights. The calculators give the paper's topology counts and sample
complexities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import ViewGraph

MAX_CLIQUE_NODES = 64


@dataclass(frozen=True)
class TransitivityConfig:
    """Threshold spec: an absolute value, or a quantile of observed scores."""
    gamma: float | None = None
    gamma_quantile: float = 0.75

    def __post_init__(self):
        if self.gamma is None and not 0.0 < self.gamma_quantile < 1.0:
            raise ConfigError("gamma_quantile must lie in (0, 1)")

    def resolve_rows(self, scores) -> np.ndarray:
        """The threshold of each row of a (B, P) array: `gamma`, or each row's
        `gamma_quantile` quantile, bit-identical to numpy's linear method up
        to the sign of a zero, which follows the order in which the sort
        leaves 0.0 and -0.0.
        Like `np.quantile`, it sorts the row, interpolates between the two
        order statistics around (P - 1) q as a + (b - a) t, or from t = 0.5
        as b - (b - a)(1 - t), and gives NaN for a row holding a NaN."""
        scores = np.asarray(scores, dtype=np.float64)
        if self.gamma is not None:
            return np.full(scores.shape[0], float(self.gamma))
        ranked = np.sort(scores, axis=1)
        last = ranked.shape[1] - 1
        pos = last * self.gamma_quantile
        lo = int(pos)
        # past the last order statistic numpy's weight is pos + 1 on a == b
        t = pos - lo if lo < last else pos + 1.0
        a, b = ranked[:, lo], ranked[:, min(lo + 1, last)]
        out = a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)
        return np.where(np.isnan(ranked[:, last]), ranked[:, last], out)


def emergence_scores(g: ViewGraph) -> np.ndarray:
    """Edge weight of each local view 1..N-1 to the global view (edge weights 0..N-2)."""
    return g.edge_weights[:g.num_views - 1]


def count_k_cliques_with_global(g: ViewGraph, k: int, gamma: float) -> int:
    """k-cliques containing the global view in the gamma-thresholded graph.

    All edge weights (global edges included) are thresholded at gamma.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 1  # the global view alone
    n = g.num_views
    if n > MAX_CLIQUE_NODES:
        raise ValueError(f"clique counting refused above {MAX_CLIQUE_NODES} nodes")
    above = g.weight_matrix() > gamma
    return _count_cliques(above, np.flatnonzero(above[0, 1:]) + 1, k - 1)


def _count_cliques(above: np.ndarray, candidates: np.ndarray, size: int) -> int:
    """Cliques of `size` nodes among ascending `candidates`, each counted
    once through its lowest-numbered member."""
    if size == 1:
        return len(candidates)
    count = 0
    for pos in range(len(candidates) - size + 1):
        rest = candidates[pos + 1:]
        count += _count_cliques(above, rest[above[candidates[pos], rest]], size - 1)
    return count


# ------------------------------------------------------- closed-form counts

def topology_count(n: int) -> int:
    """Number of possible topologies of an unconstrained n-node graph:
    2^floor(n^2/4), exponent floored for exact big-integer arithmetic."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return 2 ** (n * n // 4)


def turan_edge_bound(n: int, k: int) -> float:
    """Edge-count upper bound for an n-node graph with clique number k."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return (1.0 - 1.0 / k) * n * n / 2.0


def _finite(samples: float) -> float:
    """`samples`, refused when the arguments overflow it to infinity."""
    if not np.isfinite(samples):
        raise ValueError("sample complexity overflows to infinity")
    return samples


def sample_complexity_transitive(n: float, epsilon: float, delta: float) -> float:
    """Samples to pin down a transitive topology: (log2 n + log2(1/delta)) / eps."""
    # written so that NaN fails every comparison
    if not (0 < n < np.inf and 0 < epsilon < np.inf and 0 < delta <= 1):
        raise ValueError("need finite n > 0, finite epsilon > 0, 0 < delta <= 1")
    with np.errstate(over="ignore", divide="ignore"):
        return _finite((np.log2(n) + np.log2(1.0 / delta)) / epsilon)


def sample_complexity_noisy(eta_count: float, epsilon: float, delta: float) -> float:
    """Samples to pin down a noisy-subgraph topology: (eta + log2(1/delta)) / eps^2."""
    if not (0 <= eta_count < np.inf and 0 < epsilon < np.inf and 0 < delta <= 1):
        raise ValueError("need finite eta >= 0, finite epsilon > 0, 0 < delta <= 1")
    with np.errstate(over="ignore", divide="ignore"):
        return _finite((eta_count + np.log2(1.0 / delta)) / (epsilon * epsilon))
