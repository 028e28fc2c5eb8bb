"""Emergence scoring, transitivity checks, clique machinery, and the
closed-form robustness calculators.

Emergence of a local view is its learned edge weight to the global view;
pairwise emergence of two locals is the weakest link of their triangle with
the global view. Thresholding those scores yields maximal cliques of
mutually transitive views ("continents") and leftover groups of views with
no strong ties ("islands").
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError
from .graphs import ViewGraph, edge_weight

_MAX_CLIQUE_NODES = 64


@dataclass(frozen=True)
class TransitivityConfig:
    """Threshold spec: an absolute value, or a quantile of observed scores."""
    gamma: float | None = None
    gamma_quantile: float = 0.75

    def __post_init__(self):
        if self.gamma is None and not 0.0 < self.gamma_quantile < 1.0:
            raise ConfigError("gamma_quantile must lie in (0, 1)")

    def resolve(self, scores) -> float:
        if self.gamma is not None:
            return float(self.gamma)
        return float(np.quantile(np.asarray(scores, dtype=np.float64),
                                 self.gamma_quantile))

    def resolve_rows(self, scores) -> np.ndarray:
        """`resolve` of each row of a (B, P) array, bit-identical to B calls:
        the quantile along an axis interpolates each row the same way."""
        scores = np.asarray(scores, dtype=np.float64)
        if self.gamma is not None:
            return np.full(scores.shape[0], float(self.gamma))
        return np.quantile(scores, self.gamma_quantile, axis=1)


@dataclass(frozen=True)
class TripleReport:
    """Transitivity implication for each rotation of a view triple."""
    conclusion_pairs: tuple[tuple[int, int], ...]
    holds: tuple[bool, bool, bool]

    @property
    def all_hold(self) -> bool:
        return all(self.holds)


@dataclass(frozen=True)
class ContinentReport:
    continents: tuple[frozenset, ...]           # maximal cliques (may overlap)
    islands: tuple[frozenset, ...]              # isolated views, grouped
    disjoint_continents: tuple[frozenset, ...]  # greedy greatest-clique-first
    cut_edge_mass: float                        # continents <-> islands total
    gamma: float


def emergence_scores(g: ViewGraph) -> np.ndarray:
    """Edge weight of each local view 1..N-1 to the global view: the norms
    of the global edge rows 0..N-2.

    Bit-identical to `edge_weight(g, v, 0)`: the norm there is the square
    root of a dot product, and a stacked matmul of (1, d) by (d, 1) rows
    takes the same dot product per row.
    """
    feats = g.edge_features[:g.num_views - 1]
    return np.sqrt(np.matmul(feats[:, None, :], feats[:, :, None])[:, 0, 0])


def pairwise_emergence(g: ViewGraph, i: int, j: int) -> float:
    """Weakest link of the (i, j, global) triangle."""
    if i == 0 or j == 0:
        raise ValueError("pairwise emergence is defined for local views only")
    return min(edge_weight(g, i, 0), edge_weight(g, j, 0), edge_weight(g, i, j))


def is_transitive_triple(g: ViewGraph, i: int, j: int, k: int,
                         gamma: float) -> TripleReport:
    """Check NOT(two pairs above gamma and the third at/below) per rotation."""
    if len({i, j, k}) != 3:
        raise ValueError("need three distinct local views")
    score = {frozenset(p): pairwise_emergence(g, *p)
             for p in ((i, j), (j, k), (i, k))}
    rotations = (((i, j), (j, k), (i, k)),
                 ((j, k), (i, k), (i, j)),
                 ((i, k), (i, j), (j, k)))
    holds = []
    conclusion = []
    for p1, p2, p3 in rotations:
        premise = score[frozenset(p1)] > gamma and score[frozenset(p2)] > gamma
        holds.append(not (premise and score[frozenset(p3)] <= gamma))
        conclusion.append(p3)
    return TripleReport(tuple(conclusion), tuple(holds))


def _bron_kerbosch(adj: dict[int, set], r: set, p: set, x: set, out: list):
    """Maximal clique enumeration with pivoting."""
    if not p and not x:
        out.append(frozenset(r))
        return
    pivot = max(p | x, key=lambda v: len(adj[v] & p))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v], out)
        p = p - {v}
        x = x | {v}


def maximal_cliques(adj: dict[int, set]) -> list[frozenset]:
    out: list[frozenset] = []
    _bron_kerbosch(adj, set(), set(adj), set(), out)
    return sorted(out, key=lambda c: (-len(c), sorted(c)))


def find_continents(g: ViewGraph, cfg: TransitivityConfig) -> ContinentReport:
    """Threshold pairwise emergence among locals, then enumerate cliques.

    Views touching no above-threshold edge become islands, grouped into
    connected components of the sub-threshold remainder among themselves.
    """
    locals_ = g.local_indices
    if len(locals_) > _MAX_CLIQUE_NODES:
        raise ValueError(f"clique enumeration refused above {_MAX_CLIQUE_NODES} local views")
    scores = {(i, j): pairwise_emergence(g, i, j) for i, j in combinations(locals_, 2)}
    gamma = cfg.resolve(list(scores.values())) if scores else cfg.resolve([0.0])

    adj = {v: set() for v in locals_}
    for (i, j), val in scores.items():
        if val > gamma:
            adj[i].add(j)
            adj[j].add(i)
    connected = [v for v in locals_ if adj[v]]
    isolated = [v for v in locals_ if not adj[v]]

    continents = maximal_cliques({v: adj[v] for v in connected}) if connected else []

    # group islands by components of the remaining (sub-threshold) edges
    island_adj = {v: set() for v in isolated}
    for i, j in combinations(isolated, 2):
        if scores.get((min(i, j), max(i, j)), 0.0) <= gamma:
            island_adj[i].add(j)
            island_adj[j].add(i)
    islands = []
    seen: set[int] = set()
    for v in isolated:
        if v in seen:
            continue
        comp, stack = set(), [v]
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(island_adj[u] - comp)
        seen |= comp
        islands.append(frozenset(comp))

    assigned: set[int] = set()
    disjoint = []
    for clique in continents:
        rest = clique - assigned
        if rest:
            disjoint.append(frozenset(rest))
            assigned |= rest
    cut = cut_edge_mass(g, set(connected), set(isolated))
    return ContinentReport(tuple(continents), tuple(islands), tuple(disjoint),
                           cut, gamma)


def cut_edge_mass(g: ViewGraph, group_a, group_b) -> float:
    """Total edge weight between two disjoint node groups."""
    a, b = set(group_a), set(group_b)
    if a & b:
        raise ValueError("groups must be disjoint")
    return float(sum(edge_weight(g, i, j) for i in a for j in b))


def mean_intra_edge_weight(g: ViewGraph, group) -> float:
    """Mean edge weight among the unordered pairs inside a node group."""
    members = sorted(set(group))
    pairs = list(combinations(members, 2))
    if not pairs:
        raise ValueError("group needs at least two nodes")
    return float(np.mean([edge_weight(g, i, j) for i, j in pairs]))


def count_k_cliques_with_global(g: ViewGraph, k: int, gamma: float) -> int:
    """k-cliques containing the global view in the gamma-thresholded graph.

    All edge weights (global edges included) are thresholded at gamma.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 1  # the global view alone
    n = g.num_views
    if n > _MAX_CLIQUE_NODES:
        raise ValueError(f"clique counting refused above {_MAX_CLIQUE_NODES} nodes")
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


def sample_complexity_transitive(n: float, epsilon: float, delta: float) -> float:
    """Samples to pin down a transitive topology: (log2 n + log2(1/delta)) / eps."""
    if n <= 0 or epsilon <= 0 or not 0 < delta <= 1:
        raise ValueError("need n > 0, epsilon > 0, 0 < delta <= 1")
    return (np.log2(n) + np.log2(1.0 / delta)) / epsilon


def sample_complexity_noisy(eta_count: float, epsilon: float, delta: float) -> float:
    """Samples to pin down a noisy-subgraph topology: (eta + log2(1/delta)) / eps^2."""
    if eta_count < 0 or epsilon <= 0 or not 0 < delta <= 1:
        raise ValueError("need eta >= 0, epsilon > 0, 0 < delta <= 1")
    return (eta_count + np.log2(1.0 / delta)) / (epsilon * epsilon)
