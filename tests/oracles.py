"""Independent oracles used by the tests.

Everything here recomputes expected values by a route different from the
library code under test: networkx for distances and graph6, a min-plus
distance-matrix relaxation for the Wiener index, and direct summations for
the closed-form excess terms.
"""

from itertools import combinations

import networkx as nx
import numpy as np

from wienerbound import Graph

_INF = 10**9


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def from_nx(h: nx.Graph) -> Graph:
    relabel = {v: i for i, v in enumerate(sorted(h.nodes))}
    return Graph(h.number_of_nodes(),
                 [(relabel[u], relabel[v]) for u, v in h.edges])


def nx_wiener(g: Graph) -> int:
    spl = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    return sum(spl[u][v] for u, v in combinations(range(g.n), 2))


def nx_distribution(g: Graph) -> dict[int, int]:
    spl = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    counts: dict[int, int] = {}
    for u, v in combinations(range(g.n), 2):
        k = spl[u][v]
        counts[k] = counts.get(k, 0) + 1
    return counts


def nx_diameter(g: Graph) -> int:
    if g.n == 1:
        return 0
    return nx.diameter(to_nx(g))


def nx_eccentricities(g: Graph) -> list[int]:
    ecc = nx.eccentricity(to_nx(g))
    return [ecc[v] for v in range(g.n)]


def minplus_wiener(g: Graph) -> int:
    """Cubic-time all-pairs distances by iterated min-plus relaxation."""
    n = g.n
    dist = np.full((n, n), _INF, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, v in g.edges:
        dist[u, v] = dist[v, u] = 1
    while True:
        relaxed = dist.copy()
        for k in range(n):
            np.minimum(relaxed, dist[:, k, None] + dist[None, k, :], out=relaxed)
        if (relaxed == dist).all():
            break
        dist = relaxed
    assert dist.max() < _INF, "oracle requires a connected graph"
    return int(dist[np.triu_indices(n, k=1)].sum())


def path_excess_direct(d: int) -> int:
    # (d - k) on-path pairs sit at distance 1 + k; excess is distance - 2.
    return sum((d - k) * (k - 1) for k in range(2, d))


def off_path_excess_direct(d: int) -> int:
    # Per off-path vertex: sum of (d - 2i - 4) over 0 <= i <= (d-3)//2,
    # clamped at zero (the final summand is -1 when d is odd).
    if d < 3:
        return 0
    return sum(max(0, d - 2 * i - 4) for i in range((d - 3) // 2 + 1))
