"""Construction of the extremal witness families and random connected graphs.

The named sharpness witnesses are paths, stars, the triangular prism (the
Cartesian product of a triangle and an edge) and the Petersen graph.  Random
graphs are a uniform labeled tree (random Pruefer sequence) plus independent
extra edges, so connectivity holds at every density.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from .graph import Graph, _pair_at
from .rng import SplitMix64


def path(n: int) -> Graph:
    """Path on n >= 1 vertices with edges (i, i+1)."""
    if n < 1:
        raise ValueError(f"path requires n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError(f"cycle requires n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(m: int) -> Graph:
    """Star with m >= 1 leaves: center 0, order m + 1."""
    if m < 1:
        raise ValueError(f"star requires m >= 1 leaves, got {m}")
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


def complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError(f"complete requires n >= 1, got {n}")
    return Graph(n, combinations(range(n), 2))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: vertex (a, b) maps to index a * h.n + b; vertices
    adjacent iff they agree in one coordinate and are adjacent in the other."""
    if g.n == 0 or h.n == 0:
        raise ValueError("cartesian product requires nonempty factors")
    edges = []
    for a in range(g.n):
        for u, v in h.edges:
            edges.append((a * h.n + u, a * h.n + v))
    for u, v in g.edges:
        for b in range(h.n):
            edges.append((u * h.n + b, v * h.n + b))
    return Graph(g.n * h.n, edges)


def prism() -> Graph:
    """Triangular prism: the product of a triangle and a single edge."""
    return cartesian_product(cycle(3), complete(2))


def petersen() -> Graph:
    """Petersen graph via the Kneser construction: vertices are the 2-subsets
    of {0..4} in lexicographic order, adjacent when disjoint."""
    subsets = list(combinations(range(5), 2))
    index = {s: i for i, s in enumerate(subsets)}
    edges = [
        (index[a], index[b])
        for a, b in combinations(subsets, 2)
        if not set(a) & set(b)
    ]
    return Graph(10, edges)


def _random_tree_edges(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    # Decode a random Pruefer sequence: uniform over labeled trees.
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def random_connected(n: int, extra_edge_probability: float, seed: int) -> Graph:
    """Random connected graph: uniform labeled tree plus each non-tree pair
    independently with the given probability.  Deterministic per seed.

    Every pair is examined, so this costs O(n^2) draws; use
    ``random_connected_m`` for large sparse instances.
    """
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    if not 0.0 <= extra_edge_probability <= 1.0:
        raise ValueError("extra edge probability must be in [0, 1]")
    root = SplitMix64(seed)
    tree_rng = root.split()
    extra_rng = root.split()
    edges = {
        (u, v) if u < v else (v, u)
        for u, v in _random_tree_edges(n, tree_rng)
    }
    for pair in combinations(range(n), 2):
        # one draw per pair, so the stream layout is independent of the tree
        if extra_rng.chance(extra_edge_probability):
            edges.add(pair)
    return Graph(n, edges)


def random_connected_m(n: int, m: int, seed: int) -> Graph:
    """Random connected graph with exactly m edges: uniform labeled tree plus
    m - (n-1) distinct non-tree pairs drawn by index.  O(m) draws."""
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise ValueError(f"m must be in [{n - 1}, {max_m}] for n={n}, got {m}")
    root = SplitMix64(seed)
    tree_rng = root.split()
    pick_rng = root.split()
    edges = {
        (u, v) if u < v else (v, u)
        for u, v in _random_tree_edges(n, tree_rng)
    }
    while len(edges) < m:
        # a pair index in graph6's column-major order
        edges.add(_pair_at(pick_rng.below(max_m)))
    return Graph(n, edges)
