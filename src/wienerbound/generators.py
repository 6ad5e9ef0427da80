"""Construction of the extremal witness families and random connected graphs.

The named sharpness witnesses are paths, stars, the triangular prism (the
Cartesian product of a triangle and an edge) and the Petersen graph.  Random
graphs are a uniform labeled tree (random Pruefer sequence) plus independent
extra edges, so connectivity holds at every density; the random sweep draws
the same graphs as adjacency bit-matrices, without a ``Graph``.
"""

from __future__ import annotations

import heapq
from itertools import chain, combinations, compress
from math import isqrt
from typing import Iterator

from .graph import Graph
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
    h_edges = h.edges
    for a in range(g.n):
        for u, v in h_edges:
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


def _random_draws(n: int, p: float, seed: int) -> tuple[list[tuple[int, int]], Iterator[bytes]]:
    """The draws of ``random_connected``: the tree's edges from the first
    split of the seed, and one flag per pair of ``combinations(range(n), 2)``,
    as ``SplitMix64.chances`` blocks, from the second.  One draw per pair, so
    the stream layout is independent of the tree."""
    root = SplitMix64(seed)
    tree = _random_tree_edges(n, root.split())
    return tree, root.split().chances(p, n * (n - 1) // 2)


def random_connected(n: int, extra_edge_probability: float, seed: int) -> Graph:
    """Random connected graph: uniform labeled tree plus each non-tree pair
    independently with the given probability.  Deterministic per seed.

    Every pair is examined, so this costs O(n^2) draws, but not O(n^2)
    Python steps: the draws are evaluated a block of up to 4,096 pairs at a
    time by ``SplitMix64.chances``.  Use ``random_connected_m`` for large
    sparse instances.
    """
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    if not 0.0 <= extra_edge_probability <= 1.0:
        raise ValueError("extra edge probability must be in [0, 1]")
    edges, flags = _random_draws(n, extra_edge_probability, seed)
    # One compress over the chained blocks: compress pulls its next pair
    # before its next flag, so one compress per block would drop a pair.
    edges.extend(compress(combinations(range(n), 2), chain.from_iterable(flags)))
    return Graph(n, edges)


# 0/1 matrix bytes to the digits of ``int(..., 2)``
_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _random_matrix(n: int, p: float, seed: int) -> int:
    """The adjacency of ``random_connected(n, p, seed)`` as one n*n-bit int
    with stride n, drawn without pairs or a ``Graph``.

    The draws fill an n-by-n 0/1 bytearray: the pair flags by row slices of
    the upper triangle, the tree edges one entry each way, then the lower
    triangle from the strided columns.  The bytes read most significant
    first, which maps vertex u to n - 1 - u: a relabeling, so every distance
    count is that of the drawn graph.
    """
    tree, flags = _random_draws(n, p, seed)
    upper = b"".join(flags)
    mat = bytearray(n * n)
    start = 0
    for u in range(n - 1):
        stop = start + n - 1 - u
        mat[u * n + u + 1:(u + 1) * n] = upper[start:stop]
        start = stop
    for u, v in tree:
        mat[u * n + v] = mat[v * n + u] = 1
    for v in range(1, n):
        mat[v * n:v * n + v] = mat[v:v * n:n]
    return int(mat.translate(_BINARY_DIGITS), 2)


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
    vertex = list(range(n))  # one int object per vertex, shared by every pair
    edges = {
        (vertex[u], vertex[v]) if u < v else (vertex[v], vertex[u])
        for u, v in _random_tree_edges(n, tree_rng)
    }
    while len(edges) < m:
        # a pair index in graph6's column-major order, (0,1),(0,2),(1,2),(0,3),...:
        # v is the largest column with v(v-1)/2 <= i
        i = pick_rng.below(max_m)
        v = (1 + isqrt(8 * i + 1)) // 2
        edges.add((vertex[i - v * (v - 1) // 2], vertex[v]))
    return Graph(n, edges)
