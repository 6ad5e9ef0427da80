"""Distance computations: BFS, distance distribution, Wiener index, diameter,
diametral paths, and the on-path/off-path pair partition.

Everything is exact integer arithmetic.  One pass over all sources yields both
the distance distribution and the eccentricities, without materializing an
n-by-n table: the default engine runs one BFS per source with O(n) memory, and
the blocked engine used for large graphs runs 512 sources at once as bits of
uint64 words, keeping one block of frontiers alive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .errors import DisconnectedGraphError
from .graph import Graph

# From this order on, "auto" runs the bit-parallel engine.  It is faster per
# graph on small inputs too (0.11-0.20 ms against 0.79 ms on the n <= 50
# graphs of ``verify --random``), but importing numpy raises that command's
# peak RSS from 17 MB to 30 MB, so small graphs must never import numpy.
_BLOCKED_ENGINE_MIN_N = 1024
_BLOCK_WORDS = 8  # sources per block of the bit-parallel engine, in uint64 words


@dataclass(frozen=True)
class DistanceDistribution:
    """Counts of unordered vertex pairs at each distance k >= 1."""

    n: int
    counts: Mapping[int, int]

    @property
    def wiener(self) -> int:
        """Sum of pair distances, exact."""
        return sum(k * c for k, c in self.counts.items())

    @property
    def diameter(self) -> int:
        """Largest distance with a nonzero count; 0 for a single vertex."""
        return max(self.counts, default=0)

    @property
    def total_pairs(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class DiametralPartition:
    """A chosen diametral path and the pair counts it induces.

    Unordered pairs split by how many endpoints lie on the path:
    both (``on_path_pairs``), none (``off_path_pairs``), exactly one
    (``mixed_pairs``).
    """

    path: tuple[int, ...]
    on_path_pairs: int
    off_path_pairs: int
    mixed_pairs: int

    @property
    def diameter(self) -> int:
        return len(self.path) - 1

    @property
    def total_pairs(self) -> int:
        return self.on_path_pairs + self.off_path_pairs + self.mixed_pairs


def _bfs(g: Graph, source: int) -> list[int]:
    """Distances from source; -1 marks unreachable vertices."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adj
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Exact shortest-path distances from ``source`` to every vertex.

    Raises DisconnectedGraphError if any vertex is unreachable.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    dist = _bfs(g, source)
    if min(dist) < 0:
        raise DisconnectedGraphError("graph is not connected")
    return dist


def _all_sources_python(g: Graph) -> tuple[dict[int, int], list[int]]:
    # One BFS per source; pair (s, v) counted only when v > s.  A missing
    # vertex always shows up in the s = 0 pass, so that one scan suffices.
    counts: dict[int, int] = {}
    ecc = []
    for s in range(g.n):
        dist = _bfs(g, s)
        for v in range(s + 1, g.n):
            d = dist[v]
            if d < 0:
                raise DisconnectedGraphError("graph is not connected")
            counts[d] = counts.get(d, 0) + 1
        ecc.append(max(dist))
    return counts, ecc


def _all_sources_bits(g: Graph) -> tuple[dict[int, int], list[int]]:
    # Bit-parallel multi-source BFS (Then et al., PVLDB 8(4), 2014): bit j of
    # word w in a vertex's row stands for source lo + 64*w + j of the block.
    # Counts ordered pairs, halved at the end (always even by symmetry).
    import numpy as np

    n = g.n
    if n == 1:
        return {}, [0]
    degree = np.fromiter(map(len, g.adj), dtype=np.intp, count=n)
    # reduceat over an empty neighbour range would copy the next row instead
    # of giving zero, so isolated vertices must be rejected up front.
    if not degree.all():
        raise DisconnectedGraphError("graph is not connected")
    indices = np.fromiter((v for a in g.adj for v in a), dtype=np.intp, count=int(degree.sum()))
    starts = np.concatenate(([0], np.cumsum(degree)[:-1]))
    ordered: dict[int, int] = {}
    ecc = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, 64 * _BLOCK_WORDS):
        width = min(n - lo, 64 * _BLOCK_WORDS)
        offset = np.arange(width)
        seen = np.zeros((n, -(-width // 64)), dtype=np.uint64)
        seen[lo + offset, offset // 64] = np.uint64(1) << (offset % 64).astype(np.uint64)
        frontier = seen.copy()
        reached = width
        k = 0
        while True:
            nxt = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            nxt &= ~seen
            count = int(np.bitwise_count(nxt).sum())
            if count == 0:
                break
            k += 1
            ordered[k] = ordered.get(k, 0) + count
            reached += count
            live = np.bitwise_or.reduce(nxt, axis=0).astype("<u8").view(np.uint8)
            ecc[lo:lo + width][np.unpackbits(live, bitorder="little")[:width] == 1] = k
            seen |= nxt
            frontier = nxt
        if reached != n * width:
            raise DisconnectedGraphError("graph is not connected")
    if any(c % 2 for c in ordered.values()):
        raise AssertionError("ordered pair count must be even")
    return {k: c // 2 for k, c in ordered.items()}, ecc.tolist()


def _all_sources(g: Graph, engine: str = "auto") -> tuple[dict[int, int], list[int]]:
    """Pair counts per distance and per-vertex eccentricities, in one pass."""
    if g.n < 1:
        raise ValueError("distances require n >= 1")
    if engine == "auto":
        engine = "blocked" if g.n >= _BLOCKED_ENGINE_MIN_N else "python"
    if engine == "python":
        return _all_sources_python(g)
    if engine == "blocked":
        return _all_sources_bits(g)
    raise ValueError(f"unknown engine {engine!r}")


def distance_distribution(g: Graph, engine: str = "auto") -> DistanceDistribution:
    """Exact pair counts per distance over all unordered pairs.

    ``engine`` is "auto", "python", or "blocked"; auto picks the blocked
    (bit-parallel numpy) engine for large graphs.  Both engines give
    identical counts.
    """
    return DistanceDistribution(n=g.n, counts=_all_sources(g, engine)[0])


def wiener_index(g: Graph, engine: str = "auto") -> int:
    """Sum of shortest-path distances over all unordered vertex pairs."""
    return distance_distribution(g, engine=engine).wiener


def eccentricities(g: Graph) -> list[int]:
    """Per-vertex maximum distance.  Raises on disconnected input."""
    return _all_sources(g)[1]


def diameter(g: Graph, engine: str = "auto") -> int:
    """Maximum pairwise distance; 0 for a single vertex."""
    return distance_distribution(g, engine=engine).diameter


def diametral_path(g: Graph) -> list[int]:
    """A shortest path between a pair of vertices at maximum distance.

    Deterministic tie-breaking: among all pairs realizing the diameter the
    lexicographically smallest (u, v) with u < v is chosen, and the path is
    reconstructed backwards from v picking the smallest-index predecessor at
    every step.
    """
    if g.n < 2:
        raise ValueError("diametral path requires n >= 2")
    ecc = eccentricities(g)
    d = max(ecc)
    # u is the first vertex of eccentricity d; a vertex v < u at distance d
    # from u would have eccentricity d itself, so every such v exceeds u.
    u = ecc.index(d)
    dist = _bfs(g, u)
    cur = dist.index(d)
    path = [cur]
    while cur != u:
        cur = min(w for w in g.adj[cur] if dist[w] == dist[cur] - 1)
        path.append(cur)
    path.reverse()
    return path


def diametral_partition(g: Graph) -> DiametralPartition:
    """Partition pair counts induced by the chosen diametral path."""
    path = diametral_path(g)
    on_path = set(path)
    if len(on_path) != len(path):
        raise AssertionError("diametral path revisits a vertex")
    p = len(on_path)
    q = g.n - p
    return DiametralPartition(
        path=tuple(path),
        on_path_pairs=p * (p - 1) // 2,
        off_path_pairs=q * (q - 1) // 2,
        mixed_pairs=p * q,
    )
