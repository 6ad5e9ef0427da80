"""Seeded benchmark inputs and an oracle for the output they must produce.

Inputs for ``compute`` come from stdlib ``random``, so no change to
``wienerbound.generators`` can change them.  The oracle shares no code with the
package: it has its own graph6 codec, a bit-parallel multi-source BFS in numpy
(64 sources per uint64 word, as in Then et al., PVLDB 8(4), 2014) and the
bound formula written out again from the paper.

``verify --random`` builds its corpus inside the package, so the oracle for it
carries a copy of that corpus as the package defines it when the benchmark was
written: splitmix64 streams, a Pruefer tree and one Bernoulli draw per vertex
pair.  A change to the package's corpus therefore shows as a wrong output.
"""

from __future__ import annotations

import heapq
import json
import random

import numpy as np

Edges = list[tuple[int, int]]

_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
_BLOCK_WORDS = 8  # BFS sources per block, in uint64 words

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def random_connected(rng: random.Random, n: int, m: int) -> Edges:
    """Random recursive tree on n vertices plus distinct random pairs up to m edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def encode_graph6(n: int, edges: Edges) -> str:
    """Canonical graph6 line (single-byte or 4-byte order header)."""
    if n <= 62:
        header = bytes([63 + n])
    else:
        header = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    nbits = n * (n - 1) // 2
    bits = np.zeros(-(-nbits // 6) * 6, dtype=np.uint8)
    if edges:
        e = np.asarray(edges, dtype=np.int64)
        bits[e[:, 1] * (e[:, 1] - 1) // 2 + e[:, 0]] = 1
    groups = bits.reshape(-1, 6) @ _WEIGHTS + 63
    return (header + groups.astype(np.uint8).tobytes()).decode("ascii")


def decode_graph6(line: str) -> tuple[int, Edges]:
    """Decode a graph6 line with a single-byte header (n <= 62)."""
    raw = line.strip().encode("ascii")
    n = raw[0] - 63
    if not 0 <= n <= 62 or len(raw) != 1 + -(-n * (n - 1) // 12):
        raise ValueError(f"not a small canonical graph6 line: {line!r}")
    bits = [(b - 63) >> (5 - j) & 1 for b in raw[1:] for j in range(6)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    if any(bits[len(pairs):]):
        raise ValueError(f"nonzero padding in {line!r}")
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def distance_counts(n: int, edges: Edges) -> dict[int, int]:
    """Unordered pair counts per distance; raises ValueError if disconnected."""
    if n < 2:
        raise ValueError("oracle needs n >= 2")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([e[:, 0], e[:, 1]])
    order = np.argsort(src, kind="stable")
    indices = np.concatenate([e[:, 1], e[:, 0]])[order]
    degree = np.bincount(src, minlength=n)
    if not degree.all():
        raise ValueError("graph is disconnected")
    starts = np.concatenate([[0], np.cumsum(degree)[:-1]])
    ordered: dict[int, int] = {}
    for lo in range(0, n, 64 * _BLOCK_WORDS):
        sources = np.arange(lo, min(n, lo + 64 * _BLOCK_WORDS))
        offset = sources - lo
        seen = np.zeros((n, -(-len(sources) // 64)), dtype=np.uint64)
        seen[sources, offset // 64] = np.uint64(1) << (offset % 64).astype(np.uint64)
        frontier = seen.copy()
        reached = len(sources)
        k = 0
        while True:
            nxt = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            nxt &= ~seen
            count = int(np.bitwise_count(nxt).sum())
            if not count:
                break
            k += 1
            ordered[k] = ordered.get(k, 0) + count
            reached += count
            seen |= nxt
            frontier = nxt
        if reached != n * len(sources):
            raise ValueError("graph is disconnected")
    return {k: c // 2 for k, c in ordered.items()}


def wiener_bound(n: int, m: int, d: int) -> int:
    """n(n-1) - m + d(d-1)(d-2)/6 + (n-d-1) * E_off(d), for d >= 2."""
    e_off = ((d - 3) // 2) ** 2 if d % 2 else (d - 2) * (d - 4) // 4
    return n * (n - 1) - m + d * (d - 1) * (d - 2) // 6 + (n - d - 1) * e_off


def record(graph6: str, n: int, m: int, counts: dict[int, int]) -> dict:
    """The ``compute --json`` record for a connected graph."""
    d = max(counts)
    wiener = sum(k * c for k, c in counts.items())
    rec = {"graph6": graph6, "n": n, "m": m, "d": d, "wiener": wiener,
           "bound": None, "gap": None, "tight": None, "applicable": False}
    if d >= 2:
        bound = wiener_bound(n, m, d)
        rec.update(bound=bound, gap=wiener - bound, tight=wiener == bound, applicable=True)
    return rec


def compute_output(graphs: list[tuple[int, Edges]]) -> tuple[str, str]:
    """The graph6 input file and the expected ``compute --json`` output."""
    lines, out = [], []
    for n, edges in graphs:
        g6 = encode_graph6(n, edges)
        lines.append(g6 + "\n")
        out.append(json.dumps(record(g6, n, len(edges), distance_counts(n, edges))) + "\n")
    return "".join(lines), "".join(out)


def is_tight(graph6: str) -> bool:
    """True iff the small graph is connected, of diameter >= 2 and attains the bound."""
    n, edges = decode_graph6(graph6)
    rec = record(graph6, n, len(edges), distance_counts(n, edges))
    return rec["tight"] is True and encode_graph6(n, edges) == graph6


def _mix64(z):
    """The splitmix64 finalizer, on a Python int or a numpy uint64 array."""
    if isinstance(z, np.ndarray):
        z = (z ^ (z >> 30)) * _MIX_A
        z = (z ^ (z >> 27)) * _MIX_B
        return z ^ (z >> 31)
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


class _SplitMix64:
    """State advances by the golden gamma; each output is the finalizer of the state."""

    def __init__(self, state: int) -> None:
        self.state = state & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix64(self.state)

    def below(self, bound: int) -> int:
        limit = (1 << 64) - (1 << 64) % bound
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


def _pruefer_tree(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_corpus(count: int, max_order: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Orders and adjacency bitmasks (row v, bit u) of ``verify --random``'s corpus.

    Graph i takes stream i of the seed; it draws its order from [3, max_order],
    an extra-edge probability from {0.00, ..., 1.00} and a graph seed.  The
    graph seed's first two outputs seed a Pruefer tree and the extra edges,
    one draw per vertex pair in lexicographic order.
    """
    orders = np.zeros(count, dtype=np.int64)
    adj = np.zeros((count, max_order), dtype=np.uint64)
    pairs = {}
    for i in range(count):
        rng = _SplitMix64(_mix64((seed + (i + 1) * _GOLDEN) & _MASK64))
        n = 3 + rng.below(max_order - 2)
        threshold = int(rng.below(101) / 100 * (1 << 64))
        root = _SplitMix64(rng.next_u64())
        tree = _SplitMix64(root.next_u64())
        extra = root.next_u64()
        if n not in pairs:
            pairs[n] = np.triu_indices(n, 1)
        rows, cols = pairs[n]
        steps = np.arange(1, len(rows) + 1, dtype=np.uint64)
        drawn = _mix64(steps * np.uint64(_GOLDEN) + np.uint64(extra))
        picked = drawn < threshold if threshold <= _MASK64 else np.ones(len(rows), bool)
        matrix = np.zeros((n, 64), dtype=bool)
        matrix[rows[picked], cols[picked]] = True
        for u, v in _pruefer_tree([tree.below(n) for _ in range(n - 2)], n):
            matrix[u, v] = True
        matrix[:, :n] |= matrix[:, :n].T
        orders[i] = n
        adj[i, :n] = np.packbits(matrix, axis=1, bitorder="little").view("<u8")[:, 0]
    return orders, adj


def _wiener_diameter(orders: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wiener index, diameter and connectedness of every graph, by level-synchronous
    bitmask BFS from all vertices of all graphs at once.

    Level k holds, for each vertex, the set within distance k.  A pair at
    distance d is missing from levels 0..d-1, so the ordered distance sum is
    the sum over levels of the pairs still missing.
    """
    count, width = adj.shape
    vertex = np.arange(width)
    reach = np.where(vertex < orders[:, None], np.uint64(1) << vertex.astype(np.uint64),
                     np.uint64(0))
    squares = orders * orders
    within = orders.copy()
    double_wiener = np.zeros(count, dtype=np.int64)
    diameter = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    while len(active):
        old, links = reach[active], adj[active]
        new = old.copy()
        for u in range(width):
            new |= old[:, u, None] * ((links >> np.uint64(u)) & np.uint64(1))
        grew = (new != old).any(axis=1)
        active = active[grew]
        double_wiener[active] += squares[active] - within[active]
        diameter[active] += 1
        reach[active] = new[grew]
        within[active] = np.bitwise_count(new[grew]).sum(axis=1)
    return double_wiener // 2, diameter, within == squares


def _edges(n: int, rows) -> Edges:
    return [(u, v) for v in range(n) for u in range(v) if int(rows[v]) >> u & 1]


def verify_random_output(count: int, max_order: int, seed: int, cap: int) -> str:
    """The ``verify --random COUNT --order MAX_ORDER --seed SEED --json`` output."""
    orders, adj = random_corpus(count, max_order, seed)
    wiener, diameter, connected = _wiener_diameter(orders, adj)
    sizes = np.bitwise_count(adj).sum(axis=1) // 2
    s = {"graphs_checked": count, "applicable": 0, "violations": 0, "tight_count": 0,
         "min_gap": None, "max_gap": None, "tight_examples": [],
         "skipped_disconnected": 0, "skipped_inapplicable": 0, "parse_errors": 0}
    for i in range(count):
        n, d = int(orders[i]), int(diameter[i])
        if not connected[i]:
            s["skipped_disconnected"] += 1
            continue
        if d < 2:
            s["skipped_inapplicable"] += 1
            continue
        gap = int(wiener[i]) - wiener_bound(n, int(sizes[i]), d)
        s["applicable"] += 1
        s["min_gap"] = gap if s["min_gap"] is None else min(s["min_gap"], gap)
        s["max_gap"] = gap if s["max_gap"] is None else max(s["max_gap"], gap)
        s["violations"] += gap < 0
        if gap == 0:
            s["tight_count"] += 1
            if len(s["tight_examples"]) < cap:
                s["tight_examples"].append(encode_graph6(n, _edges(n, adj[i])))
    return json.dumps(s) + "\n"
