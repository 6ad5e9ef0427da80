"""Immutable simple undirected graphs plus graph6 and edge-list text I/O.

Vertices are dense 0-based integers.  A graph stores only its sorted
neighbour tuples; the edge set of ``(u, v)`` pairs with ``u < v`` is derived
from them on request.  Duplicate input edges collapse silently and self-loops
are rejected.  Disconnected graphs are constructible, but every distance
operation elsewhere in the package refuses them.
"""

from __future__ import annotations

import re
from collections import deque
from math import isqrt
from typing import Iterable, Iterator, Tuple

from .errors import Graph6ParseError

Edge = Tuple[int, int]

# graph6 limits: single-byte order header for n <= 62, the '~'-prefixed
# 4-byte header up to 258047.  The 8-byte form is deliberately unsupported.
_G6_SMALL_MAX = 62
_G6_EXT_MAX = 258047
_G6_PREFIX = ">>graph6<<"


class Graph:
    """Simple undirected graph on vertices ``0..n-1``, immutable once built."""

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, pairs: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        neighbors: list[set[int]] = [set() for _ in range(n)]
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            neighbors[u].add(v)
            neighbors[v].add(u)
        self.n: int = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(a)) for a in neighbors
        )
        self.m: int = sum(map(len, self.adj)) // 2

    @property
    def edges(self) -> frozenset[Edge]:
        """Edges as ``(u, v)`` pairs with ``u < v``."""
        return frozenset(_sorted_edges(self))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        """Largest vertex degree; 0 for an edgeless graph."""
        return max((len(a) for a in self.adj), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _sorted_edges(g: Graph) -> Iterator[Edge]:
    # (u, v) with u < v in lexicographic order, straight from the sorted adj
    for u, a in enumerate(g.adj):
        for v in a:
            if v > u:
                yield u, v


def from_edge_list(n: int, pairs: Iterable[Edge]) -> Graph:
    """Build a Graph from ``(u, v)`` pairs, deduplicating and normalizing."""
    return Graph(n, pairs)


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


def is_connected(g: Graph) -> bool:
    """True iff one BFS from vertex 0 reaches all ``n`` vertices.

    Raises ValueError for the empty graph (n = 0), where connectivity is
    undefined.
    """
    if g.n == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return min(_bfs(g, 0)) >= 0


# ---------------------------------------------------------------------------
# graph6


# Python-level work is O(m): only C-level bytes scans see all n(n-1)/2 bits.
# Decoding checks the alphabet with one translate, finds every byte other than
# '?' (group 0) with the regex and expands it through _G6_SET_BITS, the offsets
# of the set bits of each 6-bit group, most significant first.  Encoding adds
# 63 to every group with one translate.
_G6_ALPHABET = bytes(range(63, 127))
_G6_NONZERO = re.compile(rb"[@-~]")
_G6_SET_BITS = tuple(
    tuple(j for j in range(6) if group >> (5 - j) & 1) for group in range(64)
)
_G6_ENCODE = _G6_ALPHABET + bytes(256 - 64)


def _pair_at(i: int) -> Edge:
    # pair (u, v), u < v, at column-major bit position i = v(v-1)/2 + u:
    # (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),...
    # v is the largest column with v(v-1)/2 <= i
    v = (1 + isqrt(8 * i + 1)) // 2
    return (i - v * (v - 1) // 2, v)


def _parse_order(raw: bytes) -> tuple[int, int]:
    """Decode the graph6 order header; return (n, data offset)."""
    if not raw:
        raise Graph6ParseError("empty graph6 input")
    b0 = raw[0]
    if b0 == 126:
        if len(raw) >= 2 and raw[1] == 126:
            raise Graph6ParseError("8-byte graph6 order header is not supported")
        if len(raw) < 4:
            raise Graph6ParseError("truncated extended order header")
        bad = raw[1:4].translate(None, _G6_ALPHABET)
        if bad:
            raise Graph6ParseError(f"header byte {bad[0]} outside 63..126")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        if n <= _G6_SMALL_MAX:
            raise Graph6ParseError(
                f"non-canonical extended header for n={n} (fits single byte)"
            )
        return n, 4
    if not 63 <= b0 <= 126:
        raise Graph6ParseError(f"header byte {b0} outside 63..126")
    return b0 - 63, 1


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph.

    Accepts the optional ``>>graph6<<`` file prefix.  Rejects malformed
    headers, bytes outside 63..126, wrong data length, and nonzero padding
    bits.
    """
    # The data bytes are read in place after the header: a line can be megabytes.
    try:
        raw = text.strip().removeprefix(_G6_PREFIX).encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError("graph6 input is not ASCII") from exc
    n, offset = _parse_order(raw)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(raw) - offset != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} data bytes for n={n}, got {len(raw) - offset}"
        )
    # the header bytes passed _parse_order, so the first bad byte is a data byte
    bad = raw.translate(None, _G6_ALPHABET)
    if bad:
        raise Graph6ParseError(f"data byte {bad[0]} outside 63..126")
    padding = 6 * nbytes - nbits
    if padding and (raw[-1] - 63) & ((1 << padding) - 1):
        raise Graph6ParseError("nonzero padding bits")
    edges = [
        _pair_at(6 * (match.start() - offset) + j)
        for match in _G6_NONZERO.finditer(raw, offset)
        for j in _G6_SET_BITS[ord(match[0]) - 63]
    ]
    return Graph(n, edges)


def read_graph6(lines: Iterable[str], skip_bad: bool = False) -> Iterator[Graph | None]:
    """Decode graph6 lines in order, skipping blank ones.

    A malformed line raises Graph6ParseError prefixed with its line number
    (blank lines count), or yields None when ``skip_bad`` is set.
    """
    # No enumerate: its reused result tuple, like the loop variable, would keep
    # a megabyte line alive while the caller works on the yielded graph.
    lineno = 0
    for line in lines:
        lineno += 1
        if not line.strip():
            continue
        try:
            g = parse_graph6(line)
        except Graph6ParseError as exc:
            if not skip_bad:
                raise Graph6ParseError(f"line {lineno}: {exc}") from exc
            g = None
        del line
        yield g


def write_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical one-line graph6 string."""
    n = g.n
    if n > _G6_EXT_MAX:
        raise ValueError(f"graph6 encoding supports n <= {_G6_EXT_MAX}, got {n}")
    if n <= _G6_SMALL_MAX:
        header = bytes([63 + n])
    else:
        header = bytes(
            [126, 63 + (n >> 12), 63 + ((n >> 6) & 0x3F), 63 + (n & 0x3F)]
        )
    nbits = n * (n - 1) // 2
    groups = bytearray((nbits + 5) // 6)
    for u, v in _sorted_edges(g):
        idx = v * (v - 1) // 2 + u
        groups[idx // 6] |= 1 << (5 - idx % 6)
    return (header + groups.translate(_G6_ENCODE)).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v"


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: header ``n m`` then m ``u v`` lines."""
    lines = text.splitlines()
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped:
            rows.append((lineno, stripped.split()))
    if not rows:
        raise ValueError("empty edge-list input")
    lineno, header = rows[0]
    if len(header) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: header must be two integers") from exc
    if n < 0:
        raise ValueError(f"line {lineno}: vertex count must be nonnegative, got {n}")
    if m < 0:
        raise ValueError(f"line {lineno}: negative edge count")
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    pairs = []
    # Graph's own checks, made here so that each error names its line
    for lineno, parts in rows[1:]:
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: edge line must be two integers") from exc
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        pairs.append((u, v))
    return Graph(n, pairs)


def write_edge_list(g: Graph) -> str:
    """Render the edge-list text form with edges in sorted order."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in _sorted_edges(g))
    return "\n".join(out) + "\n"
