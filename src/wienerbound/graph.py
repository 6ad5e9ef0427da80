"""Immutable simple undirected graphs plus graph6 and edge-list text I/O.

Vertices are dense 0-based integers.  Edges are unordered pairs held as a
frozenset of ``(u, v)`` tuples with ``u < v``; duplicate input edges collapse
silently and self-loops are rejected.  Disconnected graphs are constructible,
but every distance operation elsewhere in the package refuses them.
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

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, pairs: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edges = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            edges.add((u, v) if u < v else (v, u))
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        self.n: int = n
        self.edges: frozenset[Edge] = frozenset(edges)
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(a)) for a in neighbors
        )

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        """Largest vertex degree; 0 for an edgeless graph."""
        return max((len(a) for a in self.adj), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, pairs: Iterable[Edge]) -> Graph:
    """Build a Graph from ``(u, v)`` pairs, deduplicating and normalizing."""
    return Graph(n, pairs)


def is_connected(g: Graph) -> bool:
    """True iff one BFS from vertex 0 reaches all ``n`` vertices.

    Raises ValueError for the empty graph (n = 0), where connectivity is
    undefined.
    """
    if g.n == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    if g.n == 1:
        return True
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    adj = g.adj
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                queue.append(v)
    return count == g.n


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


def _pair_index(u: int, v: int) -> int:
    # column-major bit position of pair (u, v), u < v:
    # (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),...
    return v * (v - 1) // 2 + u


def _pair_at(i: int) -> Edge:
    # inverse of _pair_index: v is the largest column with v(v-1)/2 <= i
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
        groups = raw[1:4]
        for b in groups:
            if not 63 <= b <= 126:
                raise Graph6ParseError(f"header byte {b} outside 63..126")
        n = ((groups[0] - 63) << 12) | ((groups[1] - 63) << 6) | (groups[2] - 63)
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
    line = text.strip()
    if line.startswith(_G6_PREFIX):
        line = line[len(_G6_PREFIX):]
    try:
        raw = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError("graph6 input is not ASCII") from exc
    n, offset = _parse_order(raw)
    body = raw[offset:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} data bytes for n={n}, got {len(body)}"
        )
    if body.translate(None, _G6_ALPHABET):
        for b in body:
            if not 63 <= b <= 126:
                raise Graph6ParseError(f"data byte {b} outside 63..126")
    padding = 6 * nbytes - nbits
    if padding and (body[-1] - 63) & ((1 << padding) - 1):
        raise Graph6ParseError("nonzero padding bits")
    edges = [
        _pair_at(6 * match.start() + j)
        for match in _G6_NONZERO.finditer(body)
        for j in _G6_SET_BITS[ord(match[0]) - 63]
    ]
    return Graph(n, edges)


def read_graph6(lines: Iterable[str], skip_bad: bool = False) -> Iterator[Graph | None]:
    """Decode graph6 lines in order, skipping blank ones.

    A malformed line raises Graph6ParseError prefixed with its line number
    (blank lines count), or yields None when ``skip_bad`` is set.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            g = parse_graph6(line)
        except Graph6ParseError as exc:
            if not skip_bad:
                raise Graph6ParseError(f"line {lineno}: {exc}") from exc
            g = None
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
    for u, v in g.edges:
        idx = _pair_index(u, v)
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
    if m < 0:
        raise ValueError(f"line {lineno}: negative edge count")
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    pairs = []
    for lineno, parts in rows[1:]:
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: edge line must be two integers") from exc
        pairs.append((u, v))
    try:
        return Graph(n, pairs)
    except ValueError as exc:
        raise ValueError(f"invalid edge list: {exc}") from exc


def write_edge_list(g: Graph) -> str:
    """Render the edge-list text form with edges in sorted order."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"
