"""Immutable simple undirected graphs plus graph6 and edge-list text I/O.

Vertices are dense 0-based integers.  A graph stores only its sorted
neighbour tuples; the edge set of ``(u, v)`` pairs with ``u < v`` is derived
from them on request.  Duplicate input edges collapse silently and self-loops
are rejected.  Disconnected graphs are constructible, but every distance
operation elsewhere in the package refuses them.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Tuple

from .errors import Graph6ParseError

Edge = Tuple[int, int]

# graph6 limits: single-byte order header for n <= 62, the '~'-prefixed
# 4-byte header up to 258047.  The 8-byte form is deliberately unsupported.
_G6_SMALL_MAX = 62
_G6_EXT_MAX = 258047
_G6_PREFIX = b">>graph6<<"


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
# Both directions work in slices of _G6_CHUNK bytes, so a megabyte line is
# never held twice.  A bytes line is decoded in place, with no copy; a str
# line is encoded to one ASCII copy.  Decoding checks each slice's alphabet
# with one translate, then finds every byte other than '?' (group 0) with
# find(1) over the slice translated to 0/1, expands it through _G6_SET_BITS,
# the offsets of the set bits of each 6-bit group, most significant first, and
# yields its pairs straight into Graph.  Encoding adds each bit to a slice of
# '?' bytes and yields the slice once it is complete.
_G6_CHUNK = 1 << 16
_G6_ALPHABET = bytes(range(63, 127))
_G6_NONZERO = bytes.maketrans(_G6_ALPHABET, b"\0" + b"\1" * 63)
_G6_SET_BITS = tuple(
    tuple(j for j in range(6) if group >> (5 - j) & 1) for group in range(64)
)
# the ASCII characters that str.strip() removes
_G6_SPACE = b" \t\n\v\f\r\x1c\x1d\x1e\x1f"


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


def _strip_bounds(raw: bytes) -> tuple[int, int]:
    """Offsets of ``raw`` without its leading and trailing whitespace, found
    a slice at a time."""
    start, end = 0, len(raw)
    while start < end and raw[start] in _G6_SPACE:
        chunk = raw[start:start + _G6_CHUNK]
        start += len(chunk) - len(chunk.lstrip(_G6_SPACE))
    while end > start and raw[end - 1] in _G6_SPACE:
        chunk = raw[max(start, end - _G6_CHUNK):end]
        end -= len(chunk) - len(chunk.rstrip(_G6_SPACE))
    return start, end


def parse_graph6(line: str | bytes) -> Graph:
    """Decode one graph6 line, ``bytes`` or ``str``, into a Graph.

    Accepts the optional ``>>graph6<<`` file prefix and surrounding ASCII
    whitespace (around a ``str`` line, any whitespace).  Rejects non-ASCII
    input, malformed headers, bytes outside 63..126, wrong data length, and
    nonzero padding bits.
    """
    # One ASCII copy of the line, read through offsets: a line can be megabytes.
    if isinstance(line, bytes):  # already that copy
        if not line.isascii():
            raise Graph6ParseError("graph6 input is not ASCII")
        raw = line
    else:
        try:
            raw = line.encode("ascii")
        except UnicodeEncodeError:  # unless only whitespace outside ASCII surrounds it
            try:
                raw = line.strip().encode("ascii")
            except UnicodeEncodeError as exc:
                raise Graph6ParseError("graph6 input is not ASCII") from exc
    start, end = _strip_bounds(raw)
    if raw.startswith(_G6_PREFIX, start, end):
        start += len(_G6_PREFIX)
    n, offset = _parse_order(raw[start:min(start + 4, end)])
    offset += start
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if end - offset != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} data bytes for n={n}, got {end - offset}"
        )
    for lo in range(offset, end, _G6_CHUNK):
        bad = raw[lo:min(lo + _G6_CHUNK, end)].translate(None, _G6_ALPHABET)
        if bad:
            raise Graph6ParseError(f"data byte {bad[0]} outside 63..126")
    padding = 6 * nbytes - nbits
    if padding and (raw[end - 1] - 63) & ((1 << padding) - 1):
        raise Graph6ParseError("nonzero padding bits")
    return Graph(n, _graph6_pairs(raw, offset, end, n))


def _graph6_pairs(raw: bytes, offset: int, end: int, n: int) -> Iterator[Edge]:
    """The pairs of the checked data bytes ``raw[offset:end]`` of order n."""
    # Bits come in column order, (0,1),(0,2),(1,2),(0,3),...: bit i is pair
    # (i - base, v) while base <= i < base + v, with base = v(v-1)/2.
    vertex = list(range(n))  # one int object per vertex, shared by every pair
    v = 1
    base = 0
    for lo in range(offset, end, _G6_CHUNK):
        nonzero = raw[lo:min(lo + _G6_CHUNK, end)].translate(_G6_NONZERO)
        j = nonzero.find(1)
        while j >= 0:
            first = 6 * (lo - offset + j)
            for i in _G6_SET_BITS[raw[lo + j] - 63]:
                i += first
                while i >= base + v:
                    base += v
                    v += 1
                yield vertex[i - base], vertex[v]
            j = nonzero.find(1, j + 1)


def _blank(line: str | bytes) -> bool:
    """True for a line of nothing but whitespace that str.strip() removes,
    found without copying the line (not line.strip())."""
    if isinstance(line, str):
        return not line or line.isspace()
    start, end = _strip_bounds(line)  # bytes.isspace() misses \x1c-\x1f
    return start == end


def read_graph6(
    lines: Iterable[str | bytes], skip_bad: bool = False
) -> Iterator[Graph | None]:
    """Decode graph6 lines, ``bytes`` or ``str``, in order, skipping blank ones.

    A malformed line raises Graph6ParseError prefixed with its line number
    (blank lines count), or yields None when ``skip_bad`` is set.
    """
    # No enumerate: its reused result tuple, like the loop variable, would keep
    # a megabyte line alive while the caller works on the yielded graph.
    lineno = 0
    for line in lines:
        lineno += 1
        if _blank(line):
            continue
        try:
            g = parse_graph6(line)
        except Graph6ParseError as exc:
            if not skip_bad:
                raise Graph6ParseError(f"line {lineno}: {exc}") from exc
            g = None
        del line
        yield g


def graph6_slices(g: Graph) -> Iterator[str]:
    """The canonical graph6 line of a Graph, in slices of ``_G6_CHUNK``
    characters (the last may be shorter): a megabyte line is never held whole.

    Raises ValueError at once, before any slice, when ``n`` exceeds 258047.
    """
    n = g.n
    if n > _G6_EXT_MAX:
        raise ValueError(f"graph6 encoding supports n <= {_G6_EXT_MAX}, got {n}")
    if n <= _G6_SMALL_MAX:
        header = _G6_ALPHABET[n:n + 1]
    else:
        header = bytes((126, 63 + (n >> 12), 63 + ((n >> 6) & 0x3F), 63 + (n & 0x3F)))
    return _graph6_slices(g.adj, header, (n * (n - 1) // 2 + 5) // 6)


def _graph6_slices(
    adj: tuple[tuple[int, ...], ...], header: bytes, nbytes: int
) -> Iterator[str]:
    # Slice s holds the line's characters s*_G6_CHUNK.. on, the header first,
    # so only the last slice can be short.  A slice's bytes are dropped before
    # it is yielded, so the caller's work on it sees one copy.
    lo = -len(header)  # data byte at the slice's first character
    groups = bytearray(b"?") * min(_G6_CHUNK, nbytes - lo)
    groups[:-lo] = header
    for v, a in enumerate(adj):  # column order: bit positions ascend
        base = v * (v - 1) // 2
        for u in a:
            if u >= v:
                break
            i = base + u
            k = i // 6 - lo
            while k >= _G6_CHUNK:
                text, groups = groups.decode("ascii"), None
                yield text
                lo += _G6_CHUNK
                k -= _G6_CHUNK
                groups = bytearray(b"?") * min(_G6_CHUNK, nbytes - lo)
            groups[k] += 1 << (5 - i % 6)
    text, groups = groups.decode("ascii"), None
    yield text
    for lo in range(lo + _G6_CHUNK, nbytes, _G6_CHUNK):  # past the last edge
        yield "?" * min(_G6_CHUNK, nbytes - lo)


def write_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical one-line graph6 string."""
    # Each slice is appended once it is complete.  The string has no other
    # reference, so CPython grows it in place and the line is never held twice.
    out = ""
    for chunk in graph6_slices(g):
        out += chunk
    return out


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
