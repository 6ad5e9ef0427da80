import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerbound import (
    Graph,
    Graph6ParseError,
    from_edge_list,
    is_connected,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from wienerbound.graph import read_graph6
from wienerbound.generators import petersen, prism, random_connected, random_connected_m

from oracles import from_nx, to_nx

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def graphs(draw, max_order=130):
    # orders on both sides of the single-byte / '~' header switch at 62/63
    n = draw(st.one_of(st.integers(0, max_order), st.sampled_from([61, 62, 63, 64])))
    if n < 2:
        return Graph(n)
    # (u, u + k mod n) with 1 <= k < n is never a self-loop
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n)
    )
    return Graph(n, draw(st.lists(pair, max_size=3 * n)))


@st.composite
def pair_lists(draw, max_order=40):
    # vertex pairs with duplicates, plus a drawn prefix again in reverse
    n = draw(st.integers(0, max_order))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n)
    )
    pairs = draw(st.lists(pair, max_size=3 * n))
    reversed_prefix = draw(st.integers(0, len(pairs)))
    return n, pairs + [(v, u) for u, v in pairs[:reversed_prefix]]


class TestConstruction:
    def test_k2(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.n == 2 and g.m == 1
        assert g.edges == frozenset({(0, 1)})

    def test_duplicates_collapse(self):
        # both orientations of the same edge count once
        g = from_edge_list(3, [(0, 1), (1, 2), (1, 0)])
        assert g.m == 2
        assert g.adj == ((1,), (0, 2), (1,))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(4, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list(3, [(-1, 2)])

    def test_order_insensitive(self):
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        a = from_edge_list(4, pairs)
        b = from_edge_list(4, list(reversed(pairs)))
        c = from_edge_list(4, [(v, u) for u, v in pairs])
        assert a == b == c
        assert hash(a) == hash(b)

    def test_degree_sum(self):
        g = random_connected(30, 0.2, seed=3)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_keeps_only_adjacency(self):
        # the sorted neighbour tuples are the graph's one stored form
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = random_connected_m(2000, 10_000, seed=1)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert g.m == 10_000
        assert kept < 1 << 20, f"graph keeps {kept} bytes"

    def test_empty_graph_constructible(self):
        assert Graph(0).n == 0
        assert Graph(3).m == 0


class TestGraph6Parse:
    def test_k2(self):
        assert parse_graph6("A_") == Graph(2, [(0, 1)])

    def test_two_isolated(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.m == 0

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0

    def test_file_prefix_accepted(self):
        assert parse_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])

    def test_empty_input(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")

    def test_header_byte_out_of_range(self):
        # ':' is byte 58, below the graph6 alphabet
        with pytest.raises(Graph6ParseError, match="63..126"):
            parse_graph6(":")

    def test_extended_header_byte_out_of_range(self):
        # '!' is byte 33, the last of the three extended-header bytes
        with pytest.raises(Graph6ParseError, match=r"^header byte 33 outside 63\.\.126$"):
            parse_graph6("~?A!")

    def test_data_byte_out_of_range(self):
        with pytest.raises(Graph6ParseError, match="data byte"):
            parse_graph6("B:")

    def test_wrong_data_length(self):
        with pytest.raises(Graph6ParseError, match="data bytes"):
            parse_graph6("A")
        with pytest.raises(Graph6ParseError, match="data bytes"):
            parse_graph6("A__")

    def test_nonzero_padding_rejected(self):
        # n=2 uses 1 of 6 bits; byte 63 + 0b010000 sets a padding bit
        bad = "A" + chr(63 + 0b010000)
        with pytest.raises(Graph6ParseError, match="padding"):
            parse_graph6(bad)

    def test_eight_byte_header_rejected(self):
        with pytest.raises(Graph6ParseError, match="8-byte"):
            parse_graph6("~~" + "?" * 10)

    def test_non_canonical_extended_header_rejected(self):
        # n = 10 packed into the 4-byte form must be refused
        text = "~" + chr(63) + chr(63) + chr(63 + 10)
        with pytest.raises(Graph6ParseError, match="non-canonical"):
            parse_graph6(text)

    def test_truncated_extended_header(self):
        with pytest.raises(Graph6ParseError, match="truncated"):
            parse_graph6("~?")

    def test_non_ascii(self):
        with pytest.raises(Graph6ParseError, match="ASCII"):
            parse_graph6("Aé")

    def test_bad_last_byte_is_data_error_not_padding(self):
        # read as a group, ':' (58) and '>' (62) would also set padding bits;
        # the alphabet check comes first
        for n in (2, 3, 5, 11):
            nbits = n * (n - 1) // 2
            body = "?" * ((nbits + 5) // 6 - 1)
            for bad in (":", ">", "\x7f"):
                with pytest.raises(Graph6ParseError, match=f"data byte {ord(bad)} outside"):
                    parse_graph6(chr(63 + n) + body + bad)

    def test_padding_rejected_at_every_residue(self):
        residues = set()
        for n in range(2, 15):
            nbits = n * (n - 1) // 2
            padding = -nbits % 6
            if not padding:
                continue
            residues.add(nbits % 6)
            prefix = chr(63 + n) + "?" * ((nbits + 5) // 6 - 1)
            for p in range(padding):
                with pytest.raises(Graph6ParseError, match="padding"):
                    parse_graph6(prefix + chr(63 + (1 << p)))
            # the lowest bit above the padding is the last pair, (n-2, n-1)
            last = parse_graph6(prefix + chr(63 + (1 << padding)))
            assert last == Graph(n, [(n - 2, n - 1)])
        # n(n-1)/2 mod 6 takes only the values 0, 1, 3 and 4
        assert residues == {1, 3, 4}


class TestReadGraph6:
    def test_blank_lines_skipped_but_counted(self):
        with pytest.raises(Graph6ParseError, match="^line 4: "):
            list(read_graph6(["A_\n", "\n", "   \n", "%%%\n"]))

    def test_skip_bad_yields_none(self):
        got = list(read_graph6(["A_", "", "%%%", "@"], skip_bad=True))
        assert got == [Graph(2, [(0, 1)]), None, Graph(1)]

    def test_yielded_graph_does_not_keep_its_line(self):
        # n = 8,000 with one edge: a 5.3 MB line for a graph of under 100 KiB
        expected = Graph(8000, [(0, 7999)])
        size = len(write_graph6(expected)) + 1

        def lines():  # keeps no reference to the line it yields
            yield write_graph6(expected) + "\n"

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reader = read_graph6(lines())
            g = next(reader)
            held = tracemalloc.get_traced_memory()[0] - base
            reader.close()
        finally:
            tracemalloc.stop()
        assert g == expected
        assert held < size, f"{held} bytes held for a {size}-byte line"


_CHUNK = 1 << 16  # data bytes per slice of the codec


def _g6_line(n, marks=()):
    """A graph6 line of order n whose data bytes are '?' except at the
    (data index, character) marks; the header is valid."""
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    body = ["?"] * ((n * (n - 1) // 2 + 5) // 6)
    for at, char in marks:
        body[at] = char
    return header + "".join(body)


def _traced_peak(fn):
    """Traced bytes allocated at the peak of ``fn()`` above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# n = 3000 fills 749,750 data bytes, about 11.4 slices; n = 2999 has 5
# padding bits in its last byte.
_LAST_2999 = (2999 * 2998 // 2 + 5) // 6 - 1

# Every message below was frozen from the codec before it read in slices.
_FROZEN_ERRORS = {
    "empty": ("", "empty graph6 input"),
    "blank": (" \t\n", "empty graph6 input"),
    "prefix only": (">>graph6<<\n", "empty graph6 input"),
    "header below alphabet": (":", "header byte 58 outside 63..126"),
    "extended header byte": ("~?A!", "header byte 33 outside 63..126"),
    "eight-byte header": ("~~" + "?" * 10, "8-byte graph6 order header is not supported"),
    "truncated extended header": ("~?", "truncated extended order header"),
    "truncated after space and prefix": (" >>graph6<<~?\r\n", "truncated extended order header"),
    "non-canonical extended header": (
        "~??J", "non-canonical extended header for n=11 (fits single byte)"),
    "data byte": ("B:", "data byte 58 outside 63..126"),
    "short data": ("A", "expected 1 data bytes for n=2, got 0"),
    "long data": ("A__", "expected 1 data bytes for n=2, got 2"),
    "space inside": ("A _", "expected 1 data bytes for n=2, got 2"),
    "space after prefix": (">>graph6<< A_", "header byte 32 outside 63..126"),
    "padding": ("A" + chr(63 + 16), "nonzero padding bits"),
    "non-ASCII": ("A\u00e9", "graph6 input is not ASCII"),
    "lone surrogate": ("A\udce9", "graph6 input is not ASCII"),
    "non-ASCII inside whitespace": (" A\u00e9 ", "graph6 input is not ASCII"),
    "bad first byte of slice 2": (_g6_line(3000, [(_CHUNK, ":")]), "data byte 58 outside 63..126"),
    "bad last byte of slice 2": (
        _g6_line(3000, [(2 * _CHUNK - 1, "\x7f")]), "data byte 127 outside 63..126"),
    "bad bytes in slices 3 and 2 and a padding error": (
        _g6_line(2999, [(2 * _CHUNK + 5, "!"), (2 * _CHUNK - 1, ">"), (_LAST_2999, "@")]),
        "data byte 62 outside 63..126"),
    "bad last byte of a padded multi-slice line": (
        _g6_line(2999, [(_LAST_2999, ":")]), "data byte 58 outside 63..126"),
    "padding of a multi-slice line": (
        _g6_line(2999, [(_LAST_2999, chr(63 + 1))]), "nonzero padding bits"),
    "multi-slice line one byte short": (
        _g6_line(3000)[:-1] + "\n", "expected 749750 data bytes for n=3000, got 749749"),
}


class TestGraph6Slices:
    """The codec reads and writes a long line in 64 KiB slices of data bytes."""

    @pytest.mark.parametrize("name", list(_FROZEN_ERRORS))
    def test_frozen_error_messages(self, name):
        text, message = _FROZEN_ERRORS[name]
        with pytest.raises(Graph6ParseError) as info:
            parse_graph6(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", [
        " \t>>graph6<<{}\r\n", "{}\x1c\x1f", "\x0b{}\x0c", "\u00a0{}\u2003", "\n" * 70_000 + "{}",
    ])
    def test_whitespace_and_prefix_around_a_long_line(self, text):
        # str.strip() whitespace, ASCII or not, and runs longer than a slice
        g = random_connected_m(2999, 6000, seed=4)
        assert parse_graph6(text.format(write_graph6(g))) == g

    @pytest.mark.parametrize("n", [1100, 2999])
    def test_nx_round_trip_across_slices(self, n):
        # one pair at each side of every slice boundary, plus a sparse graph
        g = random_connected_m(n, 2 * n, seed=n)
        nbits = n * (n - 1) // 2
        bits = {i for b in range(6 * _CHUNK, nbits, 6 * _CHUNK) for i in (b - 1, b)}
        bits |= {0, nbits - 1}
        pairs = []
        for i in sorted(bits):
            v = next(v for v in range(1, n) if v * (v + 1) // 2 > i)
            pairs.append((i - v * (v - 1) // 2, v))
        g = Graph(n, sorted(g.edges) + pairs)
        line = write_graph6(g)
        assert from_nx(nx.from_graph6_bytes(line.encode())) == g
        assert parse_graph6(line + "\n") == g

    def test_parsed_pairs_share_one_int_per_vertex(self):
        g = parse_graph6(write_graph6(random_connected_m(1100, 5500, seed=2)))
        assert len({id(v) for a in g.adj for v in a}) <= g.n

    def test_parse_holds_one_copy_of_the_line(self):
        # the traced peak of parsing is the line once plus building the Graph
        g = random_connected_m(3000, 15_000, seed=3)
        line = write_graph6(g) + "\n"
        column_order = sorted(g.edges, key=lambda e: (e[1], e[0]))

        def build():
            vertex = list(range(g.n))
            return Graph(g.n, [(vertex[u], vertex[v]) for u, v in column_order])

        graph = _traced_peak(build)
        parsed = _traced_peak(lambda: parse_graph6(line))
        assert parsed < graph + 1.25 * len(line), (parsed, graph, len(line))

    def test_write_holds_one_copy_of_the_line(self):
        g = random_connected_m(3000, 15_000, seed=3)
        size = len(write_graph6(g))
        written = _traced_peak(lambda: write_graph6(g))
        assert written < 1.25 * size, (written, size)


class TestGraph6Write:
    def test_k2(self):
        assert write_graph6(Graph(2, [(0, 1)])) == "A_"

    def test_empty_two(self):
        assert write_graph6(Graph(2)) == "A?"

    def test_matches_nx_encoder(self):
        # independent encoder agreement on assorted graphs
        for g in (petersen(), prism(), random_connected(17, 0.3, seed=1)):
            expected = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
            assert write_graph6(g) == expected

    def test_parse_matches_nx_decoder(self):
        for seed in range(20):
            g = random_connected(11, 0.25, seed=seed)
            line = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
            assert parse_graph6(line) == g

    def test_round_trip_random(self):
        # encode-decode identity over a seeded corpus
        for seed in range(1000):
            g = random_connected(3 + seed % 14, (seed % 7) / 6, seed=seed)
            assert parse_graph6(write_graph6(g)) == g

    def test_write_parse_write_stable(self):
        for seed in range(50):
            g = random_connected(9, 0.4, seed=seed)
            line = write_graph6(g)
            assert write_graph6(parse_graph6(line)) == line

    def test_extended_header_round_trip(self):
        g = random_connected(70, 0.02, seed=9)
        line = write_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g
        expected = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert line == expected

    def test_disconnected_round_trip(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert parse_graph6(write_graph6(g)) == g

    @settings(max_examples=300, deadline=None, database=None)
    @given(graphs())
    def test_round_trip_property(self, g):
        line = write_graph6(g)
        assert line.startswith("~") == (g.n > 62)
        assert parse_graph6(line) == g
        assert line == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()

    def test_nx_agreement_extended_header(self):
        g = random_connected_m(1100, 3000, seed=5)
        expected = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert write_graph6(g) == expected
        assert parse_graph6(expected) == g

    def test_codec_never_imports_numpy(self):
        # the codec runs in the small-graph sweeps, which must stay numpy-free
        code = (
            "import sys; from wienerbound.graph import Graph, parse_graph6, write_graph6; "
            "g = Graph(2000, [(v - 1, v) for v in range(1, 2000)] + [(0, 1999)]); "
            "assert parse_graph6(write_graph6(g)) == g; "
            "assert 'numpy' not in sys.modules, 'numpy imported'"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr


class TestEdgeListText:
    def test_prism_round_trip(self):
        g = prism()
        assert parse_edge_list(write_edge_list(g)) == g

    def test_format_shape(self):
        text = write_edge_list(Graph(3, [(1, 2), (0, 1)]))
        assert text == "3 2\n0 1\n1 2\n"

    def test_parse_basic(self):
        g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
        assert g.n == 4 and g.m == 3

    def test_header_mismatch(self):
        with pytest.raises(ValueError, match="declares"):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_edge_list("3\n")

    def test_bad_edge_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("3 1\n0 x\n")

    def test_self_loop_in_file(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_edge_list("3 1\n1 1\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_edge_list("\n\n")

    @pytest.mark.parametrize("text, message", [
        ("3 x\n", "line 1: header must be two integers"),
        ("3 -1\n", "line 1: negative edge count"),
        ("3 1\n0 1 2\n", "line 2: edge line must be 'u v'"),
        ("3 1\n0 3\n", "line 2: edge (0, 3) out of range for n=3"),
        ("-1 0\n", "line 1: vertex count must be nonnegative, got -1"),
        ("3 2\n0 1\n\n2 2\n", "line 4: self-loop at vertex 2"),
    ], ids=["non-integer-header", "negative-m", "three-fields", "out-of-range", "negative-n",
            "self-loop"])
    def test_malformed_rejected(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_edge_list(text)

    @settings(max_examples=300, deadline=None, database=None)
    @given(pair_lists())
    def test_round_trip_property(self, case):
        n, pairs = case
        g = Graph(n, pairs)
        distinct = {(u, v) if u < v else (v, u) for u, v in pairs}
        assert g.m == len(distinct)
        assert g.edges == distinct
        back = parse_edge_list(write_edge_list(g))
        assert back == g and hash(back) == hash(g)
        assert repr(back) == f"Graph(n={n}, m={len(distinct)})"


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(Graph(5, [(i, i + 1) for i in range(4)]))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(Graph(1))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            is_connected(Graph(0))

    def test_matches_nx(self):
        for seed in range(30):
            g = from_nx(nx.gnp_random_graph(12, 0.15, seed=seed))
            assert is_connected(g) == nx.is_connected(to_nx(g))
