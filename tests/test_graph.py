import os
import subprocess
import sys
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

    def test_nx_agreement_past_engine_switch(self):
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
