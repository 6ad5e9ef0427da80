import hashlib
from itertools import combinations

import pytest

from wienerbound import diameter, is_connected, wiener_index
from wienerbound.generators import (
    _random_tree_edges,
    cartesian_product,
    complete,
    cycle,
    path,
    petersen,
    prism,
    random_connected,
    random_connected_m,
    star,
)
from wienerbound.graph import Graph
from wienerbound.metrics import bfs_distances
from wienerbound.rng import _GOLDEN, _LANES, _MASK64, _MIX_A, _MIX_B, SplitMix64, stream
from wienerbound.verifier import iter_random_corpus, random_sweep


class TestNamedFamilies:
    def test_path(self):
        g = path(5)
        assert (g.n, g.m, diameter(g)) == (5, 4, 4)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})

    def test_star(self):
        g = star(5)
        assert (g.n, g.m, diameter(g)) == (6, 5, 2)
        assert g.degree(0) == 5

    def test_cycle(self):
        g = cycle(6)
        assert (g.n, g.m, diameter(g)) == (6, 6, 3)

    def test_complete(self):
        g = complete(4)
        assert (g.n, g.m, diameter(g)) == (4, 6, 1)

    def test_minimums_enforced(self):
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            star(0)
        with pytest.raises(ValueError):
            complete(0)

    def test_single_vertex_path(self):
        assert path(1).n == 1


class TestCartesianProduct:
    def test_prism(self):
        g = prism()
        assert (g.n, g.m, diameter(g)) == (6, 9, 2)

    def test_identity_factor(self):
        h = cycle(5)
        assert cartesian_product(complete(1), h) == h

    def test_square_of_edges_is_four_cycle(self):
        g = cartesian_product(path(2), path(2))
        assert (g.n, g.m, diameter(g)) == (4, 4, 2)

    def test_order_and_size_laws(self):
        for a, b in ((path(3), cycle(4)), (star(3), complete(3)), (cycle(5), path(2))):
            g = cartesian_product(a, b)
            assert g.n == a.n * b.n
            assert g.m == a.n * b.m + b.n * a.m

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            cartesian_product(Graph(0), path(2))


class TestPetersen:
    def test_counts(self):
        g = petersen()
        assert (g.n, g.m) == (10, 15)

    def test_three_regular(self):
        assert all(petersen().degree(v) == 3 for v in range(10))

    def test_diameter_two(self):
        assert diameter(petersen()) == 2

    def test_girth_five(self):
        # shortest cycle through each edge: drop the edge, distance between
        # its endpoints plus one is the best cycle length through it
        g = petersen()
        best = min(
            bfs_distances(Graph(10, set(g.edges) - {e}), e[0])[e[1]] + 1
            for e in g.edges
        )
        assert best == 5

    def test_wiener(self):
        assert wiener_index(petersen()) == 75


class TestRandomConnected:
    def test_zero_probability_gives_tree(self):
        for seed in (0, 7, 123):
            g = random_connected(20, 0.0, seed=seed)
            assert g.m == g.n - 1
            assert is_connected(g)

    def test_probability_one_gives_complete(self):
        g = random_connected(9, 1.0, seed=4)
        assert g.m == 9 * 8 // 2

    def test_always_connected(self):
        for seed in range(30):
            g = random_connected(3 + seed, (seed % 10) / 10, seed=seed)
            assert is_connected(g)
            assert g.n - 1 <= g.m <= g.n * (g.n - 1) // 2

    def test_reproducible(self):
        a = random_connected(30, 0.1, seed=42)
        b = random_connected(30, 0.1, seed=42)
        assert a == b

    def test_seed_changes_output(self):
        graphs = {random_connected(25, 0.3, seed=s) for s in range(6)}
        assert len(graphs) > 1

    def test_tiny_orders(self):
        assert random_connected(1, 0.5, seed=0).n == 1
        g2 = random_connected(2, 0.0, seed=0)
        assert g2.edges == frozenset({(0, 1)})

    def test_tree_of_two_draws_nothing(self):
        rng, twin = SplitMix64(5), SplitMix64(5)
        assert _random_tree_edges(2, rng) == [(0, 1)]
        assert rng.next_u64() == twin.next_u64()

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_connected(5, 1.5, seed=0)

    def test_matches_per_pair_draws(self):
        # n = 91 has 4,095 pairs (one block), n = 92 has 4,186 (two blocks)
        for n in (2, 3, 91, 92, 129):
            for p in (0.0, 0.05, 0.5, 1.0):
                for seed in (0, 7, 2**64 - 1):
                    root = SplitMix64(seed)
                    edges = _random_tree_edges(n, root.split())
                    draws = root.split()
                    edges += [pair for pair in combinations(range(n), 2) if draws.chance(p)]
                    assert random_connected(n, p, seed) == Graph(n, edges), (n, p, seed)


class TestRandomCorpus:
    # Frozen from the generator that drew every pair through SplitMix64.chance;
    # any faster draw loop must give the same graphs and the same sweep.
    def test_frozen_corpus_digest(self):
        corpus = [(g.n, sorted(g.edges)) for g in iter_random_corpus(500, 50, seed=0)]
        digest = hashlib.sha256(repr(corpus).encode()).hexdigest()
        assert digest == "11def54ef99fae09db7f5da064e367e386469fe310205dcb2cfbbdd2b32a1319"

    def test_frozen_sweep(self):
        summary = random_sweep(500, 50, seed=0).to_dict()
        tight = summary.pop("tight_examples")
        assert summary == {
            "graphs_checked": 500,
            "applicable": 481,
            "violations": 0,
            "tight_count": 331,
            "min_gap": 0,
            "max_gap": 3602,
            "skipped_disconnected": 0,
            "skipped_inapplicable": 19,
            "parse_errors": 0,
        }
        # sha256 of the kept graph6 lines, newline-joined, in sweep order
        assert len(tight) == 100
        assert hashlib.sha256("\n".join(tight).encode()).hexdigest() == (
            "12f53b0b80b393731e9b06b03b1288916c8bc6155f4abc185e9ce33b4ebad9d9"
        )


class TestRandomConnectedM:
    def test_exact_size(self):
        for m in (9, 20, 45):
            g = random_connected_m(10, m, seed=3)
            assert g.m == m and is_connected(g)

    def test_reproducible(self):
        assert random_connected_m(50, 120, seed=9) == random_connected_m(50, 120, seed=9)

    def test_size_range_enforced(self):
        with pytest.raises(ValueError):
            random_connected_m(10, 8, seed=0)
        with pytest.raises(ValueError):
            random_connected_m(10, 46, seed=0)

    @pytest.mark.parametrize("args, digest", [
        ((50, 120, 9), "dee2ed487f5a462556e5b60d9fe88728a18124bff0ccc0a5a4f028de5a79e6f2"),
        ((1100, 3000, 5), "71d69df3355ba698b4512a4c1ddf7f993af76afbe4babb0e97c44a410fba2af3"),
        ((2000, 10_000, 1), "130800ca50f092010b0a9dd8e92cedcd3032e420a93a151c4ee057b477ae5512"),
    ])
    def test_frozen_edge_lists(self, args, digest):
        # sha256 of repr(sorted(edges)), frozen from the float-sqrt pair inverse
        edges = sorted(random_connected_m(*args).edges)
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest

    def test_pairs_share_one_int_per_vertex(self):
        # the graph keeps one int object per vertex, not one per endpoint
        g = random_connected_m(2000, 10_000, seed=1)
        assert len({id(v) for a in g.adj for v in a}) <= g.n


def _unmix64(z):
    # inverse of the splitmix64 finalizer: each xorshift and odd product is a bijection
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31) * pow(_MIX_B, -1, 1 << 64) & _MASK64
    z = unshift(z, 27) * pow(_MIX_A, -1, 1 << 64) & _MASK64
    return unshift(z, 30)


class TestSplitMix64:
    def test_reference_vectors(self):
        # frozen outputs of the reference mixer for three seeds
        expected = {
            0: [16294208416658607535, 7960286522194355700,
                487617019471545679, 17909611376780542444],
            42: [13679457532755275413, 2949826092126892291,
                 5139283748462763858, 6349198060258255764],
            1234567: [6457827717110365317, 3203168211198807973,
                      9817491932198370423, 4593380528125082431],
        }
        for seed, outputs in expected.items():
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(4)] == outputs

    def test_below_is_in_range_and_deterministic(self):
        rng = SplitMix64(5)
        draws = [rng.below(13) for _ in range(500)]
        assert all(0 <= x < 13 for x in draws)
        rng2 = SplitMix64(5)
        assert draws == [rng2.below(13) for _ in range(500)]

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)

    def test_chance_extremes(self):
        rng = SplitMix64(11)
        assert not any(rng.chance(0.0) for _ in range(100))
        assert all(rng.chance(1.0) for _ in range(100))

    def test_chance_consumes_one_draw(self):
        a = SplitMix64(3)
        a.chance(0.0)
        b = SplitMix64(3)
        b.next_u64()
        assert a.next_u64() == b.next_u64()

    def test_chances_match_chance(self):
        for count in (0, 1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1):
            for p in (0.0, 1e-19, 0.5, 1 - 2**-53, 1.0):
                for seed in (0, 2**64 - 1, 12345):
                    blocks = list(SplitMix64(seed).chances(p, count))
                    assert [len(b) for b in blocks] == [
                        min(_LANES, count - lo) for lo in range(0, count, _LANES)
                    ]
                    rng = SplitMix64(seed)
                    expected = bytes(rng.chance(p) for _ in range(count))
                    block_rng = SplitMix64(seed)
                    lazy = block_rng.chances(p, count)
                    # the generator moves past every draw at the call
                    assert block_rng.next_u64() == rng.next_u64()
                    assert b"".join(lazy) == expected, (count, p, seed)

    def test_chances_exact_at_threshold(self):
        # random outputs never meet the threshold, so seed draw 1 to output
        # exactly threshold - 1, threshold or 2**64 - 1; draw 0's lane then
        # holds the low bits of draw 1 above bit 64 until the last per-lane mask
        for p in (0.0, 1e-19, 0.5, 1 - 2**-53, 1.0):
            threshold = int(p * (1 << 64))
            for z in (threshold - 1, threshold, _MASK64):
                if not 0 <= z <= _MASK64:
                    continue
                seed = (_unmix64(z) - 2 * _GOLDEN) & _MASK64
                rng = SplitMix64(seed)
                outputs = [rng.next_u64() for _ in range(3)]
                assert outputs[1] == z
                flags = b"".join(SplitMix64(seed).chances(p, 3))
                assert flags == bytes(out < threshold for out in outputs), (p, z)

    def test_chances_validated(self):
        for p in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                SplitMix64(0).chances(p, 3)
        with pytest.raises(ValueError):
            SplitMix64(0).chances(0.5, -1)

    def test_split_independent_of_parent_use(self):
        parent = SplitMix64(8)
        child = parent.split()
        first = child.next_u64()
        parent.next_u64()
        assert first != parent.next_u64()  # distinct streams

    def test_stream_matches_root_outputs(self):
        root = SplitMix64(99)
        outs = [root.next_u64() for _ in range(5)]
        for i, out in enumerate(outs):
            assert stream(99, i).next_u64() == SplitMix64(out).next_u64()

    def test_stream_index_validated(self):
        with pytest.raises(ValueError):
            stream(0, -1)
