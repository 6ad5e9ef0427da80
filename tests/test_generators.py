import hashlib

import pytest

from wienerbound import diameter, is_connected, wiener_index
from wienerbound.generators import (
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
from wienerbound.rng import SplitMix64, stream


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

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_connected(5, 1.5, seed=0)


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
    ])
    def test_frozen_edge_lists(self, args, digest):
        # sha256 of repr(sorted(edges)), frozen from the float-sqrt pair inverse
        edges = sorted(random_connected_m(*args).edges)
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest


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
