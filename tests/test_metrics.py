import pytest

from wienerbound import (
    DisconnectedGraphError,
    Graph,
    bfs_distances,
    diameter,
    diametral_partition,
    diametral_path,
    distance_distribution,
    eccentricities,
    wiener_index,
)
from wienerbound.generators import (
    complete,
    cycle,
    path,
    petersen,
    prism,
    random_connected,
    star,
)
from wienerbound.metrics import _all_sources
from wienerbound.rng import SplitMix64

from oracles import nx_diameter, nx_distribution, nx_wiener


class TestBfs:
    def test_path_from_end(self):
        assert bfs_distances(path(5), 0) == [0, 1, 2, 3, 4]

    def test_complete(self):
        assert bfs_distances(complete(4), 2) == [1, 1, 0, 1]

    def test_petersen_profile(self):
        # 3-regular diameter-2: each vertex sees 3 at distance 1, 6 at 2
        for v in range(10):
            dist = bfs_distances(petersen(), v)
            assert sorted(dist) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            bfs_distances(Graph(4, [(0, 1), (2, 3)]), 0)

    def test_source_out_of_range(self):
        with pytest.raises(ValueError, match="source"):
            bfs_distances(path(3), 3)


class TestDistribution:
    def test_p4(self):
        assert distance_distribution(path(4)).counts == {1: 3, 2: 2, 3: 1}

    def test_k5(self):
        assert distance_distribution(complete(5)).counts == {1: 10}

    def test_prism(self):
        assert distance_distribution(prism()).counts == {1: 9, 2: 6}

    def test_single_vertex(self):
        dist = distance_distribution(Graph(1))
        assert dist.counts == {} and dist.wiener == 0 and dist.diameter == 0

    def test_pair_total_and_edge_count(self):
        for seed in range(25):
            g = random_connected(3 + seed, (seed % 5) / 4, seed=seed)
            dist = distance_distribution(g)
            assert dist.total_pairs == g.n * (g.n - 1) // 2
            assert dist.counts.get(1, 0) == g.m

    def test_matches_nx(self):
        for seed in range(25):
            g = random_connected(4 + seed % 20, (seed % 4) / 5, seed=100 + seed)
            assert dict(distance_distribution(g).counts) == nx_distribution(g)

    def test_engines_agree(self):
        # 63/64/65 straddle a uint64 word, 513 spills into a second block
        cases = [(150, seed) for seed in (0, 1, 2)]
        cases += [(n, 3) for n in (1, 2, 63, 64, 65, 513)]
        for n, seed in cases:
            g = random_connected(n, 0.02, seed=seed)
            a = distance_distribution(g, engine="python")
            b = distance_distribution(g, engine="blocked")
            assert dict(a.counts) == dict(b.counts)
            assert _all_sources(g, "python") == _all_sources(g, "blocked")

    def test_blocked_engine_detects_disconnection(self):
        two_paths = Graph(40, [(i, i + 1) for i in range(18)] + [(20 + i, 21 + i) for i in range(18)])
        isolated = Graph(5, [(0, 1), (1, 2), (2, 3)])
        # no isolated vertex; components 0..299 and 300..599 straddle the 512-source block edge
        split_blocks = Graph(600, [(i, i + 1) for i in range(599) if i != 299])
        for g in (two_paths, isolated, split_blocks):
            with pytest.raises(DisconnectedGraphError):
                distance_distribution(g, engine="blocked")

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            distance_distribution(path(3), engine="magic")


class TestWiener:
    def test_k2(self):
        assert wiener_index(complete(2)) == 1

    def test_p5(self):
        assert wiener_index(path(5)) == 20

    def test_petersen(self):
        # 15 pairs at distance 1 plus 30 pairs at distance 2
        assert wiener_index(petersen()) == 75

    def test_star5(self):
        assert wiener_index(star(5)) == 25

    def test_single_vertex(self):
        assert wiener_index(Graph(1)) == 0

    def test_matches_per_source_halving(self):
        for seed in range(10):
            g = random_connected(20, 0.15, seed=seed)
            doubled = sum(sum(bfs_distances(g, s)) for s in range(g.n))
            assert doubled % 2 == 0
            assert doubled // 2 == wiener_index(g)

    def test_isomorphism_invariant(self):
        rng = SplitMix64(77)
        for seed in range(10):
            g = random_connected(18, 0.2, seed=seed)
            perm = list(range(g.n))
            # Fisher-Yates with the portable generator
            for i in range(g.n - 1, 0, -1):
                j = rng.below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert wiener_index(h) == wiener_index(g)

    def test_edge_addition_never_increases(self):
        g = random_connected(14, 0.1, seed=5)
        w = wiener_index(g)
        present = set(g.edges)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if (u, v) in present:
                    continue
                bigger = Graph(g.n, list(g.edges) + [(u, v)])
                assert wiener_index(bigger) <= w


class TestDiameter:
    def test_complete(self):
        assert diameter(complete(7)) == 1

    def test_path(self):
        assert diameter(path(7)) == 6

    def test_petersen(self):
        assert diameter(petersen()) == 2

    def test_single_vertex(self):
        assert diameter(Graph(1)) == 0

    def test_matches_nx(self):
        for seed in range(20):
            g = random_connected(15, (seed % 6) / 10, seed=seed)
            assert diameter(g) == nx_diameter(g)

    def test_eccentricities(self):
        g = path(5)
        assert eccentricities(g) == [4, 3, 2, 3, 4]
        assert max(eccentricities(petersen())) == 2
        # n >= 1024: "auto" runs the bit-parallel engine
        assert eccentricities(path(1100)) == [max(i, 1099 - i) for i in range(1100)]
        assert set(eccentricities(cycle(1030))) == {515}


class TestDiametralPath:
    def test_path_graph(self):
        assert diametral_path(path(5)) == [0, 1, 2, 3, 4]
        assert diametral_path(path(1100)) == list(range(1100))

    def test_triangle_tie_break(self):
        assert diametral_path(complete(3)) == [0, 1]

    def test_c6_tie_break(self):
        # distance-3 pairs are (0,3), (1,4), (2,5); smallest is (0,3) and the
        # smallest-predecessor walk from 3 gives 2, then 1, then 0
        assert diametral_path(cycle(6)) == [0, 1, 2, 3]

    def test_k2(self):
        assert diametral_path(complete(2)) == [0, 1]

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            diametral_path(Graph(1))

    def test_is_shortest_path(self):
        for seed in range(20):
            g = random_connected(16, 0.12, seed=seed)
            p = diametral_path(g)
            d = diameter(g)
            assert len(p) == d + 1
            assert len(set(p)) == len(p)
            neighbors = {(min(a, b), max(a, b)) for a, b in zip(p, p[1:])}
            assert neighbors <= set(g.edges)
            assert bfs_distances(g, p[0])[p[-1]] == d


class TestDiametralPartition:
    def test_path_all_on(self):
        part = diametral_partition(path(5))
        assert (part.on_path_pairs, part.off_path_pairs, part.mixed_pairs) == (10, 0, 0)

    def test_c6(self):
        part = diametral_partition(cycle(6))
        assert part.diameter == 3
        assert (part.on_path_pairs, part.off_path_pairs, part.mixed_pairs) == (6, 1, 8)
        assert part.total_pairs == 15

    def test_petersen(self):
        part = diametral_partition(petersen())
        assert (part.on_path_pairs, part.off_path_pairs, part.mixed_pairs) == (3, 21, 21)
        assert part.total_pairs == 45

    def test_closed_forms_and_brute_classification(self):
        for seed in range(20):
            g = random_connected(5 + seed, (seed % 4) / 6, seed=seed)
            part = diametral_partition(g)
            n, d = g.n, part.diameter
            assert part.on_path_pairs == d * (d + 1) // 2
            assert part.off_path_pairs == (n - d - 1) * (n - d - 2) // 2
            assert part.mixed_pairs == (n - d - 1) * (d + 1)
            assert part.total_pairs == n * (n - 1) // 2
            on_path = set(part.path)
            brute = [0, 0, 0]
            for u in range(n):
                for v in range(u + 1, n):
                    brute[(u in on_path) + (v in on_path)] += 1
            assert brute == [part.off_path_pairs, part.mixed_pairs, part.on_path_pairs]
