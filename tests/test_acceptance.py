"""Acceptance suite: one test per criterion, each asserting its exact
tolerance (integer equality unless stated otherwise) and printing one
PASS line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time
from itertools import combinations

from wienerbound import (
    Graph,
    diameter,
    diametral_partition,
    evaluate,
    exhaustive_sweep,
    moore_bound,
    moore_diameter_lower_bound,
    off_path_vertex_excess,
    parse_graph6,
    path_pair_excess,
    random_sweep,
    triangle_property_check,
    wiener_index,
    write_graph6,
)
from wienerbound.generators import (
    path,
    petersen,
    prism,
    random_connected,
    random_connected_m,
    star,
)
from wienerbound.rng import stream
from wienerbound.verifier import iter_random_corpus

from oracles import minplus_wiener, off_path_excess_direct, path_excess_direct

SEED = 20260809
RANDOM_COUNT = 10_000
RANDOM_MAX_ORDER = 50


def _witnesses():
    graphs = [path(n) for n in range(3, 33)]
    graphs += [star(m) for m in range(2, 32)]
    graphs += [prism(), petersen()]
    return graphs


def _passed(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def test_criterion_01_sharpness_witnesses():
    t0 = time.time()
    for g in _witnesses():
        report = evaluate(g)
        assert report.gap == 0, (g.n, g.m)
    assert evaluate(petersen()).wiener == 75
    assert evaluate(prism()).wiener == 21
    assert evaluate(path(5)).wiener == 20
    _passed(1, f"paths n=3..32, stars m=2..31, prism, petersen all attain "
               f"the bound ({time.time() - t0:.2f}s)")


def test_criterion_02_exhaustive_soundness():
    t0 = time.time()
    totals = {}
    for n in range(3, 8):
        summary = exhaustive_sweep(n)
        assert summary.violations == 0, f"violation at order {n}"
        assert summary.tight_count >= 1, f"no tight graph at order {n}"
        totals[n] = (summary.applicable, summary.tight_count)
    _passed(2, f"all labeled connected graphs, orders 3..7, zero violations; "
               f"applicable/tight per order {totals} ({time.time() - t0:.1f}s)")


def test_criterion_03_randomized_soundness():
    t0 = time.time()
    summary = random_sweep(RANDOM_COUNT, RANDOM_MAX_ORDER, seed=SEED)
    assert summary.graphs_checked == RANDOM_COUNT
    assert summary.violations == 0
    _passed(3, f"{RANDOM_COUNT} seeded random connected graphs (n <= "
               f"{RANDOM_MAX_ORDER}), zero violations ({time.time() - t0:.1f}s)")


def test_criterion_04_diameter_two_equality_law():
    found = 0
    i = 0
    while found < 1000:
        assert i < 30_000, "could not collect 1000 diameter-2 graphs"
        rng = stream(SEED + 4, i)
        i += 1
        n = 4 + rng.below(27)
        p = (30 + rng.below(61)) / 100
        g = random_connected(n, p, seed=rng.next_u64())
        if diameter(g) != 2:
            continue
        found += 1
        assert wiener_index(g) == g.n * (g.n - 1) - g.m
    _passed(4, f"wiener = n(n-1) - m exactly on 1000 diameter-2 graphs "
               f"(from {i} candidates)")


def test_criterion_05_closed_form_equivalence():
    for d in range(2, 201):
        assert path_pair_excess(d) == path_excess_direct(d)
    for d in range(3, 202):
        assert off_path_vertex_excess(d) == off_path_excess_direct(d)
    _passed(5, "on-path excess d=2..200 and per-vertex off-path excess "
               "d=3..201 match their direct summations")


def test_criterion_06_partition_cardinalities():
    checked = 0
    i = 0
    while checked < 500:
        assert i < 5000, "could not collect 500 applicable graphs"
        rng = stream(SEED + 6, i)
        i += 1
        n = 3 + rng.below(58)
        p = rng.below(101) / 100
        g = random_connected(n, p, seed=rng.next_u64())
        part = diametral_partition(g)
        d = part.diameter
        if d < 2:
            continue
        checked += 1
        assert part.on_path_pairs == d * (d + 1) // 2
        assert part.off_path_pairs == (g.n - d - 1) * (g.n - d - 2) // 2
        assert part.mixed_pairs == (g.n - d - 1) * (d + 1)
        assert part.total_pairs == g.n * (g.n - 1) // 2
    _passed(6, "partition sizes match the three closed forms on 500 random "
               "connected graphs (n <= 60, d >= 2)")


def test_criterion_07_triangle_inequality_property():
    checked = 0
    i = 0
    while checked < 200:
        assert i < 5000, "could not collect 200 graphs with d >= 3"
        rng = stream(SEED + 7, i)
        i += 1
        n = 5 + rng.below(36)
        p = rng.below(9) / 100
        g = random_connected(n, p, seed=rng.next_u64())
        d = diameter(g)
        if d < 3 or g.n == d + 1:
            continue
        checked += 1
        assert triangle_property_check(g)
    _passed(7, "distance floor d(u_i,w) + d(w,u_{d-i}) >= d - 2i holds for "
               "every off-path vertex on 200 random graphs with d >= 3")


def test_criterion_08_moore_inversion():
    assert moore_bound(3, 2).n_max == 10
    for delta in range(2, 9):
        ladder = [moore_bound(delta, 1).n_max]
        pointer = 0  # smallest index with ladder[pointer] >= n
        for n in range(2, 10_001):
            while ladder[pointer] < n:
                pointer += 1
                if pointer == len(ladder):
                    ladder.append(moore_bound(delta, pointer + 1).n_max)
            d = moore_diameter_lower_bound(n, delta)
            assert d == pointer + 1, (delta, n)
            assert moore_bound(delta, d).n_max >= n
            assert d == 1 or moore_bound(delta, d - 1).n_max < n
    _passed(8, "diameter floor minimal for all delta=2..8, n=2..10^4; "
               "moore_bound(3, 2) = 10")


def test_criterion_09_oracle_equivalence():
    for i in range(100):
        rng = stream(SEED + 9, i)
        n = 5 + rng.below(36)
        p = rng.below(101) / 100
        g = random_connected(n, p, seed=rng.next_u64())
        assert wiener_index(g) == minplus_wiener(g)
    _passed(9, "repeated-BFS wiener equals the min-plus distance-matrix "
               "relaxation oracle on 100 random graphs (n <= 40)")


def test_criterion_10_performance_floor():
    g = random_connected_m(10_000, 50_000, seed=42)
    t0 = time.time()
    w = wiener_index(g)
    elapsed = time.time() - t0
    assert w > 0
    assert elapsed <= 60, f"wiener index took {elapsed:.1f}s"
    _passed(10, f"n=10000, m=50000 wiener index = {w} in {elapsed:.1f}s "
                f"(limit 60s)")


def test_criterion_11_graph6_round_trip():
    t0 = time.time()
    count = 0
    for g in _witnesses():  # criterion 1 graphs
        assert parse_graph6(write_graph6(g)) == g
        count += 1
    # criterion 2 graphs: every connected labeled graph of order 3..7
    connected = {}
    for n in range(3, 8):
        connected[n] = 0
        pairs = list(combinations(range(n), 2))
        full = (1 << n) - 1
        for mask in range(1 << len(pairs)):
            adj = [0] * n
            mm = mask
            while mm:
                low = mm & -mm
                u, v = pairs[low.bit_length() - 1]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                mm ^= low
            reached = 1
            while True:
                grown = reached
                t = reached
                while t:
                    low = t & -t
                    grown |= adj[low.bit_length() - 1]
                    t ^= low
                if grown == reached:
                    break
                reached = grown
            if reached != full:
                continue
            g = Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
            assert parse_graph6(write_graph6(g)) == g
            connected[n] += 1
            count += 1
    # connected labeled graphs on n vertices, OEIS A001187
    assert connected == {3: 4, 4: 38, 5: 728, 6: 26_704, 7: 1_866_256}
    # criterion 3 graphs: the same seeded random corpus
    for g in iter_random_corpus(RANDOM_COUNT, RANDOM_MAX_ORDER, seed=SEED):
        assert parse_graph6(write_graph6(g)) == g
        count += 1
    _passed(11, f"encode-decode identity on {count} graphs from criteria 1-3 "
                f"({time.time() - t0:.1f}s)")
