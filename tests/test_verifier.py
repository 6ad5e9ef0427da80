import hashlib
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import types
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

from wienerbound import (
    DisconnectedGraphError,
    Graph,
    Graph6ParseError,
    NotApplicableError,
    evaluate,
    exhaustive_sweep,
    monotonicity_scan,
    parse_graph6,
    random_sweep,
    sharpness_scan,
    stream_sweep,
    triangle_property_check,
    write_graph6,
)
from wienerbound.bounds import bound_report
from wienerbound.generators import (
    _random_matrix,
    cycle,
    path,
    petersen,
    prism,
    random_connected,
    star,
)
from wienerbound.verifier import (
    TIGHT_EXAMPLE_CAP,
    SweepSummary,
    _corpus_report,
    _fold,
    _matrix_distances,
    _sweep_mask_range,
    iter_random_corpus,
    resolve_workers,
)

from oracles import to_nx

SRC = Path(__file__).resolve().parents[1] / "src"

# exhaustive labeled sweep totals; n <= 5 frozen from an independent
# networkx-based enumeration of all edge subsets, n = 6 and 7 from the
# per-mask BFS kernel that preceded the bit-sliced one (n = 7 also matches
# the benchmark's expected totals)
FROZEN_SWEEPS = {
    3: dict(graphs_checked=8, applicable=3, tight_count=3,
            skipped_disconnected=4, skipped_inapplicable=1,
            min_gap=0, max_gap=0),
    4: dict(graphs_checked=64, applicable=37, tight_count=37,
            skipped_disconnected=26, skipped_inapplicable=1,
            min_gap=0, max_gap=0),
    5: dict(graphs_checked=1024, applicable=727, tight_count=607,
            skipped_disconnected=296, skipped_inapplicable=1,
            min_gap=0, max_gap=1),
    6: dict(graphs_checked=32768, applicable=26703, tight_count=17103,
            skipped_disconnected=6064, skipped_inapplicable=1,
            min_gap=0, max_gap=3),
    7: dict(graphs_checked=2097152, applicable=1866255, tight_count=1047735,
            skipped_disconnected=230896, skipped_inapplicable=1,
            min_gap=0, max_gap=8),
}


# sha256 of the newline-joined tight examples an exhaustive sweep keeps (the
# first 100 in mask order), frozen from a sequential sweep
FROZEN_TIGHT_EXAMPLES = {
    5: "4d3e24fb10d80a4209d357344abe45443fa23c39289a2dc621ff1f5f86fa71a6",
    6: "86599bc69b2b543e9bdd4b22fb5b94e7fc6250d0a5736b142eef78ece341fcc8",
    7: "24cd64bbc38a2dd9e7597747897fbec18098945182be335d972053c150909cf4",
}


class PoolLog(list):
    """Sizes of the pools started, in order; ``methods`` holds their start methods."""

    def __init__(self):
        super().__init__()
        self.methods = []


@pytest.fixture
def fake_pool(monkeypatch):
    """A 3-CPU host whose pool records its size and runs in-process: no
    worker starts.  Returns the ``PoolLog`` of the pools asked for."""
    sizes = PoolLog()

    def get_context(method):
        sizes.methods.append(method)
        return FakeContext

    class FakePool:
        def __init__(self, k):
            sizes.append(k)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, spans):
            return [fn(*span) for span in spans]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return sizes


class TestExhaustiveSweep:
    @pytest.mark.parametrize("n", sorted(FROZEN_SWEEPS))
    def test_frozen_totals(self, n):
        summary = exhaustive_sweep(n, workers=1)
        for key, expected in FROZEN_SWEEPS[n].items():
            assert getattr(summary, key) == expected, key
        assert summary.violations == 0

    def test_order_range_enforced(self):
        with pytest.raises(ValueError):
            exhaustive_sweep(1)
        with pytest.raises(ValueError):
            exhaustive_sweep(8)

    def test_n2_has_no_applicable_graphs(self):
        summary = exhaustive_sweep(2, workers=1)
        assert summary.graphs_checked == 2
        assert summary.applicable == 0
        assert summary.skipped_inapplicable == 1  # the single edge

    def test_parallel_equals_sequential(self):
        seq = exhaustive_sweep(5, workers=1)
        par = exhaustive_sweep(5, workers=2)
        assert seq.to_dict() == par.to_dict()

    def test_pool_capped_at_cpu_count(self, fake_pool, monkeypatch):
        expected = exhaustive_sweep(4, workers=1).to_dict()
        assert exhaustive_sweep(4, workers=100_000).to_dict() == expected
        monkeypatch.setenv("WIENER_THREADS", "100000")
        assert exhaustive_sweep(4).to_dict() == expected
        assert fake_pool == [3, 3]

    def test_fork_unless_numpy_loaded(self, fake_pool, monkeypatch):
        # fork copies only the calling thread, and numpy may hold threads
        expected = exhaustive_sweep(4, workers=1).to_dict()
        monkeypatch.delitem(sys.modules, "numpy", raising=False)
        assert exhaustive_sweep(4, workers=3).to_dict() == expected
        monkeypatch.setitem(sys.modules, "numpy", types.ModuleType("numpy"))
        assert exhaustive_sweep(4, workers=3).to_dict() == expected
        assert fake_pool == [3, 3]
        assert fake_pool.methods == ["fork", "forkserver"]

    @pytest.mark.parametrize("n", sorted(FROZEN_TIGHT_EXAMPLES))
    def test_frozen_tight_examples(self, n, fake_pool):
        # the 3-worker run merges 12 partitions, so merge's truncation is pinned too
        for workers in (1, 3):
            examples = exhaustive_sweep(n, workers=workers).tight_examples
            assert len(examples) == 100
            digest = hashlib.sha256("\n".join(examples).encode()).hexdigest()
            assert digest == FROZEN_TIGHT_EXAMPLES[n], workers
        assert fake_pool == [3]

    def test_frozen_tight_examples_at_8(self):
        # block 0 holds more than 100 tight lanes, so its examples are those
        # of the full 2**28-mask sweep, whose totals stay outside tier-1
        summary = _sweep_mask_range(8, 0, 1 << 15)
        assert summary.tight_count == 942
        assert len(summary.tight_examples) == 100
        digest = hashlib.sha256("\n".join(summary.tight_examples).encode()).hexdigest()
        assert digest == "ec39fb5ef2a13c6c9381fa181a10d09855accdf1abc2f4b4eb84589638e7dd48"

    def test_tight_example_cap(self):
        summary = exhaustive_sweep(5, workers=1)
        assert len(summary.tight_examples) == TIGHT_EXAMPLE_CAP == 100
        assert summary.tight_count == FROZEN_SWEEPS[5]["tight_count"]

    def test_violation_path(self, monkeypatch):
        # no real graph violates the bound: a wrapper lowers every Wiener index
        # by 1, so the tight graphs become violations and gap 1 becomes tight
        from wienerbound import verifier

        real = verifier.bound_report
        monkeypatch.setattr(verifier, "bound_report", lambda n, m, d, w: real(n, m, d, w - 1))
        summary = exhaustive_sweep(5, workers=1)
        assert summary.violations == FROZEN_SWEEPS[5]["tight_count"] == 607
        assert summary.tight_count == 120
        assert (summary.min_gap, summary.max_gap) == (-1, 0)
        assert summary.applicable == FROZEN_SWEEPS[5]["applicable"]

    @pytest.mark.parametrize("n, lo, hi", [
        (6, 0, 1), (6, 5, 777), (6, 1000, 1001), (6, 12345, 13000),
        (6, 32000, 32768), (7, 32768 - 300, 32768 + 300),
        # 85 tight lanes before the block edge, so the 100 kept examples straddle it
        (7, 32768 - 100, 32768 + 1000),
        # n = 8 has 13 pair-bits above the block's: none, the lowest, all and a mix set
        (8, 5, 605), (8, 32768 - 300, 32768 + 300), (8, 2**28 - 600, 2**28),
        (8, (0b1010101010101 << 15) + 77, (0b1010101010101 << 15) + 700),
    ])
    def test_span_matches_stream(self, n, lo, hi):
        # unaligned spans and a block edge against the distance engine's path
        pairs = list(combinations(range(n), 2))
        lines = [write_graph6(Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))
                 for mask in range(lo, hi)]
        assert _sweep_mask_range(n, lo, hi).to_dict() == stream_sweep(lines).to_dict()

    def test_workers_agree_at_6(self, fake_pool):
        expected = exhaustive_sweep(6, workers=1).to_dict()
        assert exhaustive_sweep(6, workers=3).to_dict() == expected
        assert fake_pool == [3]

    def test_block_memory_bounded(self):
        # four blocks of 2**15 masks at n = 7 peak near 0.9 MiB, two live
        # blocks' planes; one block of 2**17 masks peaks above 2 MiB
        _sweep_mask_range(7, 0, 1 << 10)  # builds the cached planes every block shares
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _sweep_mask_range(7, 0, 1 << 17)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 << 19, peak  # 1.5 MiB

    @pytest.mark.parametrize("n", [6, 7])
    def test_tight_example_encoded_only_when_kept(self, n, monkeypatch):
        from wienerbound import verifier

        calls = []

        def counting_write(g):
            calls.append(g)
            return write_graph6(g)

        monkeypatch.setattr(verifier, "write_graph6", counting_write)
        summary = exhaustive_sweep(n, workers=1)
        assert summary.tight_count == FROZEN_SWEEPS[n]["tight_count"]
        assert len(calls) == TIGHT_EXAMPLE_CAP

    def test_examples_parse_and_are_tight(self):
        summary = exhaustive_sweep(4, workers=1)
        assert len(summary.tight_examples) == 37
        for g6 in summary.tight_examples:
            assert evaluate(parse_graph6(g6)).tight


class TestSweepSummary:
    @pytest.mark.parametrize("report", [
        bound_report(4, 3, 3, 10),  # tight: P4
        bound_report(4, 3, 3, 11),  # gap 1
        bound_report(4, 3, 3, 9),  # violation
        bound_report(4, 6, 1, 6),  # not applicable: K4
        bound_report(4, 5, 2, 7),  # tight at d = 2
        None,  # disconnected
    ])
    @pytest.mark.parametrize("k", [0, 1, 3, 150])
    def test_count_equals_single_records(self, report, k):
        # with 40 examples kept, k = 150 runs out of example room; k = 0 is no record
        bulk = SweepSummary(tight_examples=["x"] * 40)
        single = SweepSummary(tight_examples=["x"] * 40)
        bulk.record(report, lambda: "C~", count=k)
        for _ in range(k):
            single.record(report, lambda: "C~")
        assert bulk.to_dict() == single.to_dict()

    def test_negative_count_rejected(self):
        summary = SweepSummary()
        with pytest.raises(ValueError, match="nonnegative"):
            summary.record(bound_report(4, 3, 3, 11), lambda: "C~", count=-2)
        assert summary == SweepSummary()

    def test_violation_counted(self):
        # P4 has W = bound = 10, so a Wiener index of 9 is a violation
        def thunk():
            raise AssertionError("a violating graph is not a tight example")

        summary, other = SweepSummary(), SweepSummary()
        for s in (summary, other):
            s.record(bound_report(4, 3, 3, 9), thunk)
        assert summary.violations == 1
        assert summary.applicable == 1
        assert summary.tight_count == 0
        assert summary.min_gap == summary.max_gap == -1
        summary.merge(other)
        assert summary.violations == 2


class TestStreamSweep:
    def test_single_edge_not_applicable(self):
        summary = stream_sweep(["A_"])
        assert summary.graphs_checked == 1
        assert summary.applicable == 0
        assert summary.skipped_inapplicable == 1

    def test_sharp_witnesses_all_tight(self):
        lines = [write_graph6(g) for g in (path(5), star(4), prism(), petersen())]
        summary = stream_sweep(lines)
        assert summary.applicable == 4
        assert summary.tight_count == 4
        assert summary.violations == 0
        assert summary.tight_examples == lines

    def test_empty_stream(self):
        summary = stream_sweep([])
        assert summary.graphs_checked == 0
        assert summary.min_gap is None and summary.max_gap is None

    def test_blank_lines_ignored(self):
        summary = stream_sweep(["", "A_\n", "   \n"])
        assert summary.graphs_checked == 1

    def test_malformed_line_aborts_with_number(self):
        with pytest.raises(Graph6ParseError, match="line 2"):
            stream_sweep(["A_", "%%%"])

    def test_skip_bad_counts(self):
        summary = stream_sweep(["A_", "%%%", write_graph6(prism())], skip_bad=True)
        assert summary.parse_errors == 1
        assert summary.graphs_checked == 2
        assert summary.tight_count == 1

    def test_tight_example_encoded_only_when_kept(self, monkeypatch):
        from wienerbound import verifier

        calls = []

        def counting_write(g):
            calls.append(g)
            return write_graph6(g)

        monkeypatch.setattr(verifier, "write_graph6", counting_write)
        lines = [write_graph6(path(k)) for k in range(3, 110)]
        summary = stream_sweep(lines)
        assert summary.tight_count == 107
        assert summary.tight_examples == lines[:TIGHT_EXAMPLE_CAP]
        assert len(calls) == TIGHT_EXAMPLE_CAP

    def test_disconnected_counted(self):
        summary = stream_sweep([write_graph6(Graph(4, [(0, 1), (2, 3)]))])
        assert summary.skipped_disconnected == 1

    def test_agrees_with_exhaustive_on_labeled_stream(self):
        # stream every labeled 4-vertex graph in mask order: identical summary
        pairs = list(combinations(range(4), 2))
        lines = []
        for mask in range(1 << 6):
            edges = [pairs[i] for i in range(6) if mask >> i & 1]
            lines.append(write_graph6(Graph(4, edges)))
        assert stream_sweep(lines).to_dict() == exhaustive_sweep(4, workers=1).to_dict()

    def test_tight_classes_match_isomorph_free_enumeration(self):
        # the atlas gives one representative per isomorphism class on 4
        # vertices; tight classes must coincide with the exhaustive sweep's
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 4]
        lines = []
        for h in atlas:
            relabel = {v: i for i, v in enumerate(sorted(h.nodes))}
            lines.append(write_graph6(Graph(4, [(relabel[u], relabel[v]) for u, v in h.edges])))
        summary = stream_sweep(lines)
        assert summary.graphs_checked == 11
        assert summary.applicable == 5  # every connected class except K4
        assert summary.tight_count == 5
        assert summary.violations == 0
        atlas_tight = [to_nx(parse_graph6(g6)) for g6 in summary.tight_examples]
        labeled = exhaustive_sweep(4, workers=1)
        for g6 in labeled.tight_examples:
            g = to_nx(parse_graph6(g6))
            assert sum(nx.is_isomorphic(g, h) for h in atlas_tight) == 1


class TestRandomSweep:
    def test_deterministic(self):
        a = random_sweep(60, 25, seed=11)
        b = random_sweep(60, 25, seed=11)
        assert a.to_dict() == b.to_dict()

    def test_no_violations(self):
        summary = random_sweep(300, 30, seed=2)
        assert summary.graphs_checked == 300
        assert summary.violations == 0
        assert summary.applicable + summary.skipped_inapplicable == 300

    def test_argument_validation(self, fake_pool):
        with pytest.raises(ValueError):
            random_sweep(-1, 30, seed=0)
        with pytest.raises(ValueError):
            random_sweep(10, 2, seed=0)
        with pytest.raises(ValueError, match="^workers must be nonnegative$"):
            random_sweep(10, 30, seed=0, workers=-3)
        assert fake_pool == []

    def test_partition_equals_sequential(self, request):
        # 270 tight graphs; the first 100 lie in 5 of the fake pool's 12 spans,
        # so merge's in-order truncation of tight_examples is pinned
        expected = random_sweep(400, 8, seed=0, workers=1).to_dict()
        assert expected["tight_count"] == 270
        assert random_sweep(400, 8, seed=0, workers=2).to_dict() == expected
        pools = request.getfixturevalue("fake_pool")
        assert random_sweep(400, 8, seed=0, workers=3).to_dict() == expected
        assert random_sweep(400, 8, seed=0, workers=100_000).to_dict() == expected
        assert pools == [3, 3]

    def test_one_graph_starts_no_pool(self, fake_pool):
        assert random_sweep(0, 50, 0).graphs_checked == 0
        assert random_sweep(1, 50, 0).graphs_checked == 1
        assert fake_pool == []


class TestRandomKernel:
    # the bit-matrix kernel against the Graph path: orders above 62 take the
    # Graph path in the sweep, and both paths are checked there too
    @pytest.mark.parametrize("n", range(3, 71))
    def test_matches_evaluate(self, n):
        for p in (0.0, 0.01, 0.5, 1.0):
            for seed in range(3):
                g = random_connected(n, p, seed)
                expected = evaluate(g)
                kernel = _matrix_distances(n, _random_matrix(n, p, seed))
                assert kernel == (expected.m, expected.d, expected.wiener), (p, seed)
                report, graph6 = _corpus_report(n, p, seed)
                assert report == expected, (p, seed)
                assert graph6() == write_graph6(g)

    def test_disconnected_matrix_raises(self):
        # two disjoint edges, (0, 1) and (2, 3), at stride 4
        adj = sum(1 << (u * 4 + v) for u, v in ((0, 1), (1, 0), (2, 3), (3, 2)))
        with pytest.raises(DisconnectedGraphError):
            _matrix_distances(4, adj)

    def test_sweep_matches_graph_path(self, fake_pool):
        # orders 3..70 cross the fallback at 62
        expected = _fold(iter_random_corpus(300, 70, 4)).to_dict()
        for workers in (1, 2, 3):
            assert random_sweep(300, 70, seed=4, workers=workers).to_dict() == expected, workers
        assert fake_pool == [2, 3]

    def test_graph_free(self, monkeypatch):
        # below order 63 a Graph is built only for a tight example that is kept
        from wienerbound import generators, verifier

        calls = {"random_connected": 0, "Graph": 0, "write_graph6": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(generators, "random_connected",
                            counted("random_connected", generators.random_connected))
        monkeypatch.setattr(Graph, "__init__", counted("Graph", Graph.__init__))
        monkeypatch.setattr(verifier, "write_graph6", counted("write_graph6", verifier.write_graph6))
        summary = random_sweep(500, 50, 0, workers=1)
        assert summary.graphs_checked == 500
        assert calls["random_connected"] <= TIGHT_EXAMPLE_CAP
        assert calls["Graph"] <= TIGHT_EXAMPLE_CAP
        assert calls["write_graph6"] == len(summary.tight_examples) == TIGHT_EXAMPLE_CAP

    def test_no_tables_without_work(self):
        # `verify --random 0` is the benchmark's setup command: importing and
        # an empty sweep build no per-order masks and no exhaustive planes
        code = ("from wienerbound import cli, verifier; "
                "verifier.random_sweep(0, 50, 0); "
                "print(verifier._matrix_masks.cache_info().currsize, "
                "verifier._pair_planes.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "0 0\n"


class TestSharpnessScan:
    def test_paths(self):
        records = sharpness_scan("path", 3, 12)
        assert len(records) == 10
        assert all(r.report.tight for r in records)

    def test_stars_tight_for_every_leaf_count(self):
        # tightness holds for even leaf counts as well; worth surfacing
        records = sharpness_scan("star", 2, 11)
        assert all(r.report.tight for r in records)
        assert any(int(r.label[5:-1]) % 2 == 0 for r in records)

    def test_prism_and_petersen(self):
        (prism_rec,) = sharpness_scan("prism")
        (pet_rec,) = sharpness_scan("petersen")
        assert prism_rec.report.wiener == prism_rec.report.bound == 21
        assert pet_rec.report.wiener == pet_rec.report.bound == 75

    def test_graph6_round_trips(self):
        for rec in sharpness_scan("path", 3, 8):
            assert write_graph6(parse_graph6(rec.graph6)) == rec.graph6

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            sharpness_scan("wheel")

    def test_range_minimums(self):
        with pytest.raises(ValueError):
            sharpness_scan("path", 2, 5)
        with pytest.raises(ValueError):
            sharpness_scan("star", 1, 5)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="5:4"):
            sharpness_scan("path", 5, 4)
        with pytest.raises(ValueError, match="12:11"):
            sharpness_scan("star", 12)
        assert len(sharpness_scan("star", 4, 4)) == 1

    def test_single_graphs_take_no_range(self):
        with pytest.raises(ValueError, match="^family 'prism' takes no range$"):
            sharpness_scan("prism", 5, 4)
        with pytest.raises(ValueError, match="^family 'petersen' takes no range$"):
            sharpness_scan("petersen", stop=3)


class TestTriangleProperty:
    def test_c6(self):
        assert triangle_property_check(cycle(6))

    def test_random_trees(self):
        for seed in range(20):
            g = random_connected(12, 0.0, seed=seed)
            from wienerbound import diameter

            if diameter(g) >= 3 and g.n > diameter(g) + 1:
                assert triangle_property_check(g)

    def test_star_not_applicable(self):
        with pytest.raises(NotApplicableError, match="diameter"):
            triangle_property_check(star(4))

    def test_full_cover_not_applicable(self):
        with pytest.raises(NotApplicableError, match="covers"):
            triangle_property_check(path(6))


class TestMonotonicityScan:
    def test_petersen_parameters(self):
        report = monotonicity_scan(10, 15)
        assert report.values == (75, 76, 79, 89, 101, 118, 137, 159)
        assert report.non_decreasing
        assert report.first_decrease_d is None

    def test_small(self):
        assert monotonicity_scan(5, 4).values == (16, 17, 20)

    def test_single_value(self):
        report = monotonicity_scan(3, 2)
        assert report.values == (4,)
        assert report.non_decreasing

    def test_size_validated(self):
        with pytest.raises(ValueError):
            monotonicity_scan(5, 3)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("WIENER_THREADS", "5")
        assert resolve_workers(3) == 3

    def test_env_used(self, monkeypatch):
        monkeypatch.setenv("WIENER_THREADS", "5")
        assert resolve_workers(None) == 5

    def test_zero_means_default(self, monkeypatch):
        monkeypatch.setenv("WIENER_THREADS", "0")
        assert resolve_workers(None) >= 1

    def test_unset_means_default(self, monkeypatch):
        monkeypatch.delenv("WIENER_THREADS", raising=False)
        assert resolve_workers(None) >= 1

    def test_negative_env_rejected(self, monkeypatch):
        monkeypatch.setenv("WIENER_THREADS", "-2")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_non_integer_env_named(self, monkeypatch):
        monkeypatch.setenv("WIENER_THREADS", " abc ")
        with pytest.raises(ValueError, match="^WIENER_THREADS must be an integer, got 'abc'$"):
            resolve_workers(None)
