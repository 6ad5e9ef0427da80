import multiprocessing
import os

import networkx as nx
import pytest

from wienerbound import (
    Graph,
    Graph6ParseError,
    NotApplicableError,
    exhaustive_sweep,
    monotonicity_scan,
    parse_graph6,
    random_sweep,
    sharpness_scan,
    stream_sweep,
    triangle_property_check,
    write_graph6,
)
from wienerbound.generators import cycle, path, petersen, prism, random_connected, star
from wienerbound.verifier import resolve_workers

from oracles import to_nx

# exhaustive labeled sweep totals, frozen from an independent
# networkx-based enumeration of all edge subsets
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
}


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

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # a fake pool records its size and runs in-process: no worker starts
        sizes = []

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

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        expected = exhaustive_sweep(4, workers=1).to_dict()
        assert exhaustive_sweep(4, workers=100_000).to_dict() == expected
        monkeypatch.setenv("WIENER_THREADS", "100000")
        assert exhaustive_sweep(4).to_dict() == expected
        assert sizes == [3, 3]

    def test_tight_example_cap(self):
        summary = exhaustive_sweep(5, workers=1, tight_example_cap=10)
        assert len(summary.tight_examples) == 10
        assert summary.tight_count == FROZEN_SWEEPS[5]["tight_count"]

    def test_examples_parse_and_are_tight(self):
        from wienerbound import evaluate

        summary = exhaustive_sweep(4, workers=1)
        assert len(summary.tight_examples) == 37
        for g6 in summary.tight_examples:
            assert evaluate(parse_graph6(g6)).tight


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
        lines = [write_graph6(g) for g in (path(5), star(4), prism(), petersen())]
        summary = stream_sweep(lines, tight_example_cap=1)
        assert summary.tight_count == 4
        assert summary.tight_examples == lines[:1]
        assert len(calls) == 1

    def test_disconnected_counted(self):
        summary = stream_sweep([write_graph6(Graph(4, [(0, 1), (2, 3)]))])
        assert summary.skipped_disconnected == 1

    def test_agrees_with_exhaustive_on_labeled_stream(self):
        # stream every labeled 4-vertex graph in mask order: identical summary
        from itertools import combinations

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

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            random_sweep(-1, 30, seed=0)
        with pytest.raises(ValueError):
            random_sweep(10, 2, seed=0)


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
