"""Bound verification at scale: exhaustive labeled sweeps over all small
graphs, graph6 stream sweeps, seeded random sweeps, sharpness scans, and the
triangle-inequality property behind the off-path excess term.

Sweeps aggregate into a commutative-monoid summary, so partitioned parallel
runs and single-threaded runs produce identical results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable

from . import generators
from .bounds import BoundReport, bound_report, evaluate, wiener_lower_bound
from .errors import DisconnectedGraphError, NotApplicableError
from .graph import Graph, read_graph6, write_graph6
from .metrics import _bfs, diametral_path
from .rng import stream

DEFAULT_TIGHT_EXAMPLE_CAP = 100
_EXHAUSTIVE_MAX_N = 7

SHARPNESS_FAMILIES = ("path", "star", "prism", "petersen")


@dataclass
class SweepSummary:
    """Aggregated result of a verification sweep.

    ``violations`` counts graphs whose Wiener index falls below the bound;
    any nonzero value disproves soundness.  ``tight_examples`` holds graph6
    strings of bound-attaining graphs, capped by the sweep's example cap.
    """

    graphs_checked: int = 0
    applicable: int = 0
    violations: int = 0
    tight_count: int = 0
    min_gap: int | None = None
    max_gap: int | None = None
    tight_examples: list[str] = field(default_factory=list)
    skipped_disconnected: int = 0
    skipped_inapplicable: int = 0
    parse_errors: int = 0

    def record(self, report: BoundReport, graph6: Callable[[], str], cap: int) -> None:
        """Fold the BoundReport of one connected graph into the summary.

        A report that does not apply counts under ``skipped_inapplicable``.
        ``graph6`` encodes the graph; it is called only for a tight example
        that is kept.
        """
        if not report.applicable:
            self.skipped_inapplicable += 1
            return
        self.applicable += 1
        gap = report.gap
        if self.min_gap is None or gap < self.min_gap:
            self.min_gap = gap
        if self.max_gap is None or gap > self.max_gap:
            self.max_gap = gap
        if gap < 0:
            self.violations += 1
        elif gap == 0:
            self.tight_count += 1
            if len(self.tight_examples) < cap:
                self.tight_examples.append(graph6())

    def merge(self, other: "SweepSummary", cap: int) -> None:
        """Associative, order-respecting fold of a partition's summary."""
        self.graphs_checked += other.graphs_checked
        self.applicable += other.applicable
        self.violations += other.violations
        self.tight_count += other.tight_count
        if other.min_gap is not None:
            self.min_gap = other.min_gap if self.min_gap is None else min(self.min_gap, other.min_gap)
        if other.max_gap is not None:
            self.max_gap = other.max_gap if self.max_gap is None else max(self.max_gap, other.max_gap)
        room = cap - len(self.tight_examples)
        if room > 0:
            self.tight_examples.extend(other.tight_examples[:room])
        self.skipped_disconnected += other.skipped_disconnected
        self.skipped_inapplicable += other.skipped_inapplicable
        self.parse_errors += other.parse_errors

    def to_dict(self) -> dict:
        """JSON-ready mapping with a stable field order."""
        return {
            "graphs_checked": self.graphs_checked,
            "applicable": self.applicable,
            "violations": self.violations,
            "tight_count": self.tight_count,
            "min_gap": self.min_gap,
            "max_gap": self.max_gap,
            "tight_examples": list(self.tight_examples),
            "skipped_disconnected": self.skipped_disconnected,
            "skipped_inapplicable": self.skipped_inapplicable,
            "parse_errors": self.parse_errors,
        }


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else WIENER_THREADS, else CPU count."""
    if workers is None:
        env = os.environ.get("WIENER_THREADS", "").strip()
        workers = int(env) if env else 0
        if workers < 0:
            raise ValueError("WIENER_THREADS must be nonnegative")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def _sweep_mask_range(
    n: int, lo: int, hi: int, cap: int
) -> SweepSummary:
    """Evaluate every labeled graph whose edge-subset index lies in [lo, hi).

    Adjacency is kept as per-vertex bitmasks; BFS expands whole frontiers
    with bitwise or, which keeps the 2^21-graph sweep at n = 7 cheap.  The
    search from vertex 0 decides connectivity.
    """
    pairs = list(combinations(range(n), 2))
    summary = SweepSummary()
    full = (1 << n) - 1
    for mask in range(lo, hi):
        summary.graphs_checked += 1
        adj = [0] * n
        mm = mask
        while mm:
            low = mm & -mm
            u, v = pairs[low.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            mm ^= low
        double_wiener = 0
        diam = 0
        for src in range(n):
            seen = 1 << src
            frontier = seen
            k = 0
            while True:
                nxt = 0
                t = frontier
                while t:
                    low = t & -t
                    nxt |= adj[low.bit_length() - 1]
                    t ^= low
                nxt &= ~seen
                if not nxt:
                    break
                k += 1
                double_wiener += k * nxt.bit_count()
                seen |= nxt
                frontier = nxt
            if seen != full:
                break
            if k > diam:
                diam = k
        if seen != full:
            summary.skipped_disconnected += 1
            continue
        summary.record(
            bound_report(n, mask.bit_count(), diam, double_wiener // 2),
            lambda mask=mask: write_graph6(Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])),
            cap,
        )
    return summary


def exhaustive_sweep(
    n: int,
    workers: int | None = None,
    tight_example_cap: int = DEFAULT_TIGHT_EXAMPLE_CAP,
) -> SweepSummary:
    """Check the bound on every labeled graph of order n, 2 <= n <= 7.

    Iterates all 2^(n(n-1)/2) edge subsets; disconnected graphs and graphs of
    diameter < 2 are skipped and counted.  Parallel runs partition the index
    range and merge partial summaries in order, so the result is identical to
    a single-threaded run.  The pool never has more processes than the CPU
    count, whatever ``workers`` or WIENER_THREADS asks for.
    """
    if not 2 <= n <= _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive sweep supports 2 <= n <= {_EXHAUSTIVE_MAX_N}, got {n}")
    total = 1 << (n * (n - 1) // 2)
    workers = min(resolve_workers(workers), total, os.cpu_count() or 1)
    if workers == 1:
        return _sweep_mask_range(n, 0, total, tight_example_cap)
    import multiprocessing as mp

    chunks = workers * 4
    step = (total + chunks - 1) // chunks
    spans = [(n, lo, min(lo + step, total), tight_example_cap)
             for lo in range(0, total, step)]
    with mp.get_context("fork").Pool(workers) as pool:
        partials = pool.starmap(_sweep_mask_range, spans)
    summary = SweepSummary()
    for part in partials:
        summary.merge(part, tight_example_cap)
    return summary


def _fold(graphs: Iterable[Graph | None], cap: int) -> SweepSummary:
    """The sweep driver for graph iterables; None stands for a line that did
    not parse."""
    summary = SweepSummary()
    for g in graphs:
        if g is None:
            summary.parse_errors += 1
            continue
        summary.graphs_checked += 1
        if g.n == 0:  # the distance pass needs a vertex
            summary.skipped_inapplicable += 1
            continue
        try:
            report = evaluate(g)
        except DisconnectedGraphError:
            summary.skipped_disconnected += 1
            continue
        summary.record(report, lambda g=g: write_graph6(g), cap)
    return summary


def stream_sweep(
    lines: Iterable[str],
    skip_bad: bool = False,
    tight_example_cap: int = DEFAULT_TIGHT_EXAMPLE_CAP,
) -> SweepSummary:
    """Aggregate the bound check over a stream of graph6 lines.

    Blank lines are ignored.  A malformed line aborts with its line number
    unless ``skip_bad`` is set, in which case it is counted and skipped.
    """
    return _fold(read_graph6(lines, skip_bad), tight_example_cap)


def iter_random_corpus(count: int, max_order: int, seed: int) -> Iterable[Graph]:
    """The seeded mixed-density corpus behind ``random_sweep``.

    Instance i draws its order from [3, max_order] and its extra-edge
    probability from {0.00, 0.01, ..., 1.00} on an independent stream, so the
    corpus is reproducible and independent of evaluation order.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if max_order < 3:
        raise ValueError(f"max order must be >= 3, got {max_order}")
    for i in range(count):
        rng = stream(seed, i)
        order = 3 + rng.below(max_order - 2)
        prob = rng.below(101) / 100
        yield generators.random_connected(order, prob, seed=rng.next_u64())


def random_sweep(
    count: int,
    max_order: int,
    seed: int,
    tight_example_cap: int = DEFAULT_TIGHT_EXAMPLE_CAP,
) -> SweepSummary:
    """Check the bound on seeded random connected graphs of mixed density."""
    return _fold(iter_random_corpus(count, max_order, seed), tight_example_cap)


@dataclass(frozen=True)
class SharpnessRecord:
    """Bound report for one named witness instance."""

    label: str
    graph6: str
    report: BoundReport


def sharpness_scan(
    family: str,
    start: int | None = None,
    stop: int | None = None,
) -> list[SharpnessRecord]:
    """Evaluate the bound on a named witness family.

    ``path`` ranges over vertex counts (default 3..12), ``star`` over leaf
    counts (default 2..11); ``prism`` and ``petersen`` are single graphs.
    Every instance is expected tight; the caller inspects the flags.
    """
    if family not in SHARPNESS_FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick one of {SHARPNESS_FAMILIES}")
    instances: list[tuple[str, Graph]] = []
    if family == "path":
        lo, hi = (3 if start is None else start), (12 if stop is None else stop)
        if lo < 3:
            raise ValueError("path sharpness needs n >= 3 (diameter >= 2)")
        instances = [(f"path({n})", generators.path(n)) for n in range(lo, hi + 1)]
    elif family == "star":
        lo, hi = (2 if start is None else start), (11 if stop is None else stop)
        if lo < 2:
            raise ValueError("star sharpness needs m >= 2 leaves (diameter 2)")
        instances = [(f"star({m})", generators.star(m)) for m in range(lo, hi + 1)]
    elif family == "prism":
        instances = [("prism", generators.prism())]
    else:
        instances = [("petersen", generators.petersen())]
    return [
        SharpnessRecord(label=label, graph6=write_graph6(g), report=evaluate(g))
        for label, g in instances
    ]


def triangle_property_check(g: Graph) -> bool:
    """Check the triangle-inequality floor behind the off-path excess term.

    For the chosen diametral path u_0..u_d, every off-path vertex w and every
    0 <= i <= floor((d-3)/2) must satisfy
    d(u_i, w) + d(w, u_{d-i}) >= d - 2i.  Requires d >= 3 and at least one
    off-path vertex.
    """
    dpath = diametral_path(g) if g.n != 1 else [0]  # one vertex: diameter 0
    d = len(dpath) - 1
    if d < 3:
        raise NotApplicableError(f"triangle property needs diameter >= 3, got {d}")
    on_path = set(dpath)
    off_path = [w for w in range(g.n) if w not in on_path]
    if not off_path:
        raise NotApplicableError("diametral path covers every vertex")
    for i in range((d - 3) // 2 + 1):
        near, far = _bfs(g, dpath[i]), _bfs(g, dpath[d - i])
        if any(near[w] + far[w] < d - 2 * i for w in off_path):
            return False
    return True


@dataclass(frozen=True)
class MonotonicityReport:
    """Bound values over d = 2..n-1 for fixed (n, m)."""

    n: int
    m: int
    values: tuple[int, ...]
    non_decreasing: bool
    first_decrease_d: int | None


def monotonicity_scan(n: int, m: int) -> MonotonicityReport:
    """Scan the bound across all feasible diameters for fixed order and size.

    A decrease is a reportable finding, not a failure: nothing guarantees the
    bound grows with d, it is merely expected.
    """
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"m must be in [{n - 1}, {n * (n - 1) // 2}] for n={n}")
    values = tuple(wiener_lower_bound(n, m, d) for d in range(2, n))
    first_decrease = None
    for i in range(1, len(values)):
        if values[i] < values[i - 1]:
            first_decrease = i + 2
            break
    return MonotonicityReport(
        n=n, m=m, values=values,
        non_decreasing=first_decrease is None,
        first_decrease_d=first_decrease,
    )
