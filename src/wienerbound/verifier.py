"""Bound verification at scale: exhaustive labeled sweeps over all small
graphs, graph6 stream sweeps, seeded random sweeps, sharpness scans, and the
triangle-inequality property behind the off-path excess term.

Sweeps aggregate into a commutative-monoid summary, so partitioned parallel
runs and single-threaded runs produce identical results.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator

from . import generators
from .bounds import BoundReport, bound_report, evaluate, wiener_lower_bound
from .errors import DisconnectedGraphError, NotApplicableError
from .graph import Graph, _bfs, read_graph6, write_graph6
from .metrics import diametral_path
from .rng import stream

TIGHT_EXAMPLE_CAP = 100
_EXHAUSTIVE_MAX_N = 7

# A family name is the name of its generator in ``generators``.
SHARPNESS_FAMILIES = ("path", "star", "prism", "petersen")
# default (first, last) parameter of a ranged family, and why it starts there
_SCAN_RANGES = {
    "path": (3, 12, "path sharpness needs n >= 3 (diameter >= 2)"),
    "star": (2, 11, "star sharpness needs m >= 2 leaves (diameter 2)"),
}


@dataclass
class SweepSummary:
    """Aggregated result of a verification sweep.

    ``violations`` counts graphs whose Wiener index falls below the bound;
    any nonzero value disproves soundness.  ``tight_examples`` holds graph6
    strings of the first ``TIGHT_EXAMPLE_CAP`` bound-attaining graphs.
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

    def record(self, report: BoundReport | None, graph6: Callable[[], str]) -> None:
        """Fold one checked graph into the summary.

        ``None`` stands for a disconnected graph, counted under
        ``skipped_disconnected``; a report that does not apply counts under
        ``skipped_inapplicable``.  ``graph6`` encodes the graph; it is called
        only for a tight example that is kept.
        """
        self.graphs_checked += 1
        if report is None:
            self.skipped_disconnected += 1
            return
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
            if len(self.tight_examples) < TIGHT_EXAMPLE_CAP:
                self.tight_examples.append(graph6())

    def merge(self, other: "SweepSummary") -> None:
        """Associative, order-respecting fold of a partition's summary."""
        self.graphs_checked += other.graphs_checked
        self.applicable += other.applicable
        self.violations += other.violations
        self.tight_count += other.tight_count
        if other.min_gap is not None:
            self.min_gap = other.min_gap if self.min_gap is None else min(self.min_gap, other.min_gap)
        if other.max_gap is not None:
            self.max_gap = other.max_gap if self.max_gap is None else max(self.max_gap, other.max_gap)
        room = TIGHT_EXAMPLE_CAP - len(self.tight_examples)
        if room > 0:
            self.tight_examples.extend(other.tight_examples[:room])
        self.skipped_disconnected += other.skipped_disconnected
        self.skipped_inapplicable += other.skipped_inapplicable
        self.parse_errors += other.parse_errors

    def to_dict(self) -> dict:
        """JSON-ready mapping in field order."""
        return asdict(self)


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else WIENER_THREADS, else CPU count.

    Zero picks the CPU count; a negative count from either source, or a
    WIENER_THREADS that is not an integer, is an error.
    """
    source = "workers"
    if workers is None:
        source = "WIENER_THREADS"
        env = os.environ.get(source, "").strip()
        try:
            workers = int(env) if env else 0
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {env!r}") from None
    if workers < 0:
        raise ValueError(f"{source} must be nonnegative")
    return workers or os.cpu_count() or 1


def _sweep_mask_range(n: int, lo: int, hi: int) -> SweepSummary:
    """Evaluate every labeled graph whose edge-subset index lies in [lo, hi).

    Adjacency is kept as per-vertex bitmasks; BFS expands whole frontiers
    with bitwise or, which keeps the 2^21-graph sweep at n = 7 cheap.  The
    search from vertex 0 decides connectivity.
    """
    pairs = list(combinations(range(n), 2))
    summary = SweepSummary()
    reports = {}  # (m, d, W) -> its report; reports are immutable, so masks share them
    full = (1 << n) - 1
    for mask in range(lo, hi):
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
            report = None
        else:
            key = (mask.bit_count(), diam, double_wiener // 2)
            report = reports.get(key)
            if report is None:
                report = reports[key] = bound_report(n, *key)
        summary.record(
            report,
            lambda mask=mask: write_graph6(Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])),
        )
    return summary


def _partitioned(sweep: Callable[..., SweepSummary], arg: object, total: int,
                 workers: int | None) -> SweepSummary:
    """Run ``sweep(arg, lo, hi)`` over [0, total) in spans of a pool capped at
    the CPU count and at ``total``; one worker runs in this process and starts
    no pool.  Partials merge in span order, so the result is ``sweep(arg, 0, total)``'s.
    """
    workers = min(resolve_workers(workers), total, os.cpu_count() or 1)
    if workers <= 1:
        return sweep(arg, 0, total)
    import multiprocessing as mp

    chunks = workers * 4
    step = (total + chunks - 1) // chunks
    spans = [(arg, lo, min(lo + step, total)) for lo in range(0, total, step)]
    # a forked child has only the calling thread, so a lock another thread
    # held stays held; numpy may have started such threads
    method = "forkserver" if "numpy" in sys.modules else "fork"
    with mp.get_context(method).Pool(workers) as pool:
        partials = pool.starmap(sweep, spans)
    summary = SweepSummary()
    for part in partials:
        summary.merge(part)
    return summary


def exhaustive_sweep(n: int, workers: int | None = None) -> SweepSummary:
    """Check the bound on every labeled graph of order n, 2 <= n <= 7.

    Iterates all 2^(n(n-1)/2) edge subsets; disconnected graphs and graphs of
    diameter < 2 are skipped and counted.  Parallel runs partition the index
    range and merge partial summaries in order, so the result is identical to
    a single-threaded run.  The pool never has more processes than the CPU
    count, whatever ``workers`` or WIENER_THREADS asks for.
    """
    if not 2 <= n <= _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive sweep supports 2 <= n <= {_EXHAUSTIVE_MAX_N}, got {n}")
    return _partitioned(_sweep_mask_range, n, 1 << (n * (n - 1) // 2), workers)


def _fold(graphs: Iterable[Graph | None]) -> SweepSummary:
    """The sweep driver for graph iterables; None stands for a line that did
    not parse."""
    summary = SweepSummary()
    for g in graphs:
        if g is None:
            summary.parse_errors += 1
            continue
        try:
            # the distance pass needs a vertex; the empty graph does not apply
            report = evaluate(g) if g.n else bound_report(0, 0, 0, 0)
        except DisconnectedGraphError:
            report = None
        summary.record(report, lambda g=g: write_graph6(g))
    return summary


def stream_sweep(lines: Iterable[str], skip_bad: bool = False) -> SweepSummary:
    """Aggregate the bound check over a stream of graph6 lines.

    Blank lines are ignored.  A malformed line aborts with its line number
    unless ``skip_bad`` is set, in which case it is counted and skipped.
    """
    return _fold(read_graph6(lines, skip_bad))


def iter_random_corpus(count: int, max_order: int, seed: int) -> Iterator[Graph]:
    """The seeded mixed-density corpus behind ``random_sweep``.

    Instance i draws its order from [3, max_order] and its extra-edge
    probability from {0.00, 0.01, ..., 1.00} on an independent stream, so the
    corpus is reproducible and independent of evaluation order.  The
    arguments are checked when this is called, before any graph is drawn.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if max_order < 3:
        raise ValueError(f"max order must be >= 3, got {max_order}")
    return _random_graphs(max_order, seed, 0, count)


def _random_graphs(max_order: int, seed: int, lo: int, hi: int) -> Iterator[Graph]:
    # instance i depends only on stream(seed, i), so index ranges partition the corpus
    for i in range(lo, hi):
        rng = stream(seed, i)
        order = 3 + rng.below(max_order - 2)
        prob = rng.below(101) / 100
        yield generators.random_connected(order, prob, seed=rng.next_u64())


def _random_range(corpus: tuple[int, int], lo: int, hi: int) -> SweepSummary:
    """Sweep instances [lo, hi) of the ``(max_order, seed)`` corpus; a worker
    draws its own graphs, so none is pickled."""
    return _fold(_random_graphs(*corpus, lo, hi))


def random_sweep(count: int, max_order: int, seed: int, workers: int | None = None) -> SweepSummary:
    """Check the bound on seeded random connected graphs of mixed density.

    Workers sweep index ranges of the corpus, as in ``exhaustive_sweep``, so
    the result does not depend on ``workers``.
    """
    iter_random_corpus(count, max_order, seed)  # checks the arguments; draws nothing
    return _partitioned(_random_range, (max_order, seed), count, workers)


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
    counts (default 2..11); ``prism`` and ``petersen`` are single graphs and
    take no range.  A range whose first value exceeds its last is an error.
    Every instance is expected tight; the caller inspects the flags.
    """
    if family not in SHARPNESS_FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick one of {SHARPNESS_FAMILIES}")
    make = getattr(generators, family)
    if family in _SCAN_RANGES:
        first, last, too_small = _SCAN_RANGES[family]
        lo = first if start is None else start
        hi = last if stop is None else stop
        if lo < first:
            raise ValueError(too_small)
        if lo > hi:
            raise ValueError(f"empty {family} range {lo}:{hi}")
        instances = [(f"{family}({k})", make(k)) for k in range(lo, hi + 1)]
    elif start is not None or stop is not None:
        raise ValueError(f"family {family!r} takes no range")
    else:
        instances = [(family, make())]
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
