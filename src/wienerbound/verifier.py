"""Bound verification at scale: exhaustive labeled sweeps over all small
graphs, graph6 stream sweeps, seeded random sweeps, sharpness scans, and the
triangle-inequality property behind the off-path excess term.

Sweeps aggregate into a summary whose merge is associative and
order-respecting (the first partition's tight examples come first), so
partitions merged in order give the single-threaded result exactly.

The exhaustive kernel is bit-sliced.  Bit i of a mask is the i-th vertex
pair, and the kernel evaluates an aligned block of 2**15 consecutive masks at
once: a plane is one Python int whose bit g stands for the graph of mask
base + g.  Reach planes grow one BFS level at a time for all pairs,
bit-sliced counters sum each lane's edges and distances, and the block's
lanes split into classes of equal (m, d, W).  A vertex permutation that
keeps the first 15 pairs (the lane bits) among themselves maps mask
(h << 15) | g to an isomorphic (h' << 15) | g', with g -> g' a bijection of
the lanes, so blocks h and h' hold the same classes.  The bound depends on a
graph only through (n, m, d), so a sweep is a census: one block per orbit (11
of 64 at n = 7) is evaluated, its lane counts times the orbit's size summed
per (m, d, W) key, and each key is one ``SweepSummary.record`` call.  The
tight examples are block 0's first tight masks: block 0 is every mask for
n <= 6, and for n = 7 and 8 its 2**(16 - n) masks that join vertex 0 to every
other vertex have diameter 2, so each of them is tight.

The random sweep's kernel builds no ``Graph`` for orders up to 62.  It makes
``random_connected``'s draws into one n*n-bit adjacency int, and bit-matrix
products grow every vertex's BFS ball at once, one level per round, giving
(m, d, W) for one ``bound_report`` call; a tight example that is kept draws
its ``Graph`` again for the graph6 line.  Larger orders, where long diameters
make the products slower than the distance engine, go through ``evaluate``.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator

from . import generators
from .bounds import BoundReport, bound_report, evaluate, wiener_lower_bound
from .errors import DisconnectedGraphError, NotApplicableError
from .graph import _G6_SMALL_MAX, Graph, _bfs, read_graph6, write_graph6
from .metrics import diametral_path
from .rng import stream

TIGHT_EXAMPLE_CAP = 100
_EXHAUSTIVE_MAX_N = 8

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

    def record(self, report: BoundReport | None, graph6: Callable[[], str],
               count: int = 1) -> None:
        """Fold ``count`` checked graphs that share one report into the summary.

        ``None`` stands for a disconnected graph, counted under
        ``skipped_disconnected``; a report that does not apply counts under
        ``skipped_inapplicable``.  ``graph6`` encodes the graph; it is called
        once per tight example that is kept, so ``count=k`` equals k single
        records; ``count=0`` changes nothing, and a negative count is an error.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if not count:
            return
        self.graphs_checked += count
        if report is None:
            self.skipped_disconnected += count
            return
        if not report.applicable:
            self.skipped_inapplicable += count
            return
        self.applicable += count
        gap = report.gap
        if self.min_gap is None or gap < self.min_gap:
            self.min_gap = gap
        if self.max_gap is None or gap > self.max_gap:
            self.max_gap = gap
        if gap < 0:
            self.violations += count
        elif gap == 0:
            self.tight_count += count
            kept = min(count, TIGHT_EXAMPLE_CAP - len(self.tight_examples))
            self.tight_examples.extend(graph6() for _ in range(kept))

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


# The exhaustive kernel's block: 2**15 masks, so a plane is a 4 KiB int.
_BLOCK_BITS = 15
_BLOCK = 1 << _BLOCK_BITS


def _add(counter: list[int], plane: int) -> None:
    """Add the 0/1 lanes of ``plane`` to a bit-sliced counter, whose plane b
    holds bit b of every lane's count."""
    for b, bit in enumerate(counter):
        counter[b] = bit ^ plane
        plane &= bit
        if not plane:
            return
    counter.append(plane)


@functools.cache
def _pair_planes() -> tuple[int, ...]:
    """The planes every block shares, built on first use: plane i holds the
    lanes g with bit i of g set, i < _BLOCK_BITS, as runs of 2**i zero bits
    and 2**i one bits."""
    planes = []
    for i in range(_BLOCK_BITS):
        run = 1 << i
        plane, width = ((1 << run) - 1) << run, 2 * run
        while width < _BLOCK:  # double the pattern until it fills the block
            plane |= plane << width
            width *= 2
        planes.append(plane)
    return tuple(planes)


@functools.cache
def _orbit_table(n: int) -> tuple[int, ...]:
    """The least member of each high pattern's orbit, indexed by the pattern
    (mask bits from ``_BLOCK_BITS`` up); only vertices of high pairs move."""
    high = list(combinations(range(n), 2))[_BLOCK_BITS:]
    index = {p: i for i, p in enumerate(high)}
    touched = sorted({v for p in high for v in p})
    maps = []
    for image in permutations(touched):
        to = dict(zip(touched, image))
        moved = [index.get(tuple(sorted((to[u], to[v])))) for u, v in high]
        if None not in moved:
            maps.append(moved)
    least: list[int] = [-1] * (1 << len(high))
    for h in range(len(least)):  # the first pattern met in an orbit is its least
        if least[h] < 0:
            for moved in maps:
                least[sum(1 << j for i, j in enumerate(moved) if h >> i & 1)] = h
    return tuple(least)


_Key = tuple[int, int | None, int | None]  # (m, d, W); d = W = None when disconnected


def _census(n: int) -> tuple[Counter[_Key], list[tuple[int, _Key]]]:
    """The count of labeled graphs of order n per (m, d, W) key, and block 0's
    classes, whose tight lanes, at least 128, give the sweep's examples.  Mask
    bit i is the i-th pair of ``combinations(range(n), 2)``; each orbit's least
    block counts once per block of its orbit, block 0 last, so its classes are
    held only after the other blocks' planes are freed."""
    pairs = list(combinations(range(n), 2))
    live = (1 << min(1 << len(pairs), _BLOCK)) - 1  # n <= 5 has fewer masks than a block
    census: Counter[_Key] = Counter()
    for h, weight in reversed(Counter(_orbit_table(n)).items()):
        classes = _block_classes(n, pairs, h << _BLOCK_BITS, live)
        for lanes, key in classes:
            census[key] += weight * lanes.bit_count()
    return census, classes


def _tight_graph6(n: int, tight: int) -> Iterator[str]:
    """The graph6 lines of block 0's masks in the lanes ``tight``, in order."""
    pairs = list(combinations(range(n), 2))
    while tight:
        mask = (tight & -tight).bit_length() - 1
        tight &= tight - 1
        yield write_graph6(Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))


def _block_classes(n: int, pairs: list[tuple[int, int]], base: int, live: int,
                   ) -> list[tuple[int, _Key]]:
    """Split the ``live`` lanes of the block at ``base`` by (m, d, W).

    Returns (lanes, (m, d, W)) per class; the disconnected lanes split by m,
    with d = W = None.  Lane g is mask base + g, so the edge plane of a pair
    above the lane bits is all ones or all zeros.  m and W come from the same
    idiom, a bit-sliced counter that ``_add`` sums planes into and ``_split``
    reads per lane: ``sizes`` sums the edge planes, so it holds every lane's
    m.  ``reach[u][v]`` holds the lanes where dist(u, v) <= k; level k + 1 ORs
    ``reach[u][w] & adj[w][v]`` into it.  A lane's diameter is the level at
    which all its pairs are reached; one still short at level n - 1 is
    disconnected.  ``counter`` sums the reached pairs of levels 1..k - 1 per
    lane, so a lane complete at level k has W = k * P - counter over its P
    pairs.
    """
    pair_planes = _pair_planes()
    high = base >> _BLOCK_BITS
    adj = [[0] * n for _ in range(n)]
    sizes: list[int] = []
    for i, (u, v) in enumerate(pairs):
        if i < _BLOCK_BITS:
            plane = pair_planes[i]
        else:
            plane = (1 << _BLOCK) - 1 if high >> (i - _BLOCK_BITS) & 1 else 0
        adj[u][v] = adj[v][u] = plane
        _add(sizes, plane)
    reach = adj
    classes = []
    done = 0  # lanes whose reach became complete at an earlier level
    counter: list[int] = []
    for k in range(1, n):
        complete = live
        for u, v in pairs:
            complete &= reach[u][v]
        for part, m in _split(complete ^ done, sizes):
            for lanes, reached in _split(part, counter):
                classes.append((lanes, (m, k, k * len(pairs) - reached)))
        done = complete
        if done == live or k == n - 1:
            break
        for u, v in pairs:
            _add(counter, reach[u][v])
        nxt = [row[:] for row in reach]
        for u, v in pairs:
            row, col = reach[u], adj[v]
            r = row[v]
            for w in range(n):
                if w != u and w != v:
                    r |= row[w] & col[w]
            nxt[u][v] = nxt[v][u] = r
        reach = nxt
    classes.extend((lanes, (m, None, None)) for lanes, m in _split(live ^ done, sizes))
    return classes


def _split(lanes: int, counter: list[int]) -> list[tuple[int, int]]:
    """(lanes, value) for every value ``counter`` holds on ``lanes``; none for
    no lanes."""
    parts = [(lanes, 0)] if lanes else []
    for b in range(len(counter) - 1, -1, -1):
        bit = counter[b]
        halves = []
        for part, value in parts:
            ones = part & bit
            if ones:
                halves.append((ones, value | 1 << b))
            if ones != part:
                halves.append((part ^ ones, value))
        parts = halves
    return parts


def _partitioned(sweep: Callable[..., SweepSummary], arg: object, total: int,
                 workers: int | None) -> SweepSummary:
    """Run ``sweep(arg, lo, hi)`` over [0, total) in about four spans per
    worker, on a pool capped at the CPU count and at ``total``; one worker, or
    one item, runs in this process and starts no pool.  Partials merge in
    span order, so the result is ``sweep(arg, 0, total)``'s.
    """
    workers = min(resolve_workers(workers), total, os.cpu_count() or 1)
    if workers <= 1:
        return sweep(arg, 0, total)
    import multiprocessing as mp

    step = -(-total // (4 * workers))
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


def exhaustive_sweep(n: int) -> SweepSummary:
    """Check the bound on every labeled graph of order n, 2 <= n <= 8.

    Covers all 2^(n(n-1)/2) edge subsets; disconnected graphs and graphs of
    diameter < 2 are skipped and counted.  Each census key is one report and
    one ``record`` call, and the keys share block 0's tight masks in mask
    order as their examples, so ``record`` keeps the first tight masks: the
    block holds all of them for n <= 6, and 4,622 and 942 at n = 7 and 8.
    One block per orbit (11 at n = 7) costs less than starting a pool.
    """
    if not 2 <= n <= _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive sweep supports 2 <= n <= {_EXHAUSTIVE_MAX_N}, got {n}")
    census, block0 = _census(n)
    reports = {key: None if key[1] is None else bound_report(n, *key) for key in census}
    tight = sum(lanes for lanes, key in block0 if reports[key] and reports[key].tight)
    examples = _tight_graph6(n, tight)
    summary = SweepSummary()
    for key, count in census.items():
        summary.record(reports[key], examples.__next__, count)
    return summary


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


def stream_sweep(lines: Iterable[str | bytes], skip_bad: bool = False) -> SweepSummary:
    """Aggregate the bound check over a stream of graph6 lines, as a binary
    file yields them; a ``str`` line is read as its bytes (see ``read_graph6``).

    Blank lines are ignored.  A malformed line aborts with its line number
    unless ``skip_bad`` is set, in which case it is counted and skipped.
    """
    return _fold(read_graph6(lines, skip_bad))


def _instance(max_order: int, seed: int, i: int) -> tuple[int, float, int]:
    """Order, extra-edge probability and graph seed of corpus instance i.

    Instance i depends only on ``stream(seed, i)``, so index ranges partition
    the corpus."""
    rng = stream(seed, i)
    order = 3 + rng.below(max_order - 2)
    prob = rng.below(101) / 100
    return order, prob, rng.next_u64()


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
    return (generators.random_connected(*_instance(max_order, seed, i)) for i in range(count))


@functools.cache
def _matrix_masks(n: int) -> tuple[int, int, int]:
    """Bit 0 of every row, the diagonal and all bits of an n-by-n bit-matrix
    with stride n, built on first use."""
    col = int(("0" * (n - 1) + "1") * n, 2)
    diag = int(("0" * n + "1") * n, 2)
    return col, diag, (1 << n * n) - 1


def _matrix_distances(n: int, adj: int) -> tuple[int, int, int]:
    """(m, d, W) of the graph whose symmetric adjacency bit-matrix is ``adj``,
    bit u*n + v standing for the pair (u, v), n >= 2.

    Row u of ``ball`` holds the vertices within distance k of u, and row u of
    ``frontier`` those at distance exactly k.  One level ORs row w of ``adj``
    into every row whose frontier holds w: ``(frontier >> w) & col`` marks
    those rows at their bit 0, and one product copies row w into each, with
    no carries since row w is below 2**n.  The ordered pairs found at level
    k count k each towards 2W; a level that finds none leaves the graph
    disconnected.
    """
    col, diag, full = _matrix_masks(n)
    row_bits = (1 << n) - 1
    rows = [adj >> w * n & row_bits for w in range(n)]
    ball = diag | adj
    frontier = adj
    k = 1
    ordered = adj.bit_count()  # 2m, the ordered pairs at distance 1
    m = ordered >> 1
    while ball != full:
        k += 1
        reached = 0
        for w, r in enumerate(rows):
            marks = frontier >> w & col
            if marks:
                reached |= marks * r
        frontier = reached & ~ball
        if not frontier:
            raise DisconnectedGraphError("graph is not connected")
        ball |= frontier
        ordered += k * frontier.bit_count()
    return m, k, ordered >> 1


def _corpus_report(n: int, p: float, seed: int) -> tuple[BoundReport, Callable[[], str]]:
    """The report on ``random_connected(n, p, seed)`` and its graph6 thunk.

    An order up to ``_G6_SMALL_MAX`` goes through the bit-matrix kernel, and
    the thunk draws the ``Graph`` again, for a tight example that is kept;
    a larger order goes through ``evaluate``.  At 62 vertices a tree takes
    about as long either way, and the kernel's cost grows faster beyond.
    """
    if n > _G6_SMALL_MAX:
        g = generators.random_connected(n, p, seed)
        return evaluate(g), lambda: write_graph6(g)
    report = bound_report(n, *_matrix_distances(n, generators._random_matrix(n, p, seed)))
    return report, lambda: write_graph6(generators.random_connected(n, p, seed))


def _random_range(corpus: tuple[int, int], lo: int, hi: int) -> SweepSummary:
    """Sweep instances [lo, hi) of the ``(max_order, seed)`` corpus; a worker
    draws its own graphs, so none is pickled."""
    summary = SweepSummary()
    for i in range(lo, hi):
        summary.record(*_corpus_report(*_instance(*corpus, i)))
    return summary


def random_sweep(count: int, max_order: int, seed: int, workers: int | None = None) -> SweepSummary:
    """Check the bound on seeded random connected graphs of mixed density.

    Workers sweep index ranges of the corpus and their partials merge in
    order, so the result does not depend on ``workers``.
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
