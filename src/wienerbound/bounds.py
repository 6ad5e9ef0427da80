"""Exact-integer evaluation of the sharp Wiener-index lower bound
W(G) >= n(n-1) - m + E_path(d) + (n-d-1) * E_off(d) for connected graphs of
order n, size m and diameter d >= 2, together with the Moore-bound corollary
that replaces d by a degree-based diameter floor.

E_path(d) = d(d-1)(d-2)/6 is the guaranteed distance excess over pairs lying
on a diametral path; E_off(d) is the excess every vertex off that path must
contribute against the path, which depends on the parity of d.  All divisions
are exact and asserted remainder-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotApplicableError
from .graph import Graph
from .metrics import distance_distribution


@dataclass(frozen=True)
class BoundReport:
    """Wiener index versus the lower bound for one graph.

    ``bound``, ``gap`` and ``tight`` are None when the bound does not apply
    (diameter < 2, i.e. complete or trivial graphs).
    """

    n: int
    m: int
    d: int
    wiener: int
    applicable: bool
    bound: int | None
    gap: int | None
    tight: bool | None


@dataclass(frozen=True)
class MooreResult:
    """Largest order admissible for maximum degree delta and diameter d."""

    delta: int
    d: int
    n_max: int


def _exact_div(numerator: int, divisor: int) -> int:
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise AssertionError(f"{numerator} not divisible by {divisor}")
    return quotient


def path_pair_excess(d: int) -> int:
    """Total distance excess d(u,v) - 2 guaranteed over pairs on a diametral
    path: d(d-1)(d-2)/6, exact (a product of three consecutive integers)."""
    if d < 0:
        raise ValueError(f"diameter must be nonnegative, got {d}")
    return _exact_div(d * (d - 1) * (d - 2), 6)


def off_path_vertex_excess(d: int) -> int:
    """Distance excess each off-path vertex contributes against the path.

    ((d-3)/2)^2 when d is odd, (d-2)(d-4)/4 when d is even; both are exact
    integers.  Requires d >= 2.
    """
    if d < 2:
        raise NotApplicableError(f"off-path excess requires diameter >= 2, got {d}")
    if d % 2:
        return _exact_div((d - 3) * (d - 3), 4)
    return _exact_div((d - 2) * (d - 4), 4)


def wiener_lower_bound(n: int, m: int, d: int) -> int:
    """The sharp lower bound n(n-1) - m + E_path(d) + (n-d-1)*E_off(d).

    Requires d >= 2 (complete graphs are excluded), n >= d + 1, and
    n - 1 <= m <= n(n-1)/2.
    """
    if d < 2:
        raise NotApplicableError(f"bound requires diameter >= 2, got d={d}")
    if n <= d:
        raise ValueError(f"inconsistent inputs: order {n} must exceed diameter {d}")
    if m < n - 1:
        raise ValueError(f"size {m} below n-1={n - 1}; graph cannot be connected")
    if m > n * (n - 1) // 2:
        raise ValueError(f"size {m} exceeds n(n-1)/2 for n={n}")
    return n * (n - 1) - m + path_pair_excess(d) + (n - d - 1) * off_path_vertex_excess(d)


def diameter_two_wiener(n: int, m: int) -> int:
    """Exact Wiener index n(n-1) - m of any diameter-2 graph.

    Pure arithmetic; the caller asserts the diameter is exactly 2.
    """
    return n * (n - 1) - m


def moore_bound(delta: int, d: int) -> MooreResult:
    """Largest order of a graph with maximum degree delta and diameter d.

    2d + 1 for delta = 2, else 1 + delta * sum_{i<d} (delta-1)^i, evaluated
    as the exact geometric series 1 + delta * ((delta-1)^d - 1) / (delta-2).
    """
    if delta < 2:
        raise NotApplicableError(f"Moore bound requires maximum degree >= 2, got {delta}")
    if d < 1:
        raise ValueError(f"diameter must be >= 1, got {d}")
    if delta == 2:
        n_max = 2 * d + 1
    else:
        n_max = 1 + _exact_div(delta * ((delta - 1) ** d - 1), delta - 2)
    return MooreResult(delta=delta, d=d, n_max=n_max)


def moore_diameter_lower_bound(n: int, delta: int) -> int:
    """Smallest d >= 1 whose Moore bound admits order n.

    ceil((n-1)/2) for delta = 2; otherwise a running sum of the Moore layers
    1 + delta + delta(delta-1) + ..., all in integers, so exact Moore orders
    (e.g. n = 10 at delta = 3) land on the right side of the boundary.
    """
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if delta < 2:
        raise NotApplicableError(f"requires maximum degree >= 2, got {delta}")
    if delta == 2:
        return max(1, -(-(n - 1) // 2))
    d, layer, n_max = 1, delta, 1 + delta
    while n_max < n:
        d += 1
        layer *= delta - 1
        n_max += layer
    return d


def diameter_floor(n: int, m: int, delta: int) -> int:
    """Smallest diameter the Moore bound admits for order n and maximum degree
    delta, raised to 2 when m < n(n-1)/2 rules out a complete graph; for
    m = n(n-1)/2 (diameter 1 possible) the bound does not apply."""
    d_min = moore_diameter_lower_bound(n, delta)
    if d_min < 2:
        if m >= n * (n - 1) // 2:
            raise NotApplicableError(
                "graph may be complete (diameter 1); bound requires diameter >= 2"
            )
        d_min = 2
    return d_min


def wiener_lower_bound_from_degree(n: int, m: int, delta: int) -> int:
    """Lower bound on W in terms of n, m and the maximum degree delta, at the
    diameter floor of ``diameter_floor``."""
    return wiener_lower_bound(n, m, diameter_floor(n, m, delta))


def bound_report(n: int, m: int, d: int, wiener: int) -> BoundReport:
    """The bound against the Wiener index of a connected graph of order n,
    size m and diameter d; not applicable (null fields) for d < 2."""
    if d < 2:
        return BoundReport(
            n=n, m=m, d=d, wiener=wiener,
            applicable=False, bound=None, gap=None, tight=None,
        )
    bound = wiener_lower_bound(n, m, d)
    gap = wiener - bound
    return BoundReport(
        n=n, m=m, d=d, wiener=wiener,
        applicable=True, bound=bound, gap=gap, tight=gap == 0,
    )


def evaluate(g: Graph) -> BoundReport:
    """Compute Wiener index, diameter and the bound for a connected graph.

    The distance pass raises DisconnectedGraphError for a disconnected graph
    and ValueError for the empty one.
    """
    dist = distance_distribution(g)
    return bound_report(g.n, g.m, dist.diameter, dist.wiener)
