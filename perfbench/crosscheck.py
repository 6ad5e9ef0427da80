"""Cross-check the frozen expectations in perfbench/expected.json.

    python3 perfbench/crosscheck.py

Run it from the repository root with networkx installed.  It rebuilds, by
routes that share no code with the oracle in perfbench/graphs.py, the output
each workload must print for the default seed, and the exhaustive totals:

- compute-large: distances from the package's ``engine="python"`` BFS, graph6
  from the package's writer;
- verify-random: the package's seeded corpus, each graph evaluated with
  networkx (tests/oracles.py) and folded as a sweep summary, tight examples
  encoded by networkx's graph6 writer;
- verify-exhaustive: every labeled graph of order 2 and 4 through networkx.
  Of the order-7 totals, the connected, applicable and disconnected counts
  are checked against the number of connected labeled graphs (OEIS A001187);
  the tight count and gap range are frozen as measured when the benchmark was
  defined.

It prints the digests it computed and exits 1 if any differs from
expected.json or from the oracles the benchmark runs (for verify-random, the
oracle's own copy of the corpus generator).  It takes a few minutes,
most of it in the pure-Python engine on the n = 10,000 graph.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import combinations

import networkx as nx

import graphs
import run

sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]

from oracles import nx_distribution, to_nx  # noqa: E402
from wienerbound import Graph  # noqa: E402
from wienerbound.graph import write_graph6  # noqa: E402
from wienerbound.metrics import distance_distribution  # noqa: E402
from wienerbound.verifier import iter_random_corpus  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _nx_graph6(g: Graph) -> str:
    return nx.to_graph6_bytes(to_nx(g), nodes=range(g.n), header=False).decode().strip()


def _line(rec: dict) -> str:
    return json.dumps(rec) + "\n"


def compute_large_output() -> str:
    [(n, edges)] = run.large_corpus(run.EXPECTED["default_seed"], tiny=False)
    g = Graph(n, edges)
    counts = dict(distance_distribution(g, engine="python").counts)
    return _line(graphs.record(write_graph6(g), n, g.m, counts))


def _fold(graph_list) -> dict:
    """Sweep summary of (n, edges, graph6) triples, evaluated with networkx."""
    s = dict.fromkeys(run.EXPECTED["summary_keys"], 0)
    s.update(min_gap=None, max_gap=None, tight_examples=[])
    for n, edges, g6 in graph_list:
        s["graphs_checked"] += 1
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        if not nx.is_connected(h):
            s["skipped_disconnected"] += 1
            continue
        counts = nx_distribution(Graph(n, edges))
        d = max(counts, default=0)
        if d < 2:
            s["skipped_inapplicable"] += 1
            continue
        gap = sum(k * c for k, c in counts.items()) - graphs.wiener_bound(n, len(edges), d)
        s["applicable"] += 1
        s["min_gap"] = gap if s["min_gap"] is None else min(s["min_gap"], gap)
        s["max_gap"] = gap if s["max_gap"] is None else max(s["max_gap"], gap)
        s["violations"] += gap < 0
        if gap == 0:
            s["tight_count"] += 1
            if len(s["tight_examples"]) < run.TIGHT_CAP:
                s["tight_examples"].append(g6())
    return s


def verify_random_output() -> str:
    corpus = iter_random_corpus(10_000, 50, run.EXPECTED["default_seed"])
    return _line(_fold((g.n, sorted(g.edges), lambda g=g: _nx_graph6(g)) for g in corpus))


def exhaustive_summary(order: int) -> dict:
    pairs = list(combinations(range(order), 2))

    def labeled():
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            yield order, edges, lambda e=edges: _nx_graph6(Graph(order, e))

    return _fold(labeled())


# Connected labeled graphs on n vertices (OEIS A001187).
CONNECTED_LABELED = {4: 38, 7: 1_866_256}


def main() -> int:
    seed = run.EXPECTED["default_seed"]
    large = graphs.compute_output(run.large_corpus(seed, tiny=False))[1]
    corpus = graphs.verify_random_output(10_000, 50, seed, run.TIGHT_CAP)
    found = {
        "default_seed_sha256": {
            "compute-large": _sha(compute_large_output()),
            "verify-random": _sha(verify_random_output()),
        },
        "exhaustive": {
            "2": exhaustive_summary(2),
            "4_output_sha256": _sha(_line(exhaustive_summary(4))),
        },
    }
    print(json.dumps(found, indent=1))
    bad = []
    if _sha(large) != found["default_seed_sha256"]["compute-large"]:
        bad.append("oracle on compute-large")
    if _sha(corpus) != found["default_seed_sha256"]["verify-random"]:
        bad.append("oracle on verify-random")
    expected = run.EXPECTED
    if found["default_seed_sha256"] != expected["default_seed_sha256"]:
        bad.append("default_seed_sha256")
    if found["exhaustive"]["2"] != expected["exhaustive"]["2"]:
        bad.append("exhaustive 2")
    if found["exhaustive"]["4_output_sha256"] != expected["exhaustive"]["4"]["output_sha256"]:
        bad.append("exhaustive 4")
    for order, connected in CONNECTED_LABELED.items():
        totals = expected["exhaustive"][str(order)]
        total = 2 ** (order * (order - 1) // 2)
        if (totals["graphs_checked"], totals["applicable"], totals["skipped_inapplicable"],
                totals["skipped_disconnected"]) != (total, connected - 1, 1, total - connected):
            bad.append(f"exhaustive {order} counts")
    if bad:
        print(f"MISMATCH: {', '.join(bad)}")
        return 1
    print("all expectations cross-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
