"""Per-layer spans around the public functions of ``wienerbound``.

Run as ``python3 perfbench/tracing.py STATS.json CLI-ARGS...`` with the
package on ``PYTHONPATH``: it wraps the layer functions listed in ``LAYERS``,
runs ``wienerbound.cli.main`` on the arguments, and writes one JSON object
with the calls, total time and self time of every span name.  The package's
source is not changed; the wrappers replace every module-level binding of each
function, so calls between modules are traced too.

Spans are folded into per-name totals as they close, not stored one by one:
the order-7 exhaustive sweep closes about four million spans.  A span's self
time is its duration minus the durations of the spans it directly contains,
so the self times of all names add up to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name); ``Class.method`` attributes wrap the method.
LAYERS = (
    ("graph", "parse_graph6", "graph.parse_graph6"),
    ("graph", "write_graph6", "graph.write_graph6"),
    ("graph", "Graph.__init__", "graph.Graph"),
    ("graph", "is_connected", "graph.is_connected"),
    ("metrics", "distance_distribution", "metrics.distance_distribution"),
    ("bounds", "evaluate", "bounds.evaluate"),
    ("bounds", "wiener_lower_bound", "bounds.wiener_lower_bound"),
    ("generators", "random_connected", "generators.random_connected"),
    ("verifier", "exhaustive_sweep", "verifier.exhaustive_sweep"),
    ("verifier", "random_sweep", "verifier.random_sweep"),
    ("verifier", "SweepSummary.record", "verifier.SweepSummary.record"),
    ("cli", "main", "cli"),
)


class Tracer:
    """Nested span accounting: name -> [calls, total seconds, self seconds, vertex pairs].

    Vertex pairs, n(n-1)/2 per call, are counted for the distance engine only.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._open: list[list[float]] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        open_spans = self._open
        clock = time.perf_counter
        count_pairs = name == "metrics.distance_distribution"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children[0]
                if count_pairs:
                    stat[3] += args[0].n * (args[0].n - 1) // 2
                if open_spans:
                    open_spans[-1][0] += duration

        return traced

    def install(self, package: str = "wienerbound") -> None:
        """Wrap every layer function wherever the package's modules bind it."""
        importlib.import_module(f"{package}.cli")
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for module_name, attr, name in LAYERS:
            owner = importlib.import_module(f"{package}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def to_dict(self) -> dict:
        return {name: {"calls": s[0], "total_s": s[1], "self_s": s[2], "pairs": s[3]}
                for name, s in self.stats.items()}


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from wienerbound import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
