"""Command-line interface: compute, bound, verify, generate and scan.

Exit codes: 0 success (and no bound violation), 1 a sweep found a violation,
2 usage or input errors.  Human-readable tables are the default; ``--json``
switches to machine output (one JSON object per graph for streams, a single
object for summaries).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterable, Iterator, TextIO

from . import generators
from .bounds import (
    diameter_floor,
    evaluate,
    off_path_vertex_excess,
    path_pair_excess,
    wiener_lower_bound,
)
from .errors import DisconnectedGraphError
from .graph import Graph, parse_edge_list, read_graph6, write_edge_list, write_graph6
from .verifier import (
    SHARPNESS_FAMILIES,
    SweepSummary,
    exhaustive_sweep,
    monotonicity_scan,
    random_sweep,
    sharpness_scan,
    stream_sweep,
)

_RECORD_FIELDS = ("graph6", "n", "m", "d", "wiener", "bound", "gap", "tight", "applicable")


def _open_input(path: str | None) -> contextlib.AbstractContextManager[TextIO]:
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdin)
    # Undecodable bytes become lone surrogates, as on stdin, so parse_graph6
    # rejects the line with its number instead of the read aborting.
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def _graph_record(g: Graph, allow_disconnected: bool) -> dict:
    """Flat output record.  A disconnected or empty graph is an error, or,
    when ``allow_disconnected`` is set, a record with null distance fields."""
    record = dict.fromkeys(_RECORD_FIELDS)
    record.update(graph6=write_graph6(g), n=g.n, m=g.m, applicable=False)
    try:
        report = evaluate(g) if g.n else None  # the distance pass needs a vertex
    except DisconnectedGraphError:
        report = None
    if report is None:
        if not allow_disconnected:
            raise DisconnectedGraphError(
                "input graph is disconnected (use --allow-disconnected to report it)"
            )
        return record
    record.update(
        d=report.d, wiener=report.wiener, bound=report.bound,
        gap=report.gap, tight=report.tight, applicable=report.applicable,
    )
    return record


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


def _print_record_rows(records: Iterable[dict], out: TextIO) -> None:
    header = False
    for record in records:
        if not header:
            out.write(
                f"{'graph6':<16} {'n':>6} {'m':>8} {'d':>4} "
                f"{'wiener':>12} {'bound':>12} {'gap':>8} {'tight':>5}\n"
            )
            header = True
        out.write(
            f"{record['graph6']:<16} {record['n']:>6} {record['m']:>8} "
            f"{_cell(record['d']):>4} {_cell(record['wiener']):>12} "
            f"{_cell(record['bound']):>12} {_cell(record['gap']):>8} "
            f"{_cell(record['tight']):>5}\n"
        )


def _iter_compute_graphs(args: argparse.Namespace) -> Iterator[Graph]:
    with _open_input(args.input) as stream_in:
        if args.format == "g6":
            yield from read_graph6(stream_in)
        else:
            yield parse_edge_list(stream_in.read())


def _cmd_compute(args: argparse.Namespace) -> int:
    def records() -> Iterator[dict]:
        for g in _iter_compute_graphs(args):
            yield _graph_record(g, args.allow_disconnected)

    if args.json:
        for record in records():
            # two writes: the graph6 field can be megabytes, so no joined copy
            sys.stdout.write(json.dumps(record))
            sys.stdout.write("\n")
    else:
        _print_record_rows(records(), sys.stdout)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    if args.d is not None:
        d = args.d
        via = {"n": n, "m": m, "d": d}
    else:
        d = diameter_floor(n, m, args.delta)
        via = {"n": n, "m": m, "delta": args.delta, "d_used": d}
    value = wiener_lower_bound(n, m, d)
    if args.trace:
        base = n * (n - 1)
        x = path_pair_excess(d)
        per_w = off_path_vertex_excess(d)
        off = (n - d - 1) * per_w
        sys.stdout.write(f"n(n-1)                  = {base}\n")
        sys.stdout.write(f"- m                     = -{m}\n")
        sys.stdout.write(f"on-path pair excess     = {x}    [d(d-1)(d-2)/6]\n")
        sys.stdout.write(
            f"off-path vertex excess  = {off}    [(n-d-1) vertices x {per_w} each]\n"
        )
    if args.json:
        via["bound"] = value
        sys.stdout.write(json.dumps(via) + "\n")
    elif args.trace:
        sys.stdout.write(f"bound                   = {value}\n")
    else:
        sys.stdout.write(f"{value}\n")
    return 0


def _print_summary(summary: SweepSummary, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(summary.to_dict()) + "\n")
        return
    d = summary.to_dict()
    for key in ("graphs_checked", "applicable", "violations", "tight_count",
                "min_gap", "max_gap", "skipped_disconnected",
                "skipped_inapplicable", "parse_errors"):
        sys.stdout.write(f"{key:<22} {_cell(d[key])}\n")
    if summary.tight_examples:
        shown = ", ".join(summary.tight_examples[:8])
        more = len(summary.tight_examples) - 8
        suffix = f" (+{more} more)" if more > 0 else ""
        sys.stdout.write(f"{'tight_examples':<22} {shown}{suffix}\n")
    verdict = "no violations" if summary.violations == 0 else "BOUND VIOLATED"
    sys.stdout.write(f"{'result':<22} {verdict}\n")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.exhaustive is not None:
        summary = exhaustive_sweep(args.exhaustive, workers=args.threads)
    elif args.stream is not None:
        with _open_input(args.stream) as stream_in:
            summary = stream_sweep(stream_in, skip_bad=args.skip_bad)
    else:
        if args.order is None:
            raise ValueError("--random needs --order")
        summary = random_sweep(args.random, args.order, args.seed)
    _print_summary(summary, args.json)
    return 0 if summary.violations == 0 else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    needs_size = family in ("path", "cycle", "star", "complete", "random")
    if needs_size and args.size is None:
        raise ValueError(f"family {family!r} needs a size argument")
    if not needs_size and args.size is not None:
        raise ValueError(f"family {family!r} takes no size argument")
    if family == "path":
        g = generators.path(args.size)
    elif family == "cycle":
        g = generators.cycle(args.size)
    elif family == "star":
        g = generators.star(args.size)
    elif family == "complete":
        g = generators.complete(args.size)
    elif family == "prism":
        g = generators.prism()
    elif family == "petersen":
        g = generators.petersen()
    else:
        g = generators.random_connected(args.size, args.p, args.seed)
    if args.emit == "g6":
        sys.stdout.write(write_graph6(g) + "\n")
    else:
        sys.stdout.write(write_edge_list(g))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("range must look like A:B")
    return int(lo), int(hi)


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.scan_mode == "sharpness":
        start = stop = None
        if args.range is not None:
            start, stop = _parse_range(args.range)
        records = sharpness_scan(args.family, start=start, stop=stop)
        if args.json:
            for rec in records:
                r = rec.report
                sys.stdout.write(json.dumps({
                    "label": rec.label, "graph6": rec.graph6,
                    "n": r.n, "m": r.m, "d": r.d, "wiener": r.wiener,
                    "bound": r.bound, "gap": r.gap, "tight": r.tight,
                }) + "\n")
        else:
            sys.stdout.write(f"{'label':<14} {'n':>4} {'m':>5} {'d':>3} "
                             f"{'wiener':>9} {'bound':>9} {'gap':>6} {'tight':>5}\n")
            for rec in records:
                r = rec.report
                sys.stdout.write(
                    f"{rec.label:<14} {r.n:>4} {r.m:>5} {r.d:>3} {r.wiener:>9} "
                    f"{_cell(r.bound):>9} {_cell(r.gap):>6} {_cell(r.tight):>5}\n"
                )
        violations = sum(
            1 for rec in records
            if rec.report.gap is not None and rec.report.gap < 0
        )
        return 1 if violations else 0
    report = monotonicity_scan(args.n, args.m)
    if args.json:
        sys.stdout.write(json.dumps({
            "n": report.n, "m": report.m, "d_start": 2,
            "values": list(report.values),
            "non_decreasing": report.non_decreasing,
            "first_decrease_d": report.first_decrease_d,
        }) + "\n")
    else:
        sys.stdout.write(f"bound over d=2..{report.n - 1} for n={report.n}, m={report.m}:\n")
        sys.stdout.write("  " + ", ".join(str(v) for v in report.values) + "\n")
        if report.non_decreasing:
            sys.stdout.write("non-decreasing in d\n")
        else:
            sys.stdout.write(f"finding: decreases at d={report.first_decrease_d}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wienerbound",
        description="Exact Wiener indices and the order/size/diameter lower bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="compute index, diameter and bound for input graphs"
    )
    p_compute.add_argument("input", nargs="?", default=None,
                           help="input file ('-' or omitted for stdin)")
    p_compute.add_argument("--format", choices=("g6", "edgelist"), default="g6")
    p_compute.add_argument("--json", action="store_true",
                           help="emit one JSON object per graph")
    p_compute.add_argument("--allow-disconnected", action="store_true",
                           help="report disconnected graphs with null metrics")
    p_compute.set_defaults(handler=_cmd_compute)

    p_bound = sub.add_parser("bound", help="evaluate the lower bound from numbers")
    p_bound.add_argument("--n", type=int, required=True, help="order")
    p_bound.add_argument("--m", type=int, required=True, help="size")
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, help="diameter (>= 2)")
    group.add_argument("--delta", type=int,
                       help="maximum degree; diameter floor comes from the Moore bound")
    p_bound.add_argument("--trace", action="store_true",
                         help="print the value of every term")
    p_bound.add_argument("--json", action="store_true")
    p_bound.set_defaults(handler=_cmd_bound)

    p_verify = sub.add_parser("verify", help="sweep the bound over a graph corpus")
    mode = p_verify.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", type=int, metavar="N",
                      help="all labeled graphs of order N (2..7)")
    mode.add_argument("--stream", metavar="FILE",
                      help="graph6 lines from FILE ('-' for stdin)")
    mode.add_argument("--random", type=int, metavar="COUNT",
                      help="seeded random connected graphs")
    p_verify.add_argument("--order", type=int, help="max order for --random")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--threads", type=int, default=None,
                          help="worker count (default: WIENER_THREADS or CPU count)")
    p_verify.add_argument("--skip-bad", action="store_true",
                          help="skip malformed graph6 lines instead of aborting")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(handler=_cmd_verify)

    p_gen = sub.add_parser("generate", help="emit a named graph")
    p_gen.add_argument("family",
                       choices=("path", "cycle", "star", "complete",
                                "prism", "petersen", "random"))
    p_gen.add_argument("size", type=int, nargs="?", default=None,
                       help="vertex count (leaves for star)")
    p_gen.add_argument("--p", type=float, default=0.0,
                       help="extra edge probability for random")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--emit", choices=("g6", "edgelist"), default="g6")
    p_gen.set_defaults(handler=_cmd_generate)

    p_scan = sub.add_parser("scan", help="sharpness and monotonicity scans")
    scan_sub = p_scan.add_subparsers(dest="scan_mode", required=True)
    p_sharp = scan_sub.add_parser("sharpness", help="check witness families attain the bound")
    p_sharp.add_argument("--family", choices=SHARPNESS_FAMILIES, required=True)
    p_sharp.add_argument("--range", default=None, metavar="A:B",
                         help="parameter range for path/star (inclusive)")
    p_sharp.add_argument("--json", action="store_true")
    p_sharp.set_defaults(handler=_cmd_scan)
    p_mono = scan_sub.add_parser("monotonicity",
                                 help="bound values across feasible diameters")
    p_mono.add_argument("--n", type=int, required=True)
    p_mono.add_argument("--m", type=int, required=True)
    p_mono.add_argument("--json", action="store_true")
    p_mono.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:  # the package's errors are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
