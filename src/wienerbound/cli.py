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
from dataclasses import asdict, fields
from typing import Iterable, Iterator, TextIO

from . import generators
from .bounds import (
    BoundReport,
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
    resolve_workers,
    sharpness_scan,
    stream_sweep,
)

_RECORD_FIELDS = ("graph6", *(f.name for f in fields(BoundReport)))
# table columns: (record key, format spec)
_RECORD_COLUMNS = (
    ("graph6", "<16"), ("n", ">6"), ("m", ">8"), ("d", ">4"),
    ("wiener", ">12"), ("bound", ">12"), ("gap", ">8"), ("tight", ">5"),
)
# characters of a long string, a JSON value or a table cell, written at a time
_JSON_SLICE = 1 << 16
_SHARPNESS_COLUMNS = (
    ("label", "<14"), ("n", ">4"), ("m", ">5"), ("d", ">3"),
    ("wiener", ">9"), ("bound", ">9"), ("gap", ">6"), ("tight", ">5"),
)


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
    try:
        report = evaluate(g) if g.n else None  # the distance pass needs a vertex
    except DisconnectedGraphError:
        report = None
    record.update(graph6=write_graph6(g), n=g.n, m=g.m, applicable=False)
    if report is None:
        if not allow_disconnected:
            raise DisconnectedGraphError(
                "input graph is disconnected (use --allow-disconnected to report it)"
            )
        return record
    record.update(asdict(report))
    return record


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


def _write_json(obj: dict[str, object]) -> None:
    """Print ``json.dumps(obj)`` and a newline.  A string value goes out in
    slices, each escaped on its own: a graph6 field can be megabytes, and
    neither its escaped form nor its encoded bytes are ever held whole."""
    write = sys.stdout.write
    write("{")
    for i, (key, value) in enumerate(obj.items()):
        write(f"{', ' if i else ''}{json.dumps(key)}: ")
        if isinstance(value, str):
            write('"')
            for lo in range(0, len(value), _JSON_SLICE):
                write(json.dumps(value[lo:lo + _JSON_SLICE])[1:-1])
            write('"')
        else:
            write(json.dumps(value))
    write("}\n")


def _write_rows(
    rows: Iterable[dict], as_json: bool, columns: tuple[tuple[str, str], ...]
) -> None:
    """One JSON object per row, or a table whose header comes with the first
    row.  A table cell longer than a slice, so wider than any column, is
    written in slices: a megabyte graph6 cell is never copied."""
    header = False
    for row in rows:
        if as_json:
            _write_json(row)
            continue
        if not header:
            sys.stdout.write(" ".join(f"{key:{spec}}" for key, spec in columns) + "\n")
            header = True
        for i, (key, spec) in enumerate(columns):
            cell = _cell(row[key])
            sys.stdout.write(" " if i else "")
            if len(cell) > _JSON_SLICE:
                for lo in range(0, len(cell), _JSON_SLICE):
                    sys.stdout.write(cell[lo:lo + _JSON_SLICE])
            else:
                sys.stdout.write(f"{cell:{spec}}")
        sys.stdout.write("\n")


def _iter_compute_graphs(args: argparse.Namespace) -> Iterator[Graph]:
    with _open_input(args.input) as stream_in:
        if args.format == "g6":
            yield from read_graph6(stream_in)
        else:
            yield parse_edge_list(stream_in.read())


def _cmd_compute(args: argparse.Namespace) -> int:
    records = (_graph_record(g, args.allow_disconnected) for g in _iter_compute_graphs(args))
    _write_rows(records, args.json, _RECORD_COLUMNS)
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
    if args.json:
        via["bound"] = value
        _write_json(via)
    elif args.trace:
        per_w = off_path_vertex_excess(d)
        if args.d is None:
            sys.stdout.write(
                f"d_used                  = {d}    [Moore diameter floor, delta = {args.delta}]\n"
            )
        sys.stdout.write(f"n(n-1)                  = {n * (n - 1)}\n")
        sys.stdout.write(f"- m                     = -{m}\n")
        sys.stdout.write(f"on-path pair excess     = {path_pair_excess(d)}    [d(d-1)(d-2)/6]\n")
        sys.stdout.write(
            f"off-path vertex excess  = {(n - d - 1) * per_w}    [(n-d-1) vertices x {per_w} each]\n"
        )
        sys.stdout.write(f"bound                   = {value}\n")
    else:
        sys.stdout.write(f"{value}\n")
    return 0


def _print_summary(summary: SweepSummary, as_json: bool) -> None:
    if as_json:
        _write_json(summary.to_dict())
        return
    for key, value in summary.to_dict().items():
        if key != "tight_examples":
            sys.stdout.write(f"{key:<22} {_cell(value)}\n")
    if summary.tight_examples:
        shown = ", ".join(summary.tight_examples[:8])
        more = len(summary.tight_examples) - 8
        suffix = f" (+{more} more)" if more > 0 else ""
        sys.stdout.write(f"{'tight_examples':<22} {shown}{suffix}\n")
    verdict = "no violations" if summary.violations == 0 else "BOUND VIOLATED"
    sys.stdout.write(f"{'result':<22} {verdict}\n")


def _cmd_verify(args: argparse.Namespace) -> int:
    workers = resolve_workers(args.threads)  # checked in every mode; only --random uses it
    if args.exhaustive is not None:
        summary = exhaustive_sweep(args.exhaustive)
    elif args.stream is not None:
        with _open_input(args.stream) as stream_in:
            summary = stream_sweep(stream_in, skip_bad=args.skip_bad)
    else:
        if args.order is None:
            raise ValueError("--random needs --order")
        summary = random_sweep(args.random, args.order, args.seed, workers=workers)
    _print_summary(summary, args.json)
    return 0 if summary.violations == 0 else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    needs_size = family in ("path", "cycle", "star", "complete", "random")
    if needs_size and args.size is None:
        raise ValueError(f"family {family!r} needs a size argument")
    if not needs_size and args.size is not None:
        raise ValueError(f"family {family!r} takes no size argument")
    if family == "random":
        g = generators.random_connected(args.size, args.p, args.seed)
    else:  # a family name is the name of its generator
        make = getattr(generators, family)
        g = make(args.size) if needs_size else make()
    if args.emit == "g6":
        sys.stdout.write(write_graph6(g) + "\n")
    else:
        sys.stdout.write(write_edge_list(g))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:  # a field count other than two, or a non-integer
        raise ValueError(f"range must be A:B with integers A and B, got {text!r}") from None
    return lo, hi


def _cmd_sharpness(args: argparse.Namespace) -> int:
    start = stop = None
    if args.range is not None:
        start, stop = _parse_range(args.range)
    rows = []
    for rec in sharpness_scan(args.family, start=start, stop=stop):
        row = {"label": rec.label, "graph6": rec.graph6, **asdict(rec.report)}
        del row["applicable"]  # every witness has d >= 2
        rows.append(row)
    _write_rows(rows, args.json, _SHARPNESS_COLUMNS)
    return 1 if any(row["gap"] < 0 for row in rows) else 0


def _cmd_monotonicity(args: argparse.Namespace) -> int:
    report = monotonicity_scan(args.n, args.m)
    if args.json:
        _write_json({"n": report.n, "m": report.m, "d_start": 2, **asdict(report)})
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
    output = p_bound.add_mutually_exclusive_group()
    output.add_argument("--trace", action="store_true",
                        help="print the value of every term")
    output.add_argument("--json", action="store_true")
    p_bound.set_defaults(handler=_cmd_bound)

    p_verify = sub.add_parser("verify", help="sweep the bound over a graph corpus")
    mode = p_verify.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", type=int, metavar="N",
                      help="all labeled graphs of order N (2..8)")
    mode.add_argument("--stream", metavar="FILE",
                      help="graph6 lines from FILE ('-' for stdin)")
    mode.add_argument("--random", type=int, metavar="COUNT",
                      help="seeded random connected graphs")
    p_verify.add_argument("--order", type=int, help="max order for --random")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--threads", type=int, default=None,
                          help="worker count of --random (default: WIENER_THREADS or "
                               "CPU count; a negative or non-integer value is exit 2 in "
                               "every mode); --exhaustive and --stream check the value "
                               "but run in one process")
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
    p_sharp.set_defaults(handler=_cmd_sharpness)
    p_mono = scan_sub.add_parser("monotonicity",
                                 help="bound values across feasible diameters")
    p_mono.add_argument("--n", type=int, required=True)
    p_mono.add_argument("--m", type=int, required=True)
    p_mono.add_argument("--json", action="store_true")
    p_mono.set_defaults(handler=_cmd_monotonicity)

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
