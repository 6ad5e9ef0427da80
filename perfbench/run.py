"""End-to-end and per-layer benchmark of the wienerbound command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It drives ``python -m wienerbound.cli`` with
``PYTHONPATH=src`` as a closed loop with one client: one CLI process at a
time, the next started when the last has exited.  Every output is checked
(see perfbench/README.md).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the machine, the seed and the raw samples.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it repeats the untraced runs for CPU time, then runs the
workload once more under perfbench/tracing.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import graphs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

THREADS = 2           # verify-exhaustive's --threads, the nproc of the machine it was defined on
SETUP_RUNS = 40       # least timed no-work runs per benchmark run, after one untimed warm-up
KILL_AFTER_S = 150.0  # a CLI process still running after this is killed and counted failed
TIGHT_CAP = 100       # tight examples a sweep keeps (the package default)


@dataclass
class Job:
    """One workload instance: the CLI arguments and how to check their output."""

    argv: list[str]
    setup_argv: list[str]
    check: Callable[[bytes], bool]
    setup_check: Callable[[bytes], bool]
    graphs: int
    workers: int = 1
    trace_argv: list[str] | None = None
    sweep: bool = False


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    out: bytes = field(repr=False)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _frozen(workload: str, seed: int, tiny: bool) -> str | None:
    """Digest of the cross-checked output, for the default seed at full size."""
    if tiny or seed != EXPECTED["default_seed"]:
        return None
    return EXPECTED["default_seed_sha256"][workload]


def _predicted(workload: str, seed: int, tiny: bool, expected: str) -> bytes:
    """The oracle's output, which for the default seed must be the cross-checked one."""
    expected_bytes = expected.encode("ascii")
    frozen = _frozen(workload, seed, tiny)
    if frozen is not None and _sha(expected_bytes) != frozen:
        raise RuntimeError(f"{workload}: the oracle differs from the cross-checked output")
    return expected_bytes


def _compute_job(workload: str, seed: int, tiny: bool, corpus) -> Job:
    text, expected = graphs.compute_output(corpus)
    expected_bytes = _predicted(workload, seed, tiny, expected)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{workload}.g6"
    path.write_text(text, encoding="ascii")
    empty = WORK / "empty.g6"
    empty.write_text("", encoding="ascii")
    return Job(
        argv=["compute", "--json", str(path)],
        setup_argv=["compute", "--json", str(empty)],
        check=lambda out: out == expected_bytes,
        setup_check=lambda out: out == b"",
        graphs=len(corpus),
    )


def large_corpus(seed: int, tiny: bool) -> list[tuple[int, graphs.Edges]]:
    """One connected graph with n = 10,000 and m = 50,000."""
    n, m = (300, 1500) if tiny else (10_000, 50_000)
    rng = random.Random(f"compute-large/{seed}")
    return [(n, graphs.random_connected(rng, n, m))]


def compute_large(seed: int, tiny: bool) -> Job:
    return _compute_job("compute-large", seed, tiny, large_corpus(seed, tiny))


def _summary(out: bytes) -> dict | None:
    lines = out.decode("ascii", "replace").splitlines()
    if len(lines) != 1:
        return None
    summary = json.loads(lines[0])
    return summary if list(summary) == EXPECTED["summary_keys"] else None


def _examples_tight(summary: dict, max_order: int) -> bool:
    """Every kept tight example decodes, fits the corpus and attains the bound (oracle)."""
    examples = summary["tight_examples"]
    return (len(examples) == min(TIGHT_CAP, summary["tight_count"])
            and all(ord(g6[0]) - 63 <= max_order and graphs.is_tight(g6) for g6 in examples))


def verify_random(seed: int, tiny: bool) -> Job:
    count, order = (40, 12) if tiny else (10_000, 50)
    expected = _predicted("verify-random", seed, tiny,
                          graphs.verify_random_output(count, order, seed, TIGHT_CAP))
    return Job(
        argv=["verify", "--random", str(count), "--order", str(order),
              "--seed", str(seed), "--json"],
        setup_argv=["verify", "--random", "0", "--order", str(order), "--json"],
        check=lambda out: out == expected,
        setup_check=lambda out: _summary(out) == EXPECTED["empty_summary"],
        graphs=count,
        sweep=True,
    )


def verify_exhaustive(seed: int, tiny: bool) -> Job:
    del seed  # every labeled graph of the order: the input does not depend on it
    order = 4 if tiny else 7
    totals = EXPECTED["exhaustive"][str(order)]

    def check(out: bytes) -> bool:
        s = _summary(out)
        return (s is not None
                and _sha(out) == totals["output_sha256"]
                and all(s[k] == v for k, v in totals.items() if k in s)
                and _examples_tight(s, order))

    def argv(order: int, threads: int) -> list[str]:
        return ["verify", "--exhaustive", str(order), "--json", "--threads", str(threads)]

    return Job(
        argv=argv(order, THREADS),
        setup_argv=argv(2, THREADS),
        check=check,
        setup_check=lambda out: _summary(out) == EXPECTED["exhaustive"]["2"],
        graphs=2 ** (order * (order - 1) // 2),
        workers=THREADS,
        trace_argv=argv(order, 1),
        sweep=True,
    )


WORKLOADS = {
    "compute-large": compute_large,
    "verify-exhaustive": verify_exhaustive,
    "verify-random": verify_random,
}

E2E_UNITS = {"wall_s": "s", "graphs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    units = {}
    for _module, _attr, name in tracing.LAYERS:
        units[f"{name}.self_s"] = "s"
    for name in ("graph.parse_graph6", "graph.write_graph6", "graph.Graph",
                 "metrics.distance_distribution", "bounds.wiener_lower_bound",
                 "generators.random_connected", "verifier.SweepSummary.record"):
        units[f"{name}.calls"] = "count"
    units.update({
        "metrics.pairs_per_s": "1/s",
        "verifier.tight_encode.useful_ratio": "ratio",
        "verifier.worker_utilisation": "ratio",
        "proc.cpu_s": "s",
        "trace.overhead_frac": "ratio",
        "error_rate": "ratio",
    })
    return units


class Runner:
    """Runs CLI processes one at a time through spawner.py and checks each output."""

    def __init__(self) -> None:
        env = {k: v for k, v in os.environ.items() if k != "WIENER_THREADS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        WORK.mkdir(exist_ok=True)
        self._spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.attempted = 0
        self.failed = 0
        self.outputs: set[str] = set()
        self._verdicts: dict[str, bool] = {}

    def close(self) -> None:
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=KILL_AFTER_S + 10)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()

    def run(self, argv: list[str], check: Callable[[bytes], bool],
            trace_stats: Path | None = None, measured: bool = True) -> Sample:
        if trace_stats is None:
            cmd = [sys.executable, "-m", "wienerbound.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(trace_stats), *argv]
        out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
        self._spawner.stdin.write(json.dumps({
            "cmd": cmd, "out": str(out_path), "err": str(err_path),
            "kill_after": KILL_AFTER_S}) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        out = out_path.read_bytes()
        digest = _sha(out)
        if digest not in self._verdicts:
            try:
                self._verdicts[digest] = check(out)
            except (ValueError, KeyError, TypeError, IndexError):
                self._verdicts[digest] = False
        if measured:
            self.outputs.add(digest)
        ok = reply["code"] == 0 and self._verdicts[digest]
        self.attempted += 1
        self.failed += not ok
        if not ok:
            tail = err_path.read_text(errors="replace")[-2000:]
            sys.stderr.write(f"failed run {cmd[2:]} exit {reply['code']}: {tail}\n")
        return Sample(reply["wall_s"], reply["cpu_s"], reply["rss_mb"], ok, out)

    def window(self, argv: list[str], check: Callable[[bytes], bool], seconds: float) -> list[Sample]:
        """Runs back to back while the next one is expected to end within ``seconds``; at least one."""
        samples = []
        start = time.perf_counter()
        while True:
            samples.append(self.run(argv, check))
            typical = statistics.median(s.wall_s for s in samples)
            if time.perf_counter() - start + typical > seconds:
                return samples


def tail(values: list[float]) -> dict:
    """Median and sample count; a window holds too few runs for a tail percentile."""
    return {"samples": len(values), "median": statistics.median(values)}


def end_to_end(job: Job, runner: Runner, seconds: float) -> tuple[dict, dict]:
    def setup_run() -> float:
        return runner.run(job.setup_argv, job.setup_check, measured=False).wall_s

    # The first run warms the bytecode and page caches and is not timed.  The
    # host switches between a fast and a slow speed every few seconds, so the
    # timed runs are spread out: half before the window, and the rest after
    # it, until the window's time is used up.
    setup_run()
    setup = [setup_run() for _ in range(SETUP_RUNS // 2)]
    start = time.perf_counter()
    samples = runner.window(job.argv, job.check, seconds)
    while len(setup) < SETUP_RUNS or time.perf_counter() - start < seconds:
        setup.append(setup_run())
    wall = statistics.median(s.wall_s for s in samples)
    metrics = {
        "wall_s": wall,
        "graphs_per_s": job.graphs / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    raw = {"wall_s": tail([s.wall_s for s in samples]), "setup_s": tail(setup)}
    return metrics, raw


def per_layer(job: Job, runner: Runner, seconds: float) -> tuple[dict, dict]:
    samples = runner.window(job.argv, job.check, seconds)
    wall = statistics.median(s.wall_s for s in samples)
    cpu = statistics.median(s.cpu_s for s in samples)
    trace_argv = job.trace_argv or job.argv
    baseline = samples if trace_argv is job.argv else [runner.run(trace_argv, job.check)]
    stats_path = WORK / "trace-stats.json"
    stats_path.unlink(missing_ok=True)
    traced = runner.run(trace_argv, job.check, trace_stats=stats_path)
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    overhead = traced.wall_s / statistics.median(s.wall_s for s in baseline) - 1

    metrics = {}
    for name, s in stats.items():
        metrics[f"{name}.self_s"] = s["self_s"]
        metrics[f"{name}.calls"] = s["calls"]
    dist = stats["metrics.distance_distribution"]
    writes = stats["graph.write_graph6"]["calls"]
    kept = len(json.loads(traced.out)["tight_examples"]) if job.sweep and traced.ok else 0
    metrics.update({
        "metrics.pairs_per_s": dist["pairs"] / dist["self_s"] if dist["self_s"] else 0.0,
        "verifier.tight_encode.useful_ratio": kept / writes if job.sweep and writes else 0.0,
        "proc.cpu_s": cpu,
        "verifier.worker_utilisation": cpu / (job.workers * wall),
        "trace.overhead_frac": overhead,
    })
    raw = {"cli.main_s": stats["cli"]["total_s"], "traced_wall_s": traced.wall_s,
           "untraced_wall_s": [s.wall_s for s in baseline], "tight_kept": kept}
    return metrics, raw


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _commit(),
        "source_sha256": _sha(b"".join(
            p.read_bytes() for p in sorted((ROOT / "src").rglob("*.py")))),
    }


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wienerbound" / "cli.py").is_file():
        sys.stderr.write(f"error: no wienerbound sources under {ROOT / 'src'}\n")
        return 2

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "size": args.size, "machine": machine()}
    job = WORKLOADS[args.workload](args.seed, args.size == "tiny")
    runner = Runner()
    try:
        if args.trace:
            metrics, raw = per_layer(job, runner, args.seconds)
            metrics["error_rate"] = runner.failed / runner.attempted
            units = layer_units()
        else:
            metrics, raw = end_to_end(job, runner, args.seconds)
            units = E2E_UNITS
    finally:
        runner.close()
    info.update(raw=raw, output_sha256=sorted(runner.outputs))
    print(json.dumps(info))
    print(json.dumps({
        "correct": runner.failed == 0 and len(runner.outputs) == 1,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
