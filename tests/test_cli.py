import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from wienerbound import cli, generators
from wienerbound.bounds import BoundReport, bound_report
from wienerbound.cli import (
    _RECORD_COLUMNS,
    _cell,
    _graph_record,
    _write_json,
    _write_rows,
    build_parser,
    main,
)
from wienerbound.generators import petersen, prism, random_connected_m
from wienerbound.graph import Graph, parse_graph6, write_edge_list, write_graph6
from wienerbound.verifier import SHARPNESS_FAMILIES

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdin(monkeypatch, text):
    """Put ``text`` on stdin, which the graph6 commands read as bytes."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode("ascii"))))


def _file_and_stdin(argv, data, tmp_path):
    """Run ``python -m wienerbound *argv`` with ``data`` in a file named as the
    last argument, then on stdin named ``-``; return both completed processes."""
    f = tmp_path / "input"
    f.write_bytes(data)
    cmd = [sys.executable, "-m", "wienerbound", *argv]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    from_file = subprocess.run([*cmd, str(f)], capture_output=True, env=env)
    from_stdin = subprocess.run([*cmd, "-"], input=data, capture_output=True, env=env)
    return from_file, from_stdin


class TestCompute:
    def test_k2_json_record(self, capsys, monkeypatch):
        _stdin(monkeypatch, "A_\n")
        code, out, _ = run_cli(["compute", "--json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record == {
            "graph6": "A_", "n": 2, "m": 1, "d": 1, "wiener": 1,
            "bound": None, "gap": None, "tight": None, "applicable": False,
        }

    def test_json_field_order_stable(self, capsys, monkeypatch):
        _stdin(monkeypatch, "A_\n")
        _, out, _ = run_cli(["compute", "--json"], capsys)
        assert out.startswith('{"graph6": "A_", "n": 2, "m": 1, "d": 1, "wiener": 1,')

    def test_json_keys_are_report_fields(self, capsys, monkeypatch):
        # the record is the graph6 line followed by the BoundReport, in field order
        _stdin(monkeypatch, "I?LRCecq?\n")
        _, out, _ = run_cli(["compute", "--json"], capsys)
        keys = tuple(json.loads(out))
        assert keys == ("graph6", *(f.name for f in fields(BoundReport)))

    def test_prism_edge_list(self, capsys, tmp_path):
        f = tmp_path / "prism.txt"
        f.write_text(write_edge_list(prism()))
        code, out, _ = run_cli(["compute", str(f), "--format", "edgelist", "--json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["wiener"] == 21 and record["bound"] == 21 and record["tight"]

    def test_multiple_g6_lines_in_order(self, capsys, tmp_path):
        f = tmp_path / "graphs.g6"
        f.write_text(write_graph6(prism()) + "\n" + write_graph6(petersen()) + "\n")
        code, out, _ = run_cli(["compute", str(f), "--json"], capsys)
        assert code == 0
        wieners = [json.loads(line)["wiener"] for line in out.splitlines()]
        assert wieners == [21, 75]

    def test_malformed_line_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.g6"
        f.write_text("A_\n%%%\n")
        code, _, err = run_cli(["compute", str(f)], capsys)
        assert code == 2
        assert "line 2" in err

    def test_disconnected_exits_2(self, capsys, monkeypatch):
        _stdin(monkeypatch, "A?\n")
        code, _, err = run_cli(["compute"], capsys)
        assert code == 2
        assert "disconnected" in err

    def test_allow_disconnected_nulls(self, capsys, monkeypatch):
        _stdin(monkeypatch, "A?\n")
        code, out, _ = run_cli(["compute", "--json", "--allow-disconnected"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["wiener"] is None
        assert record["applicable"] is False
        assert record["n"] == 2 and record["m"] == 0

    def test_large_disconnected_graph(self, capsys, tmp_path):
        # two paths of 550 vertices, no isolated vertex: the distance pass's
        # level that finds nothing decides
        edges = [(i, i + 1) for i in range(1099) if i != 549]
        f = tmp_path / "two_paths.g6"
        f.write_text(write_graph6(Graph(1100, edges)) + "\n")
        code, out, err = run_cli(["compute", str(f), "--json"], capsys)
        assert code == 2 and out == ""
        assert "disconnected" in err
        code, out, _ = run_cli(["compute", str(f), "--json", "--allow-disconnected"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["n"] == 1100 and record["m"] == 1098
        assert record["d"] is record["wiener"] is record["bound"] is None
        assert record["applicable"] is False

    def test_large_graph_never_imports_numpy(self, tmp_path):
        # one stdlib distance engine serves every order
        f = tmp_path / "large.g6"
        f.write_text(write_graph6(random_connected_m(1100, 5500, seed=5)) + "\n")
        code = (
            "import sys; from wienerbound import cli; "
            f"rc = cli.main(['compute', '--json', {str(f)!r}]); "
            "assert rc == 0, rc; assert 'numpy' not in sys.modules, 'numpy imported'"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["n"] == 1100 and record["m"] == 5500

    def test_bad_edge_list_exits_2(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3 2\n0 1\n1 2 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "wienerbound", "compute", str(f), "--format", "edgelist"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: line 3: edge line must be 'u v'\n"

    def test_empty_graph(self, capsys, monkeypatch):
        _stdin(monkeypatch, "?\n")
        code, _, err = run_cli(["compute"], capsys)
        assert code == 2
        assert "disconnected" in err
        _stdin(monkeypatch, "?\n")
        code, out, _ = run_cli(["compute", "--json", "--allow-disconnected"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "graph6": "?", "n": 0, "m": 0, "d": None, "wiener": None,
            "bound": None, "gap": None, "tight": None, "applicable": False,
        }

    def test_single_vertex(self, capsys, monkeypatch):
        _stdin(monkeypatch, "@\n")
        code, out, _ = run_cli(["compute", "--json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["d"] == 0 and record["wiener"] == 0
        assert record["applicable"] is False and record["bound"] is None

    def test_human_table(self, capsys, monkeypatch):
        _stdin(monkeypatch, write_graph6(prism()) + "\n")
        code, out, _ = run_cli(["compute"], capsys)
        assert code == 0
        assert "wiener" in out.splitlines()[0]
        assert "yes" in out

    def test_human_table_golden(self, capsys, monkeypatch):
        # a tight graph, then one whose bound does not apply
        _stdin(monkeypatch, "I?LRCecq?\n@\n")
        code, out, _ = run_cli(["compute"], capsys)
        assert code == 0
        assert out == (
            "graph6                n        m    d       wiener        bound      gap tight\n"
            "I?LRCecq?            10       15    2           75           75        0   yes\n"
            "@                     1        0    0            0            -        -     -\n"
        )

    def test_out_of_range_edge_names_its_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3 2\n0 3\n0 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "wienerbound", "compute", str(f), "--format", "edgelist"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: line 2: edge (0, 3) out of range for n=3\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["compute", "/nonexistent/x.g6"], capsys)
        assert code == 2

    def test_long_line_file_and_stdin_agree(self, tmp_path):
        # a line of about 11 codec slices gives the same bytes either way
        line = write_graph6(random_connected_m(3000, 9000, seed=6))
        from_file, from_stdin = _file_and_stdin(
            ["compute", "--json"], line.encode() + b"\n", tmp_path)
        assert from_file.returncode == from_stdin.returncode == 0
        assert from_file.stdout == from_stdin.stdout
        record = json.loads(from_file.stdout)
        assert record["graph6"] == line and record["m"] == 9000

    @pytest.mark.parametrize("data, code, err", [
        (b"A_\xc2\xa0\n", 2, "error: line 1: graph6 input is not ASCII\n"),
        (b"A_\r\n", 0, ""),
        (b"A_\n\xff\n", 2, "error: line 2: graph6 input is not ASCII\n"),
        # a line ends only at \n: a lone \r is inside the line
        (b"A_\rA_\n", 2, "error: line 1: expected 1 data bytes for n=2, got 4\n"),
    ], ids=["nbsp", "crlf", "bad-byte-on-line-2", "lone-cr"])
    def test_file_and_stdin_agree(self, data, code, err, tmp_path):
        from_file, from_stdin = _file_and_stdin(["compute", "--json"], data, tmp_path)
        for proc in (from_file, from_stdin):
            assert (proc.returncode, proc.stderr.decode()) == (code, err)
        assert from_file.stdout == from_stdin.stdout
        if code == 0:
            assert json.loads(from_file.stdout)["graph6"] == "A_"

    @pytest.mark.parametrize("data, code, err", [
        (b"2 1\n0\xc2\xa01\n", 2, "error: line 2: edge line must be 'u v'\n"),
        ("2 1\n0 \u0661\n".encode(), 2, "error: line 2: edge line must be two integers\n"),
        (b"2 1\n0 \xe91\n", 2, "error: line 2: edge line must be two integers\n"),
        (b"2 1\r\n0 1\r\n", 0, ""),
        (b"2 1\r0 1\r", 0, ""),
    ], ids=["nbsp", "arabic-indic-digit", "bad-byte", "crlf", "lone-cr"])
    def test_edgelist_file_and_stdin_agree(self, data, code, err, tmp_path):
        # an edge list is ASCII from a file and from stdin, whatever the locale
        argv = ["compute", "--format", "edgelist", "--json"]
        from_file, from_stdin = _file_and_stdin(argv, data, tmp_path)
        latin1 = subprocess.run(
            [sys.executable, "-m", "wienerbound", *argv, "-"], input=data, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "latin-1"},
        )
        for proc in (from_file, from_stdin, latin1):
            assert (proc.returncode, proc.stderr.decode()) == (code, err)
            assert proc.stdout == from_file.stdout
        if code == 0:
            assert json.loads(from_file.stdout)["graph6"] == "A_"


_SLICE = 1 << 16  # characters of a long string value or cell the writers write at a time


def _null_write_peak(monkeypatch, write):
    """The tracemalloc peak of ``write()`` with stdout on the null device."""
    with open(os.devnull, "w", encoding="ascii") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()


class TestJsonWriter:
    @pytest.mark.parametrize("at", [_SLICE - 1, _SLICE, 2 * _SLICE - 1])
    def test_slices_match_json_dumps(self, at, capsys):
        # a backslash on each side of a slice boundary, and other escapes near it
        value = "?" * (at - 1) + "\\\\" + '"\u00e9\U0001f600\x01\udce9' + "~" * _SLICE
        assert value[at - 1:at + 1] == "\\\\"
        obj = {"graph6": value, "n": 3, "d": None, "tight": True, "values": [1, 2],
               "nested": {"0": "\\"}, "empty": ""}
        _write_json(obj)
        assert capsys.readouterr().out == json.dumps(obj) + "\n"

    def test_empty_object(self, capsys):
        _write_json({})
        assert capsys.readouterr().out == "{}\n"

    def test_long_value_is_written_a_few_slices_at_a_time(self, monkeypatch):
        # neither the escaped record nor its encoded bytes are held whole
        line = write_graph6(random_connected_m(3000, 15_000, seed=3))
        record = {"graph6": line, "n": 3000, "m": 15_000, "tight": None}
        peak = _null_write_peak(monkeypatch, lambda: _write_json(record))
        assert peak < 4 * _SLICE, (peak, len(line))

    def test_long_table_cell_is_written_a_few_slices_at_a_time(self, monkeypatch):
        # the table row of that line: cells on their own, the graph6 cell in
        # slices, the same bytes as the row joined whole
        line = write_graph6(random_connected_m(3000, 15_000, seed=3))
        row = {"graph6": line, "n": 3000, "m": 15_000, "d": 5, "wiener": 12_345_678,
               "bound": None, "gap": None, "tight": None}
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        _write_rows([row], False, _RECORD_COLUMNS)
        cells = " ".join(f"{_cell(row[key]):{spec}}" for key, spec in _RECORD_COLUMNS)
        assert out.getvalue().split("\n") == [
            " ".join(f"{key:{spec}}" for key, spec in _RECORD_COLUMNS), cells, ""]
        peak = _null_write_peak(monkeypatch, lambda: _write_rows([row], False, _RECORD_COLUMNS))
        assert peak < 4 * _SLICE, (peak, len(line))

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "table"])
    def test_record_is_built_and_written_a_few_slices_at_a_time(self, as_json, monkeypatch):
        # compute's record carries the graph6 as the encoder's slices, so with
        # the distance pass stubbed out neither the line nor its output is held
        # whole, and the output is that of the line held whole
        g = random_connected_m(3000, 15_000, seed=3)
        report = bound_report(g.n, g.m, 5, 12_345_678)
        monkeypatch.setattr(cli, "evaluate", lambda graph: report)
        row = {"graph6": write_graph6(g), **asdict(report)}
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        _write_rows([_graph_record(g, False)], as_json, _RECORD_COLUMNS)
        if as_json:
            assert out.getvalue() == json.dumps(row) + "\n"
        else:
            assert out.getvalue().split("\n")[1] == " ".join(
                f"{_cell(row[key]):{spec}}" for key, spec in _RECORD_COLUMNS)
        del row, out
        peak = _null_write_peak(
            monkeypatch, lambda: _write_rows([_graph_record(g, False)], as_json, _RECORD_COLUMNS))
        assert peak < 4 * _SLICE, peak


class TestBound:
    def test_value_only(self, capsys):
        code, out, _ = run_cli(["bound", "--n", "10", "--m", "15", "--d", "2"], capsys)
        assert code == 0 and out.strip() == "75"

    def test_from_degree(self, capsys):
        code, out, _ = run_cli(["bound", "--n", "11", "--m", "15", "--delta", "3"], capsys)
        assert code == 0 and out.strip() == "96"

    def test_diameter_one_exits_2(self, capsys):
        code, _, err = run_cli(["bound", "--n", "4", "--m", "6", "--d", "1"], capsys)
        assert code == 2
        assert "diameter >= 2" in err

    def test_trace_terms(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--n", "5", "--m", "4", "--d", "4", "--trace"], capsys
        )
        assert code == 0
        assert "n(n-1)" in out
        assert "on-path pair excess" in out
        assert out.strip().endswith("= 20")

    @pytest.mark.parametrize("args, expected", [
        (["--n", "20", "--m", "30", "--d", "7"], (
            "n(n-1)                  = 380\n"
            "- m                     = -30\n"
            "on-path pair excess     = 35    [d(d-1)(d-2)/6]\n"
            "off-path vertex excess  = 48    [(n-d-1) vertices x 4 each]\n"
            "bound                   = 433\n"
        )),
        (["--n", "11", "--m", "15", "--delta", "3"], (
            "d_used                  = 3    [Moore diameter floor, delta = 3]\n"
            "n(n-1)                  = 110\n"
            "- m                     = -15\n"
            "on-path pair excess     = 1    [d(d-1)(d-2)/6]\n"
            "off-path vertex excess  = 0    [(n-d-1) vertices x 0 each]\n"
            "bound                   = 96\n"
        )),
    ])
    def test_trace_golden(self, capsys, args, expected):
        code, out, err = run_cli(["bound", *args, "--trace"], capsys)
        assert (code, out, err) == (0, expected, "")

    def test_json(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--n", "11", "--m", "15", "--delta", "3", "--json"], capsys
        )
        record = json.loads(out)
        assert record == {"n": 11, "m": 15, "delta": 3, "d_used": 3, "bound": 96}

    def test_complete_from_degree_exits_2(self, capsys):
        code, _, err = run_cli(["bound", "--n", "4", "--m", "6", "--delta", "3"], capsys)
        assert code == 2
        assert "complete" in err

    def test_trace_and_json_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "20", "--m", "30", "--d", "7", "--trace", "--json"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.endswith("argument --json: not allowed with argument --trace\n")

    def test_d_and_delta_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "4", "--m", "4", "--d", "2", "--delta", "2"])
        assert exc.value.code == 2


# sha256 of ``verify --exhaustive N --json`` stdout at any ``--threads``,
# frozen from the sweep that made one record call per class of every block
EXHAUSTIVE_JSON_SHA256 = {
    2: "7d4ae22bd29af0cd7157128984776e78b4b322969d0ec9677040ce1f5e73775a",
    3: "371fb3ac0c409f8d559cdce503b0d11332dff8324fd365404162395417bad0e5",
    4: "82da958055ea44c9ef8233fe2e67dac8c4b0fde384bc198d9f125c83d522f8f5",
    5: "a6569c5379635bc1ebebffa9bbd99037a8ac93a7a248e1df59170eddac21eaca",
    6: "3a5c56fb4688a62bbf2864644a9e1c39cb5c71146ac56d6691edace025f89289",
    7: "629282d3720a099a213edd3f0a1a45a4de5d9c510317809fde8a4eb60ef682b7",
}


class TestVerify:
    @pytest.mark.parametrize("n", sorted(EXHAUSTIVE_JSON_SHA256))
    def test_exhaustive_json(self, n, capsys):
        for threads in ("1", "3"):
            code, out, _ = run_cli(
                ["verify", "--exhaustive", str(n), "--json", "--threads", threads], capsys)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == EXHAUSTIVE_JSON_SHA256[n], threads
        summary = json.loads(out)
        assert summary["graphs_checked"] == 2 ** (n * (n - 1) // 2)
        assert summary["violations"] == 0
        if n == 3:
            assert summary["applicable"] == summary["tight_count"] == 3

    def test_stream_witnesses(self, capsys, tmp_path):
        f = tmp_path / "w.g6"
        f.write_text("".join(write_graph6(g) + "\n" for g in (prism(), petersen())))
        code, out, _ = run_cli(["verify", "--stream", str(f), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["tight_count"] == 2

    def test_stream_empty_and_single_vertex(self, capsys, tmp_path):
        f = tmp_path / "tiny.g6"
        f.write_text("?\n@\n")
        code, out, _ = run_cli(["verify", "--stream", str(f), "--json"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["graphs_checked"] == 2
        assert summary["skipped_inapplicable"] == 2

    def test_stream_bad_line_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.g6"
        f.write_text("A_\n???bad???\n")
        code, _, err = run_cli(["verify", "--stream", str(f)], capsys)
        assert code == 2

    def test_stream_skip_bad(self, capsys, tmp_path):
        f = tmp_path / "bad.g6"
        f.write_text("A_\n%%%\n")
        code, out, _ = run_cli(
            ["verify", "--stream", str(f), "--skip-bad", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["parse_errors"] == 1

    def test_stream_file_and_stdin_agree(self, tmp_path):
        # a no-break space is not whitespace of a graph6 line, from either source
        from_file, from_stdin = _file_and_stdin(
            ["verify", "--skip-bad", "--json", "--stream"], b"A_\n\xc2\xa0\nA_\r\n", tmp_path)
        assert from_file.returncode == from_stdin.returncode == 0
        assert from_file.stdout == from_stdin.stdout
        summary = json.loads(from_file.stdout)
        assert (summary["graphs_checked"], summary["parse_errors"]) == (2, 1)

    def test_stream_non_ascii_file_like_stdin(self, capsys, tmp_path):
        f = tmp_path / "latin1.g6"
        f.write_bytes(b"A_\n\xe9\xe9\nA_\n")
        code, out, _ = run_cli(
            ["verify", "--stream", str(f), "--skip-bad", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["parse_errors"] == 1
        code, _, err = run_cli(["verify", "--stream", str(f)], capsys)
        assert code == 2
        assert "line 2" in err
        code, _, err = run_cli(["compute", str(f)], capsys)
        assert code == 2
        assert "line 2" in err

    def test_random(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--random", "50", "--order", "20", "--seed", "7", "--json"], capsys
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["graphs_checked"] == 50 and summary["violations"] == 0

    def test_random_needs_order(self, capsys):
        code, _, err = run_cli(["verify", "--random", "10"], capsys)
        assert code == 2

    def test_negative_threads_exits_2(self, capsys):
        code, out, err = run_cli(["verify", "--exhaustive", "3", "--threads", "-3"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: workers must be nonnegative\n"

    def test_negative_threads_random_exits_2(self, capsys, monkeypatch):
        args = ["verify", "--random", "5", "--order", "10"]
        assert run_cli([*args, "--threads", "-3", "--json"], capsys) == (
            2, "", "error: workers must be nonnegative\n")
        monkeypatch.setenv("WIENER_THREADS", "-3")
        assert run_cli(args, capsys) == (2, "", "error: WIENER_THREADS must be nonnegative\n")

    def test_non_integer_env_threads_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("WIENER_THREADS", "abc")
        assert run_cli(["verify", "--exhaustive", "3"], capsys) == (
            2, "", "error: WIENER_THREADS must be an integer, got 'abc'\n")

    def test_stream_checks_worker_count(self, tmp_path):
        # the stream sweep runs in one process but refuses the same values
        f = tmp_path / "prism.g6"
        f.write_text(write_graph6(prism()) + "\n")
        cases = (
            (["--threads", "-3"], {}, "error: workers must be nonnegative\n"),
            ([], {"WIENER_THREADS": "abc"}, "error: WIENER_THREADS must be an integer, got 'abc'\n"),
        )
        for extra, env, message in cases:
            proc = subprocess.run(
                [sys.executable, "-m", "wienerbound", "verify", "--stream", str(f), *extra],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC), **env},
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)

    def test_random_zero_starts_no_pool(self):
        # the benchmark's no-work run: a pool would add its start-up to every setup run
        code = (
            "import sys; from wienerbound import cli; "
            "rc = cli.main(['verify', '--random', '0', '--order', '50', '--json']); "
            "assert rc == 0, rc; "
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("n", ["2", "6", "7"])
    def test_one_block_exhaustive_starts_no_pool(self, n):
        # the benchmark's exhaustive setup run (n = 2) and its timed run (n = 7):
        # the sweep evaluates one block per orbit in this process
        code = (
            "import sys; from wienerbound import cli; "
            f"rc = cli.main(['verify', '--exhaustive', '{n}', '--json', '--threads', '2']); "
            "assert rc == 0, rc; "
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr

    def test_human_summary(self, capsys):
        code, out, _ = run_cli(["verify", "--exhaustive", "3", "--threads", "1"], capsys)
        assert code == 0
        assert "no violations" in out

    def test_small_graphs_never_import_numpy(self):
        # numpy would add ~13 MB of peak RSS to a sweep of small graphs
        code = (
            "import sys; from wienerbound import cli; "
            "rc = cli.main(['verify', '--random', '50', '--order', '50', '--json']); "
            "assert rc == 0, rc; assert 'numpy' not in sys.modules, 'numpy imported'"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr


class TestViolationPath:
    # No real graph violates the bound: a wrapper lowers every Wiener index by 1.
    @pytest.fixture(autouse=True)
    def one_below(self, monkeypatch):
        from wienerbound import verifier

        real = verifier.evaluate

        def evaluate(g):
            r = real(g)
            return bound_report(r.n, r.m, r.d, r.wiener - 1)

        monkeypatch.setattr(verifier, "evaluate", evaluate)

    @pytest.fixture
    def witnesses(self, tmp_path):
        f = tmp_path / "w.g6"
        f.write_text("".join(write_graph6(g) + "\n" for g in (prism(), petersen())))
        return str(f)

    def test_verify_stream_exits_1(self, capsys, witnesses):
        code, out, _ = run_cli(["verify", "--stream", witnesses, "--json"], capsys)
        assert code == 1
        assert json.loads(out)["violations"] == 2
        code, out, _ = run_cli(["verify", "--stream", witnesses], capsys)
        assert code == 1
        assert out.splitlines()[-1] == f"{'result':<22} BOUND VIOLATED"

    def test_sharpness_exits_1(self, capsys):
        code, _, _ = run_cli(["scan", "sharpness", "--family", "prism"], capsys)
        assert code == 1

    def test_verify_exhaustive_exits_1(self, capsys, monkeypatch):
        # the exhaustive kernel makes its reports through bound_report, not evaluate
        from wienerbound import verifier

        real = verifier.bound_report
        monkeypatch.setattr(verifier, "bound_report", lambda n, m, d, w: real(n, m, d, w - 1))
        code, out, _ = run_cli(["verify", "--exhaustive", "4", "--threads", "1"], capsys)
        assert code == 1
        assert out.splitlines()[-1] == f"{'result':<22} BOUND VIOLATED"

    def test_verify_random_exits_1(self, capsys, monkeypatch):
        # below order 63 the random sweep's kernel reports through bound_report too
        from wienerbound import verifier

        real = verifier.bound_report
        monkeypatch.setattr(verifier, "bound_report", lambda n, m, d, w: real(n, m, d, w - 1))
        code, out, _ = run_cli(["verify", "--random", "40", "--order", "12", "--threads", "1"], capsys)
        assert code == 1
        assert out.splitlines()[-1] == f"{'result':<22} BOUND VIOLATED"


class TestGenerate:
    def test_path_edgelist_golden(self, capsys):
        code, out, _ = run_cli(["generate", "path", "5", "--emit", "edgelist"], capsys)
        assert code == 0
        assert out == "5 4\n0 1\n1 2\n2 3\n3 4\n"

    def test_petersen_g6(self, capsys):
        code, out, _ = run_cli(["generate", "petersen"], capsys)
        g = parse_graph6(out.strip())
        assert g.n == 10 and g.m == 15

    def test_prism_g6(self, capsys):
        code, out, _ = run_cli(["generate", "prism", "--emit", "g6"], capsys)
        g = parse_graph6(out.strip())
        assert g.n == 6 and g.m == 9

    def test_random_deterministic(self, capsys):
        _, out1, _ = run_cli(["generate", "random", "12", "--p", "0.3", "--seed", "5"], capsys)
        _, out2, _ = run_cli(["generate", "random", "12", "--p", "0.3", "--seed", "5"], capsys)
        assert out1 == out2

    def test_size_required(self, capsys):
        code, _, err = run_cli(["generate", "path"], capsys)
        assert code == 2
        assert "size" in err

    def test_size_refused_for_fixed_families(self, capsys):
        code, _, err = run_cli(["generate", "petersen", "5"], capsys)
        assert code == 2


def test_family_names_are_generators():
    # a family name is the name of its generator; random maps to random_connected
    (commands,) = (a for a in build_parser()._actions if a.dest == "command")
    (family,) = (a for a in commands.choices["generate"]._actions if a.dest == "family")
    for name in sorted({*family.choices, *SHARPNESS_FAMILIES} - {"random"}):
        assert callable(getattr(generators, name, None)), name


class TestScan:
    def test_sharpness_json_all_tight(self, capsys):
        code, out, _ = run_cli(
            ["scan", "sharpness", "--family", "star", "--range", "2:9", "--json"], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 8
        assert all(r["tight"] for r in records)

    def test_sharpness_golden(self, capsys):
        code, out, _ = run_cli(["scan", "sharpness", "--family", "star", "--range", "2:3"], capsys)
        assert code == 0
        assert out == (
            "label             n     m   d    wiener     bound    gap tight\n"
            "star(2)           3     2   2         4         4      0   yes\n"
            "star(3)           4     3   2         9         9      0   yes\n"
        )
        code, out, _ = run_cli(
            ["scan", "sharpness", "--family", "star", "--range", "2:3", "--json"], capsys
        )
        assert code == 0
        assert out == (
            '{"label": "star(2)", "graph6": "Bo", "n": 3, "m": 2, "d": 2, '
            '"wiener": 4, "bound": 4, "gap": 0, "tight": true}\n'
            '{"label": "star(3)", "graph6": "Cs", "n": 4, "m": 3, "d": 2, '
            '"wiener": 9, "bound": 9, "gap": 0, "tight": true}\n'
        )

    def test_empty_range_exits_2(self, capsys):
        code, out, err = run_cli(
            ["scan", "sharpness", "--family", "path", "--range", "5:4"], capsys
        )
        assert code == 2
        assert out == ""
        assert "5:4" in err

    def test_sharpness_table(self, capsys):
        code, out, _ = run_cli(["scan", "sharpness", "--family", "petersen"], capsys)
        assert code == 0
        assert "petersen" in out and "75" in out

    def test_monotonicity_json(self, capsys):
        code, out, _ = run_cli(["scan", "monotonicity", "--n", "10", "--m", "15", "--json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["values"] == [75, 76, 79, 89, 101, 118, 137, 159]
        assert record["non_decreasing"] is True

    def test_monotonicity_human(self, capsys):
        code, out, _ = run_cli(["scan", "monotonicity", "--n", "5", "--m", "4"], capsys)
        assert code == 0
        assert "16, 17, 20" in out

    def test_bad_range(self, capsys):
        for text in ("37", "a:4", "3:4:5"):
            code, out, err = run_cli(
                ["scan", "sharpness", "--family", "path", "--range", text], capsys
            )
            assert code == 2
            assert out == ""
            assert err == f"error: range must be A:B with integers A and B, got '{text}'\n"

    @pytest.mark.parametrize("family", ["prism", "petersen"])
    def test_single_graph_refuses_range(self, capsys, family):
        code, out, err = run_cli(
            ["scan", "sharpness", "--family", family, "--range", "5:4"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: family '{family}' takes no range\n"


@pytest.mark.usefixtures("wienerbound_on_path")
class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            ["wienerbound", "bound", "--n", "10", "--m", "15", "--d", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "75"

    def test_usage_error_is_2(self):
        proc = subprocess.run(["wienerbound"], capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr

    def test_pipe_generate_into_compute(self):
        gen = subprocess.run(
            ["wienerbound", "generate", "petersen"], capture_output=True, text=True
        )
        assert gen.returncode == 0, gen.stderr
        assert gen.stdout.strip()
        comp = subprocess.run(
            ["wienerbound", "compute", "--json"],
            input=gen.stdout, capture_output=True, text=True,
        )
        assert comp.returncode == 0, comp.stderr
        assert json.loads(comp.stdout)["tight"] is True

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wienerbound", "generate", "path", "4"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "Ch\n"
