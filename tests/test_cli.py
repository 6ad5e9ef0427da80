import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wienerbound.cli import main
from wienerbound.generators import petersen, prism
from wienerbound.graph import Graph, parse_graph6, write_edge_list, write_graph6

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_k2_json_record(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("A_\n"))
        code, out, _ = run_cli(["compute", "--json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record == {
            "graph6": "A_", "n": 2, "m": 1, "d": 1, "wiener": 1,
            "bound": None, "gap": None, "tight": None, "applicable": False,
        }

    def test_json_field_order_stable(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("A_\n"))
        _, out, _ = run_cli(["compute", "--json"], capsys)
        assert out.startswith('{"graph6": "A_", "n": 2, "m": 1, "d": 1, "wiener": 1,')

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
        monkeypatch.setattr(sys, "stdin", io.StringIO("A?\n"))
        code, _, err = run_cli(["compute"], capsys)
        assert code == 2
        assert "disconnected" in err

    def test_allow_disconnected_nulls(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("A?\n"))
        code, out, _ = run_cli(["compute", "--json", "--allow-disconnected"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["wiener"] is None
        assert record["applicable"] is False
        assert record["n"] == 2 and record["m"] == 0

    def test_large_disconnected_graph(self, capsys, tmp_path):
        # two paths of 550 vertices, no isolated vertex: the blocked engine's
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

    def test_empty_graph(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("?\n"))
        code, _, err = run_cli(["compute"], capsys)
        assert code == 2
        assert "disconnected" in err
        monkeypatch.setattr(sys, "stdin", io.StringIO("?\n"))
        code, out, _ = run_cli(["compute", "--json", "--allow-disconnected"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "graph6": "?", "n": 0, "m": 0, "d": None, "wiener": None,
            "bound": None, "gap": None, "tight": None, "applicable": False,
        }

    def test_single_vertex(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("@\n"))
        code, out, _ = run_cli(["compute", "--json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["d"] == 0 and record["wiener"] == 0
        assert record["applicable"] is False and record["bound"] is None

    def test_human_table(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(write_graph6(prism()) + "\n"))
        code, out, _ = run_cli(["compute"], capsys)
        assert code == 0
        assert "wiener" in out.splitlines()[0]
        assert "yes" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["compute", "/nonexistent/x.g6"], capsys)
        assert code == 2


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

    def test_d_and_delta_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "4", "--m", "4", "--d", "2", "--delta", "2"])
        assert exc.value.code == 2


class TestVerify:
    def test_exhaustive_3_json(self, capsys):
        code, out, _ = run_cli(["verify", "--exhaustive", "3", "--json", "--threads", "1"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["graphs_checked"] == 8
        assert summary["applicable"] == 3
        assert summary["violations"] == 0
        assert summary["tight_count"] == 3

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

    def test_human_summary(self, capsys):
        code, out, _ = run_cli(["verify", "--exhaustive", "3", "--threads", "1"], capsys)
        assert code == 0
        assert "no violations" in out

    def test_small_graphs_never_import_numpy(self):
        # numpy adds ~13 MB of peak RSS to a sweep of small graphs; the engine
        # switch at n >= 1024 exists to keep it out.
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


class TestScan:
    def test_sharpness_json_all_tight(self, capsys):
        code, out, _ = run_cli(
            ["scan", "sharpness", "--family", "star", "--range", "2:9", "--json"], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 8
        assert all(r["tight"] for r in records)

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
        code, _, err = run_cli(
            ["scan", "sharpness", "--family", "path", "--range", "37"], capsys
        )
        assert code == 2


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
