import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mooremix import cli, mgf
from mooremix.constructions import golden_path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    # the child imports mooremix from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mooremix.cli", *args], capture_output=True, text=True, env=env
    )


class TestBound:
    def test_improved(self, capsys):
        assert cli.main(["bound", "-r", "1", "-z", "1", "-k", "3", "--improved"]) == 0
        assert capsys.readouterr().out.strip() == "M=11 improved=10 rules=[thm1]"

    def test_parity(self, capsys):
        assert cli.main(["bound", "-r", "1", "-z", "1", "-k", "5", "--improved"]) == 0
        assert capsys.readouterr().out.strip() == "M=32 improved=30 rules=[thm1,prop2]"

    def test_plain(self, capsys):
        assert cli.main(["bound", "-r", "0", "-z", "1", "-k", "7"]) == 0
        assert capsys.readouterr().out.strip() == "M=8"

    def test_json(self, capsys):
        assert cli.main(["bound", "-r", "1", "-z", "1", "-k", "3", "--improved", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"M": 11, "improved": 10, "rules": ["thm1"]}

    def test_degenerate_closed_form_exit_3(self, capsys):
        assert cli.main(["bound", "-r", "0", "-z", "1", "-k", "3", "--closed-form"]) == 3

    def test_bad_flags_exit_2(self):
        assert run_cli("bound", "-r", "x").returncode == 2


class TestTable:
    def test_csv_row_count(self, capsys):
        assert cli.main(["table", "--dmax", "5", "--kmax", "5", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "d,z,r,k,M"
        assert len(lines) - 1 == 100

    def test_csv_pinned_rows(self, capsys):
        cli.main(["table", "--dmax", "5", "--kmax", "5", "--format", "csv"])
        rows = set(capsys.readouterr().out.strip().splitlines())
        assert "3,1,2,4,69" in rows
        assert "1,1,0,5,6" in rows

    def test_text_format(self, capsys):
        assert cli.main(["table", "--dmax", "2", "--kmax", "3"]) == 0
        assert "k=3" in capsys.readouterr().out


class TestSearch:
    def test_prop3(self, tmp_path, capsys):
        rc = cli.main(
            ["search", "-r", "1", "-z", "1", "-k", "3", "-n", "10", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("classes=3")
        files = sorted(p.name for p in tmp_path.glob("*.mgf"))
        assert files == [f"1_1_k3_n10_{i}.mgf" for i in range(3)]
        log = (tmp_path / "search_run_log.jsonl").read_text().strip().splitlines()
        assert json.loads(log[0])["classes"] == 3

    def test_no_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["search", "-r", "1", "-z", "1", "-k", "2", "-n", "6", "--mode", "at-most"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("classes=1")
        assert list(tmp_path.iterdir()) == []

    def test_infeasible_order(self, tmp_path, capsys):
        rc = cli.main(
            ["search", "-r", "1", "-z", "1", "-k", "3", "-n", "11", "--mode", "at-most",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("classes=0")

    def test_n6_k2(self, tmp_path, capsys):
        rc = cli.main(
            ["search", "-r", "1", "-z", "1", "-k", "2", "-n", "6", "--mode", "at-most",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("classes=1")

    def test_cap_exit_4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MOORE_SEARCH_CAP", "8")
        rc = cli.main(
            ["search", "-r", "1", "-z", "1", "-k", "3", "-n", "10", "--out", str(tmp_path)]
        )
        assert rc == 4


class TestVerify:
    def test_golden(self, capsys):
        assert cli.main(["verify", str(golden_path(0)), "-k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "regular=(1,1) diameter=3 min_rep=1 slack=0"

    def test_moore_graph(self, tmp_path, capsys):
        from mooremix.constructions import cycle

        path = tmp_path / "c5.mgf"
        mgf.dump(cycle(5, False), path)
        assert cli.main(["verify", str(path), "-k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "regular=(2,0) diameter=2 min_rep=0 slack=0"

    def test_malformed_exit_5(self, tmp_path):
        path = tmp_path / "bad.mgf"
        path.write_text("not an mgf\n")
        assert cli.main(["verify", str(path), "-k", "3"]) == 5

    @pytest.mark.parametrize(
        "data",
        [
            "mgf 1\nn 1_0\ne 0 +1\na \u0663 4\n".encode("utf-8"),
            b"mgf 1\nn -0\n",
            b"mgf 1\nn 3\ne 0 +1\n",
            b"mgf 1\nn \xff\n",  # not UTF-8
        ],
        # the ids these cases had as text
        ids=lambda data: data.decode("utf-8", "backslashreplace"),
    )
    def test_numbers_not_in_ascii_digits_exit_5(self, tmp_path, data):
        path = tmp_path / "bad.mgf"
        path.write_bytes(data)
        assert cli.main(["verify", str(path), "-k", "3"]) == 5


class TestSpectrumIsoConverse:
    def test_spectrum(self, capsys):
        assert cli.main(["spectrum", str(golden_path(2))]) == 0
        assert capsys.readouterr().out.strip() == "1 0 -5 0 5 -2 0 0 0 0 0"

    def test_converse_then_iso(self, tmp_path):
        out = run_cli("converse", str(golden_path(0)))
        assert out.returncode == 0
        path = tmp_path / "conv.mgf"
        path.write_text(out.stdout)
        assert run_cli("iso", str(golden_path(0)), str(path)).returncode == 0

    def test_iso_negative_exit_1(self):
        assert run_cli("iso", str(golden_path(0)), str(golden_path(1))).returncode == 1


class TestConstruct:
    def test_cayley(self, capsys):
        assert cli.main(["construct", "cayley-dihedral", "5"]) == 0
        g = mgf.loads(capsys.readouterr().out)
        assert (g.n, len(g.edges), len(g.arcs)) == (10, 5, 10)

    def test_cycle_directed(self, capsys):
        assert cli.main(["construct", "cycle", "5", "--directed"]) == 0
        g = mgf.loads(capsys.readouterr().out)
        assert len(g.arcs) == 5 and len(g.edges) == 0

    def test_line_digraph_matches_golden(self, tmp_path, capsys):
        assert cli.main(["construct", "line-digraph", "5"]) == 0
        path = tmp_path / "ld.mgf"
        path.write_text(capsys.readouterr().out)
        assert run_cli("iso", str(path), str(golden_path(2))).returncode == 0


class TestErrors:
    """Bad values exit with a documented code and a one-line message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "-r", "0", "-z", "0", "-k", "3"],
            ["search", "-r", "1", "-z", "1", "-k", "3", "-n", "0"],
            ["table", "--dmax", "0"],
            ["bound", "-r", "1", "-z", "1", "-k", "2000", "--closed-form"],
            ["search", "-r", "1", "-z", "1", "-k", "-1", "-n", "30"],
        ],
    )
    def test_bad_value_exit_2(self, argv, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_jobs_flag_gone_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "-r", "1", "-z", "1", "-k", "2", "-n", "6", "--jobs", "2"])
        assert exc.value.code == 2

    def test_bad_cap_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MOORE_SEARCH_CAP", "abc")
        rc = cli.main(["search", "-r", "1", "-z", "1", "-k", "3", "-n", "10", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: MOORE_SEARCH_CAP")

    def test_out_names_a_file_exit_2(self, tmp_path, capsys):
        target = tmp_path / "taken.txt"
        target.write_text("keep\n")
        rc = cli.main(
            ["search", "-r", "1", "-z", "1", "-k", "2", "-n", "6", "--out", str(target)]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before the search ran
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert target.read_text() == "keep\n"

    def test_missing_file_exit_5(self, tmp_path, capsys):
        assert cli.main(["spectrum", str(tmp_path / "absent.mgf")]) == 5
        assert capsys.readouterr().err.startswith("error: ")
