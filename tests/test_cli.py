"""CLI surface: subcommands, exit codes, JSON determinism."""

import json
import subprocess
import sys

import pytest

from dbelines import cli as cli_mod
from dbelines.verify import TheoremReport

PATH3 = "3\n0 1 2\n1 0 1\n2 1 0\n"


def run_cli(*args, timeout=600):
    return subprocess.run([sys.executable, "-m", "dbelines", *args],
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def path3_file(tmp_path):
    p = tmp_path / "path3.txt"
    p.write_text(PATH3)
    return str(p)


class TestAnalyze:
    def test_text_output(self, path3_file):
        res = run_cli("analyze", path3_file)
        assert res.returncode == 0
        assert "distinct lines: 1" in res.stdout
        assert "universal line: yes" in res.stdout
        assert "property: holds" in res.stdout
        assert "twin pairs: [(0, 2)]" in res.stdout

    def test_json_output(self, path3_file):
        res = run_cli("analyze", path3_file, "--json")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["schema_version"] == "1"
        assert rep["subcommand"] == "analyze"
        r = rep["results"]
        assert r["n"] == 3 and r["is_one_two"]
        assert r["verdict"] == {"line_count": 1, "has_universal": True,
                                "holds": True}
        assert r["family"]["lines"] == [[0, 1, 2]]
        assert r["twin_pairs"] == [[0, 2]]
        assert r["violations"] == []
        assert r["classes"][0]["shape"] == "other"

    def test_general_metric_space(self, tmp_path):
        p = tmp_path / "gen.txt"
        p.write_text("3\n0 1 3/2\n1 0 1\n3/2 1 0\n")
        res = run_cli("analyze", str(p), "--json")
        assert res.returncode == 0
        r = json.loads(res.stdout)["results"]
        assert not r["is_one_two"]
        assert "twin_pairs" not in r
        assert r["matrix"][0] == ["0", "1", "3/2"]

    def test_missing_file(self):
        res = run_cli("analyze", "/definitely/not/here.txt")
        assert res.returncode == 1
        assert "cannot read" in res.stderr

    def test_invalid_metric(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3\n0 5 1\n5 0 1\n1 1 0\n")
        res = run_cli("analyze", str(p))
        assert res.returncode == 1
        assert "input error" in res.stderr

    def test_malformed_matrix(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n0 x\nx 0\n")
        res = run_cli("analyze", str(p))
        assert res.returncode == 1

    def test_single_point_space(self, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("1\n0\n")
        res = run_cli("analyze", str(p))
        assert res.returncode == 1
        assert "input error" in res.stderr


class TestUsageErrors:
    def test_no_subcommand(self):
        assert run_cli().returncode == 1

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 1

    def test_unknown_flag(self):
        assert run_cli("witnesses", "--frobnicate").returncode == 1

    def test_out_of_range_n(self):
        res = run_cli("enumerate", "--n", "9")
        assert res.returncode == 1
        assert "between 2 and 8" in res.stderr

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "4", "--jobs", "-3"],
        ["enumerate", "--n", "4", "--jobs", "0"],
        ["enumerate", "--n", "4", "--max-witnesses", "-1"],
        ["enumerate", "--n", "4", "--mode", "iso", "--max-witnesses", "-1"],
        ["claims", "--n", "4", "--jobs", "0"],
        ["claims", "--n", "4", "--max-witnesses", "-1"],
        ["claims", "--n", "4", "--trials", "10", "--jobs", "-1"],
        ["claims", "--n", "4", "--trials", "10", "--max-witnesses", "-2"],
        ["min-lines", "--n", "4", "--jobs", "0"],
        ["random-metrics", "--trials", "10", "--max-witnesses", "-1"],
    ])
    def test_bad_limits_are_input_errors(self, argv, capsys):
        assert cli_mod.main([*argv, "--json"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "input error" in out.err

    def test_n8_needs_opt_in(self):
        res = run_cli("enumerate", "--n", "8")
        assert res.returncode == 1
        assert "--allow-large" in res.stderr
        assert run_cli("min-lines", "--n", "8").returncode == 1
        assert run_cli("claims", "--n", "8").returncode == 1


class TestEnumerate:
    def test_json_fields(self):
        res = run_cli("enumerate", "--n", "4", "--json")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["inputs"] == {"n": 4, "mode": "all", "max_witnesses": 100}
        r = rep["results"]
        assert r["total_codes"] == 64
        assert r["dbe_failures"] == 0
        assert r["min_lines_overall"] == 1
        assert r["min_lines_no_universal"] == 4
        assert r["argmin_codes"] == {"overall": 12, "no_universal": 15}
        assert r["class_counts_by_shape"]["uniform_matching"] == 198
        assert all(law["violations"] == 0 for law in r["laws"].values())

    def test_iso_mode(self):
        res = run_cli("enumerate", "--n", "4", "--mode", "iso", "--json")
        assert json.loads(res.stdout)["results"]["total_codes"] == 11

    def test_jobs_do_not_change_bytes(self):
        a = run_cli("enumerate", "--n", "5", "--json", "--jobs", "1")
        b = run_cli("enumerate", "--n", "5", "--json", "--jobs", "4")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_text_mentions_failures(self):
        res = run_cli("enumerate", "--n", "3")
        assert "dbe_failures: 0" in res.stdout

    def test_full_n7_sweep(self):
        res = run_cli("enumerate", "--n", "7", "--mode", "all", "--json")
        assert res.returncode == 0
        r = json.loads(res.stdout)["results"]
        assert r["total_codes"] == 2_097_152
        assert r["dbe_failures"] == 0
        # progress lines hit stderr, stdout stays machine-clean
        assert "codes" in res.stderr


class TestClaims:
    def test_exhaustive(self):
        res = run_cli("claims", "--n", "5", "--json")
        assert res.returncode == 0
        r = json.loads(res.stdout)["results"]
        assert r["total_codes"] == 1024
        assert r["sampling"] is None
        assert all(law["violations"] == 0 for law in r["laws"].values())

    def test_sampled(self):
        res = run_cli("claims", "--n", "7", "--trials", "100", "--seed", "3",
                      "--json")
        assert res.returncode == 0
        r = json.loads(res.stdout)["results"]
        assert r["sampling"] == {"trials": 100, "seed": 3}
        assert r["skipped_laws"] == []

    def test_text_traceability_lines(self):
        res = run_cli("claims", "--n", "4")
        assert res.returncode == 0
        for law in ("disjoint-diff-label", "twin-b", "full-cover",
                    "class-shape", "class-size"):
            assert law in res.stdout

    def test_sampled_n8_runs_all_laws(self):
        res = run_cli("claims", "--n", "8", "--trials", "50", "--seed", "2",
                      "--json")
        assert res.returncode == 0
        r = json.loads(res.stdout)["results"]
        assert r["skipped_laws"] == []
        assert all(law["violations"] == 0 for law in r["laws"].values())

    def test_jobs_do_not_change_bytes(self):
        a = run_cli("claims", "--n", "5", "--json", "--jobs", "1")
        b = run_cli("claims", "--n", "5", "--json", "--jobs", "3")
        assert a.stdout == b.stdout
        a = run_cli("min-lines", "--n", "4", "--json", "--jobs", "1")
        b = run_cli("min-lines", "--n", "4", "--json", "--jobs", "3")
        assert a.stdout == b.stdout


class TestWitnesses:
    def test_json(self):
        res = run_cli("witnesses", "--json")
        assert res.returncode == 0
        r = json.loads(res.stdout)["results"]
        assert [w["line_count"] for w in r["witnesses"]] == [12, 12, 12, 10, 11, 9]
        assert r["min_line_count"] == 9
        assert all(len(w["matrix"]) == 6 for w in r["witnesses"])

    def test_text(self):
        res = run_cli("witnesses")
        assert res.returncode == 0
        assert "must be >= 6" in res.stdout


class TestMinLines:
    def test_table(self):
        res = run_cli("min-lines", "--n", "5", "--json")
        assert res.returncode == 0
        rows = json.loads(res.stdout)["results"]["rows"]
        assert [r["n"] for r in rows] == [2, 3, 4, 5]
        assert rows[0]["min_lines_no_universal"] is None
        assert rows[3]["min_lines_overall"] == 4

    def test_text_has_placeholder_for_n2(self):
        res = run_cli("min-lines", "--n", "3")
        assert res.returncode == 0
        assert "-" in res.stdout


class TestRandomMetrics:
    def test_small_run(self):
        res = run_cli("random-metrics", "--trials", "60", "--seed", "9",
                      "--json")
        assert res.returncode == 0
        r = json.loads(res.stdout)["results"]
        assert r["seed"] == 9
        assert [x["dbe_failures"] for x in r["exhaustive"]] == [0, 0, 0]
        assert [x["dbe_failures"] for x in r["random"]] == [0, 0, 0]

    def test_text_phrasing_never_confirms(self):
        res = run_cli("random-metrics", "--trials", "20")
        assert res.returncode == 0
        assert "no counterexample found" in res.stdout
        assert "confirmed" not in res.stdout.lower()

    def test_repeat_runs_identical(self):
        a = run_cli("random-metrics", "--trials", "40", "--seed", "5", "--json")
        b = run_cli("random-metrics", "--trials", "40", "--seed", "5", "--json")
        assert a.stdout == b.stdout


class TestExitCodeTwo:
    def test_injected_dbe_failure(self, monkeypatch, capsys):
        fake = TheoremReport(
            n=4, mode="all", checker_level="none", total_codes=64,
            dbe_failures=1, failure_witnesses=(17,), min_lines_overall=1,
            argmin_overall=12, min_lines_no_universal=4,
            argmin_no_universal=15, twin_free_codes=None,
            class_counts_by_shape=None, laws=None)
        monkeypatch.setattr(cli_mod, "verify_theorem",
                            lambda *a, **k: fake)
        assert cli_mod.main(["enumerate", "--n", "4"]) == 2
        out = capsys.readouterr().out
        assert "dbe_failures: 1" in out

    def test_jobs_accepted_everywhere(self, path3_file):
        assert run_cli("analyze", path3_file, "--jobs", "3").returncode == 0
        assert run_cli("witnesses", "--jobs", "2").returncode == 0
