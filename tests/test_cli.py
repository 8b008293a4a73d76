"""CLI surface: subcommands, exit codes, JSON determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbelines import cli as cli_mod
from dbelines import lines as lines_mod
from dbelines import verify as verify_mod
from dbelines import dbe_verdict, parse_distance_matrix, validate_metric
from dbelines.bitset import pair_count
from dbelines.verify import TheoremReport

PATH3 = "3\n0 1 2\n1 0 1\n2 1 0\n"
CYCLE5 = "5\n0 1 2 2 1\n1 0 1 2 2\n2 1 0 1 2\n2 2 1 0 1\n1 2 2 1 0\n"
GENERAL4 = "4\n0 1 3/2 2\n1 0 1 7/4\n3/2 1 0 1\n2 7/4 1 0\n"

# stdout pins of the benchmark workloads, read and never written here
BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected"


def brute_iso_report(n, least):
    """The iso report of the codes that are their own minimum over all n!
    relabelings, least (the orbit_minima fixture's), swept as one batch."""
    codes = np.arange(1 << pair_count(n), dtype=np.int64)
    codes = codes[least == codes]
    return verify_mod._sweep(n, "iso", codes, "full", 100, verify_mod._workspace())


def run_cli(*args, timeout=600):
    return subprocess.run([sys.executable, "-m", "dbelines", *args],
                          capture_output=True, text=True, timeout=timeout)


def run_main(argv):
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(argv)
    return code, out.getvalue(), err.getvalue()


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

    def test_json_result_keys(self, path3_file, tmp_path, capsys):
        # law violations are reported in "violations" alone
        general = tmp_path / "gen.txt"
        general.write_text("3\n0 1 3/2\n1 0 1\n3/2 1 0\n")
        keys = []
        for path in (path3_file, str(general)):
            assert cli_mod.main(["analyze", path, "--json"]) == 0
            keys.append(list(json.loads(capsys.readouterr().out)["results"]))
        common = ["n", "is_one_two", "matrix", "verdict", "family"]
        assert keys == [common + ["twin_pairs", "classes", "violations"], common]

    def test_general_metric_space(self, tmp_path):
        p = tmp_path / "gen.txt"
        p.write_text("3\n0 1 3/2\n1 0 1\n3/2 1 0\n")
        res = run_cli("analyze", str(p), "--json")
        assert res.returncode == 0
        r = json.loads(res.stdout)["results"]
        assert not r["is_one_two"]
        assert "twin_pairs" not in r
        assert r["matrix"][0] == ["0", "1", "3/2"]

    @pytest.mark.parametrize("text", [PATH3, CYCLE5, GENERAL4])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_builds_line_table_once(self, text, as_json, tmp_path, monkeypatch):
        p = tmp_path / "space.txt"
        p.write_text(text)
        all_lines = lines_mod.all_lines
        calls = []

        def counted(space):
            calls.append(space.n)
            return all_lines(space)

        monkeypatch.setattr(cli_mod, "all_lines", counted)
        monkeypatch.setattr(lines_mod, "all_lines", counted)
        code, out, _ = run_main(["analyze", str(p), *(["--json"] if as_json else [])])
        assert code == 0 and len(calls) == 1
        monkeypatch.undo()
        verdict = dbe_verdict(validate_metric(parse_distance_matrix(text)))
        if as_json:
            assert json.loads(out)["results"]["verdict"] == {
                "line_count": verdict.line_count,
                "has_universal": verdict.has_universal, "holds": verdict.holds}
        else:
            assert f"distinct lines: {verdict.line_count}   " in out

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

    @pytest.mark.parametrize("text, message", [
        ("3\n0 1 2\n1 0 1\n1 1 0\n", "d(0,2) = 2 != d(2,0) = 1"),
        ("3\n0 2 1\n2 2 1\n1 1 0\n", "d(1,1) = 2 != 0"),
        ("3\n0 1 3\n1 0 1\n3 1 0\n", "d(0,2) = 3 > d(0,1) + d(1,2) = 1 + 1"),
    ])
    def test_invalid_one_two_and_one_three(self, text, message, tmp_path):
        # an asymmetric 1-2 matrix, a 1-2 matrix with a nonzero diagonal,
        # and a {1, 3} matrix that breaks the triangle inequality
        p = tmp_path / "bad.txt"
        p.write_text(text)
        res = run_cli("analyze", str(p))
        assert (res.returncode, res.stdout) == (1, "")
        assert message in res.stderr

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

    def test_one_two_space_above_64_points(self, tmp_path):
        # adjacency masks are Python ints, so 1-2 spaces have no point cap
        n = 65
        rows = [" ".join("0" if i == j else "1" if (i - j) % n in (1, n - 1)
                         else "2" for j in range(n)) for i in range(n)]
        p = tmp_path / "cycle65.txt"
        p.write_text(f"{n}\n" + "\n".join(rows) + "\n")
        res = run_cli("analyze", str(p), "--json")
        assert res.returncode == 0, res.stderr
        r = json.loads(res.stdout)["results"]
        assert r["n"] == n and r["is_one_two"]
        assert r["verdict"]["holds"]


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
        ["min-lines", "--n", "4", "--jobs", "-3"],
        ["enumerate", "--n", "1"],
        ["enumerate", "--n", "4", "--max-witnesses", "-1"],
        ["enumerate", "--n", "4", "--mode", "iso", "--max-witnesses", "-1"],
        ["claims", "--n", "1"],
        ["claims", "--n", "4", "--max-witnesses", "-1"],
        ["claims", "--n", "4", "--trials", "-1"],
        ["claims", "--n", "4", "--trials", "10", "--max-witnesses", "-2"],
        ["min-lines", "--n", "4", "--jobs", "0"],
        ["random-metrics", "--trials", "10", "--max-witnesses", "-1"],
        ["random-metrics", "--trials", "-3"],
        ["claims", "--n", "9", "--trials", "10"],
        ["claims", "--n", "9"],
        ["min-lines", "--n", "1"],
        ["min-lines", "--n", "9"],
    ])
    def test_bad_limits_are_input_errors(self, argv, capsys):
        assert cli_mod.main([*argv, "--json"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "input error" in out.err

    def test_n8_needs_no_opt_in(self):
        # an n = 8 report sweeps 12,346 classes, not 2^28 codes
        res = run_cli("enumerate", "--n", "8")
        assert res.returncode == 0
        assert "enumerate n=8: 8/8 points" in res.stderr
        assert run_cli("min-lines", "--n", "8").returncode == 0
        assert run_cli("claims", "--n", "8").returncode == 0
        res = run_cli("enumerate", "--n", "8", "--allow-large")
        assert res.returncode == 1
        assert "unrecognized arguments: --allow-large" in res.stderr


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

    def test_iso_n6_matches_bench_pin(self):
        code, out, err = run_main(["enumerate", "--n", "6", "--mode", "iso", "--json"])
        assert code == 0
        assert out.encode() == (BENCH_EXPECTED / "iso-n6.json").read_bytes()
        assert "6/6 points" in err

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_iso_matches_brute_filter(self, n, as_json, monkeypatch, orbit_minima):
        # the report of the codes that are their own minimum over all
        # relabelings, rendered by the same command
        argv = ["enumerate", "--n", str(n), "--mode", "iso",
                *(["--json"] if as_json else [])]
        code, out, err = run_main(argv)
        assert code == 0
        assert [line for line in err.splitlines() if "points" in line] == [
            f"enumerate n={n}: {m}/{n} points" for m in range(3, n + 1)]
        brute = brute_iso_report(n, orbit_minima(n))
        monkeypatch.setattr(cli_mod, "verify_theorem", lambda *a, **k: brute)
        assert run_main(argv)[:2] == (0, out)

    def test_iso_n8(self):
        code, out, err = run_main(["enumerate", "--n", "8", "--mode", "iso", "--json"])
        assert code == 0
        assert json.loads(out)["results"]["total_codes"] == 12346
        assert "8/8 points" in err

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
        assert "7/7 points" in res.stderr


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

    def test_n8_law_table_lines_up(self):
        # the n = 8 counts have up to 11 digits, and the column widens to fit
        code, out, _ = run_main(["claims", "--n", "8"])
        assert code == 0
        header, *rows = out.splitlines()[1:]
        assert header.split() == ["law", "instances", "violations"]
        instances_end = header.index("instances") + len("instances")
        assert len(rows) == 9
        for row in rows:
            if row.endswith("skipped"):
                assert len(row) == instances_end, row
            else:
                assert len(row) == len(header), row
                assert row[:instances_end].endswith(row.split()[1]), row

    def test_jobs_do_not_change_bytes(self):
        # min-lines alone still takes --jobs, and starts no process at any
        a = run_cli("min-lines", "--n", "6", "--json", "--jobs", "1")
        b = run_cli("min-lines", "--n", "6", "--json", "--jobs", "3")
        assert a.returncode == b.returncode == 0
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

    def test_progress_once_per_point_count(self):
        code, _, err = run_main(["min-lines", "--n", "5", "--json"])
        assert code == 0
        assert [line for line in err.splitlines() if "points" in line] == [
            f"min-lines: {m}/5 points" for m in range(2, 6)]

    def test_jobs_help_says_it_starts_no_process(self, capsys):
        assert cli_mod.main(["min-lines", "--help"]) == 0
        assert "starts no process" in " ".join(capsys.readouterr().out.split())


def test_sweeps_leave_numpy_ma_and_random_unimported():
    # in a fresh interpreter numpy.ma costs about 20 ms and 0.5 MB on first
    # import (np.unique imports it), and numpy.random 5 MB; no sweep starts
    # a process, not even a sample of three chunks
    script = ("import sys\n"
              "from dbelines import cli\n"
              "assert cli.main(['enumerate', '--n', '6', '--mode', 'iso', '--json']) == 0\n"
              "assert cli.main(['min-lines', '--n', '7', '--json']) == 0\n"
              "assert cli.main(['claims', '--n', '8', '--trials', '100', '--json']) == 0\n"
              "assert cli.main(['claims', '--n', '6', '--trials', '140000', '--json']) == 0\n"
              "print([m for m in ('numpy.ma', 'numpy.random', 'multiprocessing')\n"
              "       if m in sys.modules])\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


class TestContractBytes:
    """The output contract, byte for byte: stdout of in-process runs
    against the benchmark's pins, and sha256 pins of two claims reports,
    the n = 7 and 8 iso reports and the min-lines table to n = 8, which no
    file pins."""

    @pytest.mark.parametrize("argv, pin", [
        (["enumerate", "--n", "7", "--json"], "exhaustive-n7.json"),
        (["min-lines", "--n", "7", "--json"], "minlines-n7-jobs2.json"),
        (["min-lines", "--n", "7", "--json", "--jobs", "2"], "minlines-n7-jobs2.json"),
        *((["claims", "--n", "8", "--trials", "30000", "--seed", str(seed), "--json"],
           f"claims-n8-sample-seed{seed}.json") for seed in (0, 3, 20)),
    ])
    def test_matches_bench_pin(self, argv, pin):
        code, out, _ = run_main(argv)
        assert code == 0
        assert out.encode() == (BENCH_EXPECTED / pin).read_bytes()

    @pytest.mark.parametrize("argv, digest", [
        (["claims", "--n", "7", "--json"],
         "912a306e1f706aadf898782f9bd5c474c0a7a3618fa2f1a1ed17f81bf826c3ee"),
        (["claims", "--n", "5", "--trials", "0", "--seed", "1", "--json"],
         "700aa61732d365c3513fd821727a1d4cbd3e1616dba0a52d9f6714e82549b38e"),
        (["enumerate", "--n", "7", "--mode", "iso", "--json"],
         "50cbc4ee809f01e5c07b0c295b7c89b3aff1fe05b960cc8420b2b96d4b8b4cab"),
        (["enumerate", "--n", "8", "--mode", "iso", "--json"],
         "a0fccaa79d8d6de2b6b070fb0cd5e9c523dc4abe3541155fabca4ecd390e1b3b"),
        (["min-lines", "--n", "8", "--json"],
         "b25816574e1522dbe0a072623aa7d658e26809e5a72c3f5009a272cf0bb05d07"),
    ])
    def test_matches_sha256_pin(self, argv, digest):
        code, out, _ = run_main(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_last_progress_line(self):
        # 3 x 1234 trials is no multiple of the progress interval, and the
        # run still ends with its final count
        code, _, err = run_main(["random-metrics", "--trials", "1234"])
        assert code == 0
        progress = err.splitlines()[:-1]
        assert len(progress) == 1
        assert progress[0].startswith("random-metrics: 3702/3702 trials, ")

    def test_progress_every_10000_trials(self):
        # a line per 10,000 trials, where a default run of 300,000 would
        # otherwise stay silent until its end
        code, _, err = run_main(["random-metrics", "--trials", "10000"])
        assert code == 0
        progress = err.splitlines()[:-1]
        assert [line.split(",")[0] for line in progress] == [
            f"random-metrics: {done}/30000 trials" for done in (10000, 20000, 30000)]


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

    def test_injected_dbe_failure_in_claims(self, monkeypatch, capsys):
        # claims JSON has no DBE field: the failure shows in the exit code,
        # on stderr and in the text form, and the JSON stays as it was
        real = verify_mod.claims_sweep(4)
        assert cli_mod.main(["claims", "--n", "4"]) == 0
        out, err = capsys.readouterr()
        assert "dbe_failures" not in out + err
        assert cli_mod.main(["claims", "--n", "4", "--json"]) == 0
        clean_json = capsys.readouterr().out
        fake = replace(real, dbe_failures=2, failure_witnesses=(17, 40))
        monkeypatch.setattr(cli_mod, "claims_sweep", lambda *a, **k: fake)
        assert cli_mod.main(["claims", "--n", "4", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == clean_json
        assert "dbe_failures: 2 (codes 17, 40)\n" in err
        assert cli_mod.main(["claims", "--n", "4"]) == 2
        out, err = capsys.readouterr()
        assert "dbe_failures: 2 (codes 17, 40)\n" in out
        assert "dbe_failures: 2 (codes 17, 40)\n" in err
        # with --max-witnesses 0 no code is kept
        fake = replace(fake, failure_witnesses=())
        assert cli_mod.main(["claims", "--n", "4", "--json"]) == 2
        assert "dbe_failures: 2\n" in capsys.readouterr().err

    def test_injected_dbe_failure_in_min_lines(self, monkeypatch):
        rows = verify_mod.min_lines_table(4)
        fake = rows[:-1] + (replace(rows[-1], dbe_failures=1),)
        monkeypatch.setattr(cli_mod, "min_lines_table", lambda *a, **k: fake)
        assert cli_mod.main(["min-lines", "--n", "4", "--json"]) == 2
        assert cli_mod.main(["min-lines", "--n", "4"]) == 2

    def test_jobs_only_on_min_lines(self, path3_file, capsys):
        # every other subcommand rejects --jobs as an unknown argument
        for argv in (["enumerate", "--n", "3", "--jobs", "2"],
                     ["enumerate", "--n", "4", "--jobs", "-3"],
                     ["enumerate", "--n", "4", "--jobs", "0"],
                     ["claims", "--n", "3", "--jobs", "2"],
                     ["claims", "--n", "4", "--jobs", "0"],
                     ["claims", "--n", "4", "--trials", "10", "--jobs", "-1"],
                     ["analyze", path3_file, "--jobs", "2"],
                     ["witnesses", "--jobs", "2"],
                     ["random-metrics", "--trials", "5", "--jobs", "2"]):
            assert cli_mod.main([*argv, "--json"]) == 1, argv
            out = capsys.readouterr()
            assert out.out == "", argv
            assert "unrecognized arguments: --jobs" in out.err, argv
        assert cli_mod.main(["min-lines", "--n", "3", "--jobs", "2", "--json"]) == 0


class TestExitCodeProperty:
    """Exit 1 exactly when an argument is out of range, 0 otherwise."""

    @settings(max_examples=40, deadline=None)
    @given(cmd=st.sampled_from(["enumerate", "claims", "min-lines",
                                "random-metrics"]),
           n=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9]),
           jobs=st.integers(-2, 2), cap=st.integers(-2, 3),
           trials=st.integers(-3, 40))
    def test_exit_code(self, cmd, n, jobs, cap, trials):
        args = {"enumerate": {"--n": n, "--max-witnesses": cap},
                "claims": {"--n": n, "--max-witnesses": cap, "--trials": trials},
                "min-lines": {"--n": n, "--jobs": jobs},
                "random-metrics": {"--trials": trials, "--max-witnesses": cap},
                }[cmd]
        bad = ("--n" in args and not 2 <= n <= 8
               or args.get("--jobs", 1) < 1
               or args.get("--max-witnesses", 0) < 0
               or args.get("--trials", 0) < 0)
        argv = [cmd, "--json", *(str(x) for kv in args.items() for x in kv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_mod.main(argv)
        assert code == (1 if bad else 0), (argv, err.getvalue())
        if bad:
            assert out.getvalue() == "" and err.getvalue(), argv
        else:
            assert json.loads(out.getvalue())["subcommand"] == cmd


class TestJobsProperty:
    """--jobs, which only min-lines takes, never changes stdout."""

    serial: dict = {}

    @staticmethod
    def stdout_of(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli_mod.main(argv) == 0, (argv, err.getvalue())
        return out.getvalue()

    # the table is made in this process at any --jobs
    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([3, 6, 7]), as_json=st.booleans(),
           jobs=st.sampled_from([2, 3]))
    @example(n=7, as_json=True, jobs=2)
    def test_jobs_never_change_stdout(self, n, as_json, jobs):
        argv = ["min-lines", "--n", str(n), *(["--json"] if as_json else [])]
        key = tuple(argv)
        if key not in self.serial:
            self.serial[key] = self.stdout_of([*argv, "--jobs", "1"])
        assert self.stdout_of([*argv, "--jobs", str(jobs)]) == self.serial[key]


class TestProgressLines:
    """Progress goes to stderr only: stdout is the same bytes without it."""

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--n", "7", "--json"),
        ("enumerate", "--n", "6", "--mode", "iso", "--json"),
        ("claims", "--n", "6"),
        ("claims", "--n", "6", "--trials", "3000"),
        ("min-lines", "--n", "7", "--jobs", "2", "--json"),
    ])
    def test_stdout_same_without_progress(self, argv, monkeypatch):
        code, with_progress, err = run_main(list(argv))
        assert code == 0 and err.count(": ") > 1
        monkeypatch.setattr(cli_mod, "_progress_printer", lambda *a, **k: None)
        code, without, quiet = run_main(list(argv))
        assert code == 0 and quiet.startswith("runtime: ")
        assert with_progress == without

    def test_code_sweeps_show_rate_and_eta(self):
        _, _, err = run_main(["claims", "--n", "7", "--trials", "1100000", "--json"])
        lines = err.splitlines()[:-1]
        assert lines[-1].startswith("claims n=7: 1100000/1100000 codes, ")
        assert all(" codes/s, ETA " in line for line in lines)
        assert lines[-1].endswith(", ETA 0.0 s")

    def test_iso_points_stay_untimed(self):
        _, _, err = run_main(["enumerate", "--n", "5", "--mode", "iso"])
        assert err.splitlines()[:-1] == [f"enumerate n=5: {m}/5 points"
                                         for m in (3, 4, 5)]
