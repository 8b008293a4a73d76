"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They run the cheapest workload for a second, so they take about half a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench_cli(*args, cwd=run.ROOT, timeout=180):
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def pinned_result(name: str, seed: int = 0) -> dict:
    text = run.pinned_path(name, seed).read_text(encoding="utf-8")
    return {"exit": 0, "stdout": text}


class TestJudge:
    def test_pinned_output_passes(self):
        for name in ("exhaustive-n7", "iso-n6", "minlines-n7-jobs2"):
            assert run.judge(name, 0, pinned_result(name)) == []
        assert run.judge("claims-n8-sample", 0, pinned_result("claims-n8-sample")) == []

    def test_corrupted_report_fails(self):
        res = pinned_result("exhaustive-n7")
        res["stdout"] = res["stdout"].replace('"dbe_failures": 0', '"dbe_failures": 1')
        assert run.judge("exhaustive-n7", 0, res)

    def test_nonzero_exit_fails(self):
        res = pinned_result("iso-n6")
        res["exit"] = 2
        assert run.judge("iso-n6", 0, res) == ["exit code 2"]

    def test_child_error_fails(self):
        assert run.judge("iso-n6", 0, {"error": "child exited -9"})

    def test_unpinned_claims_violation_fails(self):
        # seed 10**9 has no pinned file: only the structural checks apply
        report = json.loads(pinned_result("claims-n8-sample")["stdout"])
        report["results"]["sampling"]["seed"] = 10**9
        ok = {"exit": 0, "stdout": json.dumps(report)}
        assert run.judge("claims-n8-sample", 10**9, ok) == []
        report["results"]["laws"]["twin-b"]["violations"] = 1
        bad = {"exit": 0, "stdout": json.dumps(report)}
        assert run.judge("claims-n8-sample", 10**9, bad)
        for text in ("{", "[]", '{"results": {"laws": {"twin-a": 1}}}'):
            assert run.judge("claims-n8-sample", 10**9, {"exit": 0, "stdout": text})

    def test_failed_rep_is_counted(self, monkeypatch):
        outputs = iter([pinned_result("iso-n6"), {"exit": 0, "stdout": "{}"},
                        pinned_result("iso-n6"), pinned_result("iso-n6")])
        monkeypatch.setattr(run, "run_child", lambda argv, timeout, spans=None:
                            {**next(outputs), "wall_s": 1.0, "cpu_s": 1.0,
                             "worker_cpu_s": 0.0, "peak_rss_mb": 1.0})
        reps = run.run_reps("iso-n6", 0, seconds=0, deadline=1e12)
        assert (len(reps.results), reps.failed) == (3, 1)


class TestTracing:
    def test_self_times(self):
        spans = [{"name": n, "parent": p, "start": a, "end": b, "codes": 0}
                 for n, p, a, b in (("cli.main", -1, 0.0, 10.0),
                                    ("verify.x", 0, 1.0, 9.0),
                                    ("sweep.a", 1, 2.0, 4.0),
                                    ("sweep.b", 1, 5.0, 6.0))]
        table = tracing.SpanTable(spans)
        assert table.own == [2.0, 5.0, 2.0, 1.0]
        assert table.dur == [10.0, 8.0, 2.0, 1.0]

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "5", "--json"],
        ["enumerate", "--n", "5", "--mode", "iso", "--json"],
        ["claims", "--n", "6", "--trials", "300", "--seed", "4", "--json"],
    ])
    def test_trace_leaves_stdout_unchanged(self, argv, tmp_path):
        plain = run.run_child(argv, 120)
        traced = run.run_child(argv, 120, tmp_path / "spans.jsonl")
        assert plain["exit"] == traced["exit"] == 0
        assert traced["stdout"] == plain["stdout"]
        spans = list(tracing.read_spans(tmp_path / "spans.jsonl"))
        assert spans[0]["name"] == tracing.ROOT_SPAN
        assert len({s["run"] for s in spans}) == 1
        m = tracing.derive(spans, 1, 0.0)
        assert m["sweep.one_masks.calls"] >= 1
        assert m["reports.serialize_report.busy_s"] > 0


class TestCommand:
    def test_workload_names_match(self):
        assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])

    @pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
    def test_printed_metrics_match_spec(self, trace, kind):
        res = bench_cli("--workload", "iso-n6", "--seed", "3", "--seconds", "1",
                        "--trace", trace)
        assert res.returncode == 0, res.stderr
        out = last_json(res.stdout)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {k: v["unit"] for k, v in out["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[kind]}
        detail = json.loads(res.stdout.strip().splitlines()[-2])
        assert detail["error_rate"] == 0
        assert detail["environment"]["seed"] == 3

    def test_fails_without_program(self, tmp_path):
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(BENCH, tmp_path / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        res = bench_cli("--workload", "iso-n6", "--seed", "0", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path, timeout=60)
        assert res.returncode != 0
        assert res.stdout == ""
