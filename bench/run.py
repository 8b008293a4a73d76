"""dbelines benchmark: one workload per run, untraced or traced.

    python3 bench/run.py --workload exhaustive-n7 --seed 1 --seconds 30 --trace 0

Every repetition runs `dbelines.cli.main([..., "--json"])` in a fresh
interpreter (bench/child.py) and checks its stdout.  With --trace 0 the last
stdout line carries the end-to-end metrics of BENCHMARK.json; with --trace 1,
one traced repetition gives the per-layer metrics.  The line before it
records the environment, the error rate and each metric's median, quartiles
and sample count.  bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path

from tracing import derive, read_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
OUT = BENCH / "out"

CLAIMS_TRIALS = 30000
CLAIMS_PINNED_SEEDS = range(21)  # seeds pinned in expected/
MIN_REPS = 3
DEADLINE_S = 170  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # CLI arguments; "{seed}" stands for the seed
    codes: int             # codes covered by one call
    pin_args: tuple[str, ...] | None = None  # pinned call, when not args

    def argv(self, seed: int) -> list[str]:
        return [a.format(seed=seed) for a in self.args]

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.args

    @property
    def jobs(self) -> int:
        a = self.args
        return int(a[a.index("--jobs") + 1]) if "--jobs" in a else 1


WORKLOADS = {
    "exhaustive-n7": Workload(("enumerate", "--n", "7", "--json"), 1 << 21),
    "claims-n8-sample": Workload(
        ("claims", "--n", "8", "--trials", str(CLAIMS_TRIALS),
         "--seed", "{seed}", "--json"), CLAIMS_TRIALS),
    # --jobs never changes the output, so the pin is the jobs-1 bytes
    "minlines-n7-jobs2": Workload(
        ("min-lines", "--n", "7", "--jobs", "2", "--json"),
        sum(1 << comb(n, 2) for n in range(2, 8)),
        ("min-lines", "--n", "7", "--json")),
    "iso-n6": Workload(("enumerate", "--n", "6", "--mode", "iso", "--json"), 1 << 15),
}


def pinned_path(name: str, seed: int) -> Path:
    if WORKLOADS[name].seeded:
        return EXPECTED / f"{name}-seed{seed}.json"
    return EXPECTED / f"{name}.json"


# --- running the program ---------------------------------------------------

def spawn(cmd: list[str], timeout: float) -> tuple[int, str, str]:
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -signal.SIGKILL, out, err + f"\ntimed out after {timeout:.0f} s"
    return proc.returncode, out, err


def run_child(cli_argv: list[str], timeout: float, spans: Path | None = None) -> dict:
    """One CLI call in a fresh interpreter; the child's report, or an error."""
    cmd = [sys.executable, str(BENCH / "child.py")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *cli_argv]
    rc, out, err = spawn(cmd, timeout)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        return {"error": f"child exited {rc}: {err.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"child printed no report: {lines[-1][:200]!r}"}


# --- output checks ---------------------------------------------------------

def claims_problems(report: dict, trials: int, seed: int) -> list[str]:
    """Checks that hold for every claims sample, pinned or not."""
    res = report.get("results") or {}
    probs = []
    if res.get("total_codes") != trials:
        probs.append(f"total_codes {res.get('total_codes')} != trials {trials}")
    if res.get("sampling") != {"trials": trials, "seed": seed}:
        probs.append(f"sampling {res.get('sampling')} != trials/seed")
    if res.get("skipped_laws") != []:
        probs.append(f"skipped laws {res.get('skipped_laws')}")
    laws = res.get("laws") or {}
    if len(laws) != 9:
        probs.append(f"{len(laws)} laws reported, expected 9")
    for law, stat in laws.items():
        if stat.get("violations") != 0 or stat.get("witness_codes") != []:
            probs.append(f"law {law}: {stat.get('violations')} violations")
        # full-cover has ~3 instances per 30000 codes and may have none
        if law != "full-cover" and not stat.get("instances"):
            probs.append(f"law {law}: no instances")
    return probs


def judge(name: str, seed: int, result: dict) -> list[str]:
    """Everything wrong with one repetition's output; empty when correct."""
    if "error" in result:
        return [result["error"]]
    probs = []
    if result["exit"] != 0:
        probs.append(f"exit code {result['exit']}")
    text = result["stdout"]
    if name == "claims-n8-sample":
        try:
            probs += claims_problems(json.loads(text), CLAIMS_TRIALS, seed)
        except (json.JSONDecodeError, AttributeError, TypeError) as exc:
            probs.append(f"malformed report: {exc!r}")
    pin = pinned_path(name, seed)
    if pin.exists():
        want = pin.read_bytes()
        got = text.encode("utf-8")
        if got != want:
            probs.append(f"stdout differs from {pin.relative_to(ROOT)} "
                         f"(sha256 {hashlib.sha256(got).hexdigest()[:12]} vs "
                         f"{hashlib.sha256(want).hexdigest()[:12]})")
    elif not WORKLOADS[name].seeded:
        probs.append(f"missing pinned output {pin.relative_to(ROOT)}")
    return probs


# --- statistics and environment --------------------------------------------

def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def git_revision() -> str | None:
    # without its own .git, git would report an enclosing repository
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "dbelines").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed: int, numpy_version: str | None) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_revision": git_revision(),
            "source_sha256": source_digest(), "seed": seed}


# --- one benchmark run -----------------------------------------------------

@dataclass
class Reps:
    results: list[dict]
    failed: int


def run_reps(name: str, seed: int, seconds: float, deadline: float,
             traced_first: Path | None = None) -> Reps:
    """Repeat the workload until `seconds` are used (at least MIN_REPS
    untraced repetitions).  With traced_first, repetition 0 is traced."""
    argv = WORKLOADS[name].argv(seed)
    results: list[dict] = []
    costs: list[float] = []
    failed = 0
    start = time.perf_counter()
    while True:
        spans = traced_first if not results and traced_first else None
        t0 = time.perf_counter()
        res = run_child(argv, deadline - t0, spans)
        res["traced"] = spans is not None
        if not res["traced"]:
            costs.append(time.perf_counter() - t0)
        probs = judge(name, seed, res)
        if probs:
            failed += 1
            print(f"FAIL {name} seed {seed} rep {len(results)}: "
                  + "; ".join(probs), file=sys.stderr)
        results.append(res)
        now = time.perf_counter()
        if "error" in res and now >= deadline:
            break
        if len(costs) >= MIN_REPS and (
                now - start + statistics.median(costs) > seconds
                or now + 2 * max(costs) > deadline):
            break
    return Reps(results, failed)


def end_to_end(name: str, timed: list[dict]) -> dict:
    wall = [r["wall_s"] for r in timed]
    return {
        "wall_s": wall,
        "codes_per_s": [WORKLOADS[name].codes / w for w in wall],
        "cpu_s": [r["cpu_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
    }


def per_layer(name: str, traced: dict, spans_path: Path, untraced: list[dict]) -> dict:
    m = derive(read_spans(spans_path), WORKLOADS[name].jobs, traced["worker_cpu_s"])
    m["trace.overhead_s"] = (traced["wall_s"]
                             - statistics.median(r["wall_s"] for r in untraced))
    return m


def metric_units() -> dict:
    """Unit of every metric named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def bench(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(detail record, result line) of one run."""
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}.jsonl" if trace else None
    reps = run_reps(name, seed, seconds, deadline, spans_path)
    timed = [r for r in reps.results if "error" not in r]
    untraced = [r for r in timed if not r["traced"]]
    detail = {
        "workload": name, "seed_used": WORKLOADS[name].seeded,
        "trace": trace, "seconds": seconds,
        "environment": environment(seed, timed[0]["numpy"] if timed else None),
        "attempted": len(reps.results), "failed": reps.failed,
        "error_rate": reps.failed / len(reps.results),
    }
    units = metric_units()
    metrics: dict = {}
    if untraced and not trace:
        samples = end_to_end(name, untraced)
        detail["samples"] = {k: {**summary(v), "unit": units[k]}
                             for k, v in samples.items()}
        metrics = {k: {"value": s["median"], "unit": s["unit"]}
                   for k, s in detail["samples"].items()}
    elif untraced and timed[0]["traced"]:
        layers = per_layer(name, timed[0], spans_path, untraced)
        detail["spans"] = str(spans_path.relative_to(ROOT))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    result = {"correct": reps.failed == 0 and bool(metrics),
              "attempted": len(reps.results), "failed": reps.failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "dbelines" / "cli.py").is_file():
        print(f"no dbelines source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    detail, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
