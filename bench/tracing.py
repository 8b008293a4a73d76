"""Span tracing of dbelines layer calls, recorded from outside the package.

The tracer replaces the module attributes that callers look up with timing
wrappers, so no file of the package changes.  Spans live in flat lists
during the run and are written as JSON lines when it ends; `derive` turns a
span file back into the per-layer metrics.

Only the calling process is traced.  Work done inside `--jobs` pool workers
(the sweep kernels of `min-lines --jobs 2`) is invisible here; the pool is
seen only through its CPU time (`verify.pool_cpu_util`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Iterable, Iterator

SWEEP_KERNELS = ("one_masks", "line_masks", "sorted_lines", "distinct_counts",
                 "universal_flags", "label_bits", "twin_pair_flags",
                 "class_size_stats", "distinct_line_counts", "twin_law_counts",
                 "size_bound_counts", "canonical_min")

# (module whose attribute is replaced, attribute, span name).  verify and cli
# import these names directly, so the wrapper goes on the caller's binding.
TARGETS = (
    *(("dbelines.sweep", k, f"sweep.{k}") for k in SWEEP_KERNELS),
    ("dbelines.verify", "space_from_code", "spaces.space_from_code"),
    ("dbelines.verify", "all_lines", "lines.all_lines"),
    ("dbelines.verify", "equiv_classes", "structure.equiv_classes"),
    ("dbelines.verify", "classify_class", "structure.classify_class"),
    ("dbelines.cli", "verify_theorem", "verify.verify_theorem"),
    ("dbelines.cli", "claims_sweep", "verify.claims_sweep"),
    ("dbelines.cli", "min_lines_table", "verify.min_lines_table"),
    ("dbelines.reports", "serialize_report", "reports.serialize_report"),
)

ROOT_SPAN = "cli.main"
MCODE = 1 << 20


def _batch_size(args) -> int:
    # every sweep kernel keeps the code axis last on its array arguments
    for a in args:
        shape = getattr(a, "shape", None)
        if shape:
            return int(shape[-1])
    return 0


class Tracer:
    """In-memory span recorder.  One span: name, start, end, parent, codes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.codes: list[int] = []
        self._stack = [-1]

    def open(self, name: str, codes: int = 0) -> int:
        i = len(self.start)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.codes.append(codes)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        """Wrap every TARGETS attribute for the rest of this process."""
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            count = modname == "dbelines.sweep"
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, count))

    def _wrap(self, fn, name: str, count_codes: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name, _batch_size(args) if count_codes else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def write_jsonl(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        run = json.dumps(self.run_id)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(f'{{"run": {run}, "id": {i}, "parent": {self.parent[i]}, '
                         f'"name": "{name}", "start": {self.start[i] - t0:.9f}, '
                         f'"end": {self.end[i] - t0:.9f}, '
                         f'"codes": {self.codes[i]}}}\n')


def read_spans(path) -> Iterator[dict]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


class SpanTable:
    """Name, duration, self time and codes of each span, in id order.

    Self time is a span's duration minus the durations of its direct
    children.  Spans must arrive in id order, which puts every parent before
    its children (a span gets its id when it opens).
    """

    def __init__(self, spans: Iterable[dict]):
        self.names: list[str] = []
        self.dur: list[float] = []
        self.own: list[float] = []
        self.codes: list[int] = []
        for s in spans:
            d = s["end"] - s["start"]
            self.names.append(sys.intern(s["name"]))
            self.dur.append(d)
            self.own.append(d)
            self.codes.append(s["codes"])
            if s["parent"] >= 0:
                self.own[s["parent"]] -= d


def derive(spans: Iterable[dict], jobs: int, worker_cpu_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed by BENCHMARK.json names.

    jobs and worker_cpu_s (pool-worker CPU over the cli.main call) give
    verify.pool_cpu_util; trace.overhead_s needs the untraced runs and is
    added by the caller.
    """
    t = SpanTable(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    codes: dict[str, int] = {}
    verify_span = 0.0
    for name, dur, own, c in zip(t.names, t.dur, t.own, t.codes):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + own
        codes[name] = codes.get(name, 0) + c
        if name.startswith("verify."):
            verify_span += dur

    def layer_busy(prefix: str) -> float:
        return sum(v for k, v in busy.items() if k.startswith(prefix))

    m: dict = {}
    for k in SWEEP_KERNELS:
        name = f"sweep.{k}"
        n_codes = codes.get(name, 0)
        m[f"{name}.ms_per_mcode"] = (busy[name] * 1e3 * MCODE / n_codes
                                     if n_codes else 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    m["sweep.codes"] = codes.get("sweep.one_masks", 0)
    m["sweep.busy_s"] = layer_busy("sweep.")
    for name in ("spaces.space_from_code", "lines.all_lines",
                 "structure.classify_class"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m["structure.equiv_classes.busy_s"] = busy.get("structure.equiv_classes", 0.0)
    m["verify.self_s"] = layer_busy("verify.")
    m["verify.pool_cpu_util"] = (worker_cpu_s / (jobs * verify_span)
                                 if jobs > 1 and verify_span > 0 else 0.0)
    scanned = codes.get("sweep.canonical_min", 0)
    m["verify.iso_keep_ratio"] = (codes.get("sweep.one_masks", 0) / scanned
                                  if scanned else 1.0)
    m["reports.serialize_report.busy_s"] = busy.get("reports.serialize_report", 0.0)
    m["cli.self_s"] = busy.get(ROOT_SPAN, 0.0)
    return m
