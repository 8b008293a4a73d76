"""Run one dbelines CLI call in this fresh interpreter and report on it.

    python3 bench/child.py [--spans PATH] -- CLI-ARGS...

Imports dbelines from the checkout's src/ (never an installed copy), calls
cli.main(CLI-ARGS) with stdout captured, and prints one JSON line: the exit
code, the CLI's stdout text, and the wall time, CPU time and peak RSS of the
call.  setup_s is the CPU time of this process's main thread from its start
until dbelines.cli is imported.  It is CPU time, not wall time, because the
wall time of the import depends on whether the host gives numpy's BLAS
threads a second CPU; the main thread's CPU time does not.  With --spans the
call is traced and the spans go to PATH as JSON lines.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    spans = None
    if len(argv) > 1 and argv[0] == "--spans":
        spans, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: child.py [--spans PATH] -- CLI-ARGS...",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    from dbelines import cli
    setup = time.thread_time()
    if Path(cli.__file__).resolve().parent != (SRC / "dbelines").resolve():
        print(f"dbelines imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if spans:
        from tracing import ROOT_SPAN, Tracer
        tracer = Tracer(run_id=f"{time.time_ns():x}")
        tracer.install()
    real_stdout, captured = sys.stdout, io.StringIO()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys.stdout = captured
    t0 = time.perf_counter()
    root = tracer.open(ROOT_SPAN) if tracer else -1
    try:
        code = cli.main(argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer:
            tracer.close(root)
        wall = time.perf_counter() - t0
        sys.stdout = real_stdout
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer:
        tracer.write_jsonl(spans)

    worker_cpu = _cpu(kids1) - _cpu(kids0)
    print(json.dumps({
        "exit": code,
        "setup_s": setup,
        "stdout": captured.getvalue(),
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + worker_cpu,
        "worker_cpu_s": worker_cpu,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
