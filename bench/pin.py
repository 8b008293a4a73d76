"""Write the pinned CLI outputs that bench/run.py compares every run against.

    python3 bench/pin.py

Run this only at a commit whose output is known to be right: each file is
the exact stdout of one CLI call, and any later difference fails the
benchmark.  min-lines is pinned with --jobs 1, since --jobs never changes
the output.
"""

from __future__ import annotations

import json
import sys

from run import (CLAIMS_PINNED_SEEDS, CLAIMS_TRIALS, DEADLINE_S, EXPECTED,
                 WORKLOADS, claims_problems, pinned_path, run_child)


def pin(name: str, argv: list[str], seed: int) -> None:
    res = run_child(argv, DEADLINE_S)
    if "error" in res or res["exit"] != 0:
        raise SystemExit(f"{name}: {res.get('error') or res['exit']}")
    if WORKLOADS[name].seeded:
        probs = claims_problems(json.loads(res["stdout"]), CLAIMS_TRIALS, seed)
        if probs:
            raise SystemExit(f"{name} seed {seed}: {probs}")
    path = pinned_path(name, seed)
    path.write_bytes(res["stdout"].encode("utf-8"))
    print(f"wrote {path.name}", file=sys.stderr)


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        for seed in CLAIMS_PINNED_SEEDS if wl.seeded else [0]:
            pin(name, list(wl.pin_args or wl.argv(seed)), seed)


if __name__ == "__main__":
    main()
