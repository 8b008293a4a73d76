"""Command-line surface.

Subcommands: analyze, enumerate, claims, witnesses, min-lines,
random-metrics.  Human-readable text goes to stdout by default, JSON with
--json; progress and timing go to stderr.  Exit codes: 0 success, 1 usage
or input error, 2 when a verification reported a violation or a property
failure (so CI can gate on it).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import reports
from .bitset import mask_to_points
from .lines import all_lines
from .spaces import (NotOneTwoError, as_one_two, parse_distance_matrix,
                     validate_metric)
from .structure import (classify_class, equiv_classes, law_violations,
                        twin_pairs)
from .verify import (claims_sweep, min_lines_table, six_point_witnesses,
                     verify_small_spaces, verify_theorem)


class _CliParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _progress_printer(label: str, unit: str = "codes"):
    """A progress callback printing to stderr on every call, which its
    callers make once per growth step, chunk or 10,000 trials; in any unit
    but points, with the rate since the printer was made and an ETA."""
    timed = unit != "points"
    start = time.monotonic()

    def cb(done: int, total: int) -> None:
        line = f"{label}: {done}/{total} {unit}"
        if timed:
            rate = done / max(time.monotonic() - start, 1e-9)
            line += f", {rate:.3g} {unit}/s, ETA {(total - done) / rate:.1f} s"
        print(line, file=sys.stderr)

    return cb


def _emit(report: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        sys.stdout.write(reports.serialize_report(report))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")
    sys.stdout.flush()


def _law_text_lines(laws: dict, skipped=()) -> list[str]:
    # the instances column widens past 9 digits (n = 8 counts have 11)
    width = max([9] + [len(str(stat.instances)) for stat in laws.values()])
    out = [f"{'law':<26} {'instances':>{width}}  violations"]
    for law, stat in laws.items():
        out.append(f"{law:<26} {stat.instances:>{width}}  {stat.violations:>10}")
    for law in skipped:
        out.append(f"{law:<26} {'skipped':>{width}}")
    return out


def _cmd_analyze(args) -> tuple[dict, int, list[str]]:
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    space = validate_metric(parse_distance_matrix(text))
    try:
        ots = as_one_two(space)
    except NotOneTwoError:
        ots = None
    target = ots if ots is not None else space
    family = all_lines(target)
    verdict = family.verdict()

    results: dict = {
        "n": space.n,
        "is_one_two": ots is not None,
        "matrix": reports.matrix_to_json(space.matrix),
        "verdict": reports.verdict_to_json(verdict),
        "family": reports.family_to_json(family),
    }
    text_lines = [
        f"points: {space.n}   1-2 space: {'yes' if ots is not None else 'no'}",
        f"distinct lines: {verdict.line_count}   "
        f"universal line: {'yes' if verdict.has_universal else 'no'}",
        f"De Bruijn-Erdos property: {'holds' if verdict.holds else 'FAILS'}",
    ]
    failures = 0 if verdict.holds else 1
    if not verdict.holds:
        text_lines.append("counterexample event: fewer than n lines and no "
                          "universal line; please re-check and report")

    if ots is not None:
        tp = twin_pairs(ots)
        classes = equiv_classes(family, ots)
        violations = [v for found in law_violations(ots, family).values()
                      for v in found]
        failures += len(violations)
        results.update({
            "twin_pairs": [list(p) for p in tp],
            "classes": [{
                "edges": [[e.u, e.v, e.label] for e in cls.edges],
                "line": mask_to_points(cls.line),
                "shape": classify_class(ots, cls).value,
            } for cls in classes],
            "violations": [reports.violation_to_json(v) for v in violations],
        })
        text_lines.append(f"twin pairs: {[tuple(p) for p in tp] or 'none'}")
        text_lines.append(f"edge classes: {len(classes)}")
        text_lines.append(f"law violations: {len(violations)}"
                          + ("" if not violations else "  <-- unexpected"))
    else:
        text_lines.append("general metric space: structural 1-2 law checks "
                          "not applicable")
    for i, line_mask_points in enumerate(results["family"]["lines"]):
        text_lines.append(f"  line {i}: {line_mask_points}")
    inputs = {"file": str(path)}
    return reports.build_report("analyze", inputs, results), failures, text_lines


def _cmd_enumerate(args) -> tuple[dict, int, list[str]]:
    # both modes report once per point added to the class representatives
    progress = _progress_printer(f"enumerate n={args.n}", "points")
    rep = verify_theorem(args.n, mode=args.mode,
                         max_witnesses=args.max_witnesses, progress=progress)
    results = reports.theorem_report_to_json(rep)
    inputs = {"n": args.n, "mode": args.mode, "max_witnesses": args.max_witnesses}
    text_lines = [
        f"n={rep.n} mode={rep.mode} codes={rep.total_codes}",
        f"dbe_failures: {rep.dbe_failures}",
        f"min lines overall: {rep.min_lines_overall} (code {rep.argmin_overall})",
        f"min lines without universal: {rep.min_lines_no_universal}"
        + (f" (code {rep.argmin_no_universal})"
           if rep.argmin_no_universal is not None else ""),
    ]
    if rep.class_counts_by_shape is not None:
        text_lines.append(f"class shapes: {rep.class_counts_by_shape}")
    if rep.laws is not None:
        text_lines += _law_text_lines(rep.laws)
    failures = rep.dbe_failures + rep.total_law_violations
    return reports.build_report("enumerate", inputs, results), failures, text_lines


def _cmd_claims(args) -> tuple[dict, int, list[str]]:
    # a sample reports its codes, an exhaustive run its points
    progress = (_progress_printer(f"claims n={args.n}") if args.trials is not None
                else _progress_printer(f"claims n={args.n}", "points"))
    rep = claims_sweep(args.n, trials=args.trials, seed=args.seed,
                       max_witnesses=args.max_witnesses, progress=progress)
    results = reports.claims_report_to_json(rep, args.seed)
    inputs = {"n": args.n,
              "trials": args.trials,
              "seed": args.seed if args.trials is not None else None,
              "max_witnesses": args.max_witnesses}
    mode = ("exhaustive" if rep.mode == "all"
            else f"sample of {rep.total_codes} codes, seed {args.seed}")
    text_lines = [f"n={rep.n} ({mode}): {rep.total_codes} codes, "
                  f"{rep.twin_free_codes} twin-free"]
    # claims JSON has no DBE field, so a failure shows in the text, on
    # stderr and in the exit code
    if rep.dbe_failures:
        failed = f"dbe_failures: {rep.dbe_failures}"
        if rep.failure_witnesses:
            failed += f" (codes {', '.join(map(str, rep.failure_witnesses))})"
        text_lines.append(failed)
        print(failed, file=sys.stderr)
    text_lines += _law_text_lines(rep.laws, results["skipped_laws"])
    return (reports.build_report("claims", inputs, results),
            rep.dbe_failures + rep.total_law_violations, text_lines)


def _cmd_witnesses(args) -> tuple[dict, int, list[str]]:
    wits = six_point_witnesses()
    results = reports.witnesses_to_json(wits)
    text_lines = ["six decisive 6-point spaces (z distances vary):"]
    for item in results["witnesses"]:
        text_lines.append(
            f"  case d(u,z)=d(x,z)={item['d_uz_xz']} "
            f"d(v,z)=d(w,z)={item['d_vz_wz']} d(y,z)={item['d_yz']}: "
            f"{item['line_count']} lines (code {item['code']})")
    failures = sum(1 for w in wits if w.line_count < 6)
    text_lines.append(f"minimum line count: {results['min_line_count']} "
                      f"(must be >= 6)")
    return reports.build_report("witnesses", {}, results), failures, text_lines


def _cmd_min_lines(args) -> tuple[dict, int, list[str]]:
    # one report per point count of the table
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    progress = _progress_printer("min-lines", "points")
    rows = min_lines_table(args.n, progress=progress)
    results = reports.min_lines_to_json(rows)
    text_lines = ["n   min_lines  argmin_code  min_no_universal  argmin_code"]
    for r in rows:
        nu = "-" if r.min_lines_no_universal is None else r.min_lines_no_universal
        nu_code = "-" if r.argmin_no_universal is None else r.argmin_no_universal
        text_lines.append(f"{r.n:<3} {r.min_lines_overall:>9}  "
                          f"{r.argmin_overall:>11}  {nu:>16}  {nu_code:>11}")
    inputs = {"n_lo": 2, "n_hi": args.n}
    return (reports.build_report("min-lines", inputs, results),
            sum(r.dbe_failures for r in rows), text_lines)


def _cmd_random_metrics(args) -> tuple[dict, int, list[str]]:
    progress = _progress_printer("random-metrics", "trials")
    rep = verify_small_spaces(trials=args.trials, seed=args.seed,
                              max_examples=args.max_witnesses,
                              progress=progress)
    results = reports.small_spaces_to_json(rep)
    text_lines = []
    for n, total, fails in rep.exhaustive:
        text_lines.append(f"exhaustive 1-2 codes n={n}: {total} codes, "
                          f"{fails} property failures")
    for n, trials, fails in rep.random:
        text_lines.append(f"random rational metrics n={n}: {trials} trials, "
                          f"{fails} property failures")
    text_lines.append("result: no counterexample found" if rep.total_failures == 0
                      else "COUNTEREXAMPLE CANDIDATES FOUND - see report")
    inputs = {"trials": args.trials, "seed": args.seed,
              "max_witnesses": args.max_witnesses}
    return (reports.build_report("random-metrics", inputs, results),
            rep.total_failures, text_lines)


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="dbelines",
                        description="Lines in finite metric spaces: analysis "
                                    "and exhaustive 1-2 space verification.")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def common(p, n_default=None, n_required=False):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report on stdout")
        if n_default is not None or n_required:  # the code sweeps
            p.add_argument("--n", type=int, required=n_required,
                           default=n_default, help="point count")

    p = sub.add_parser("analyze", help="analyze one metric space from a file")
    p.add_argument("file", help="distance matrix file")
    common(p)

    p = sub.add_parser("enumerate",
                       help="sweep all 1-2 spaces on n points and verify the "
                            "De Bruijn-Erdos property plus structural laws")
    common(p, n_required=True)
    p.add_argument("--mode", choices=("all", "iso"), default="all",
                   help="visit all codes or one per isomorphism class")
    p.add_argument("--max-witnesses", type=int, default=100,
                   help="cap on each witness list")

    p = sub.add_parser("claims",
                       help="per-law traceability over all codes or a sample")
    common(p, n_required=True)
    p.add_argument("--trials", type=int, default=None,
                   help="sample this many random codes instead of sweeping")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--max-witnesses", type=int, default=100,
                   help="cap on each witness list")

    p = sub.add_parser("witnesses",
                       help="construct the six decisive 6-point spaces and "
                            "count their lines")
    common(p)

    p = sub.add_parser("min-lines",
                       help="exact minimum line counts for 2..n points")
    common(p, n_default=7)
    # checked and unused: the benchmark's minlines-n7-jobs2 command still
    # passes --jobs 2, and the flag goes when that command drops it
    p.add_argument("--jobs", type=int, default=1, help="checked; starts no process")

    p = sub.add_parser("random-metrics",
                       help="exhaustive small 1-2 codes plus seeded random "
                            "rational metrics at n = 2..4")
    common(p)
    p.add_argument("--trials", type=int, default=100_000,
                   help="random matrices per point count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-witnesses", type=int, default=100,
                   help="cap on failure examples")

    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "enumerate": _cmd_enumerate,
    "claims": _cmd_claims,
    "witnesses": _cmd_witnesses,
    "min-lines": _cmd_min_lines,
    "random-metrics": _cmd_random_metrics,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        # a usage error exits 1 (_CliParser.error) and --help exits 0
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 1
        start = time.monotonic()
        report, failures, text_lines = _COMMANDS[args.subcommand](args)
    except ValueError as exc:
        # covers matrix format, metric axiom, 1-2 range and argument errors
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    _emit(report, args.json, text_lines)
    print(f"runtime: {elapsed_ms} ms", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
