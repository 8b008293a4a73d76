"""JSON serialization of reports: deterministic key order, lossless values.

Point sets serialize as sorted index arrays, rationals as exact "p/q"
strings.  The same invocation always yields byte-identical JSON, so wall
time is never part of a report (the CLI prints timing to stderr instead).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bitset import iter_pairs, mask_to_points
from .lines import DbeVerdict, LineFamily
from .spaces import DistanceMatrix
from .structure import LAW_ORDER, Violation
from .verify import SixPointWitness, SmallSpacesReport, TheoremReport

SCHEMA_VERSION = "1"


def rational_str(x) -> str:
    """Exact decimal-free form: 2 -> "2", Fraction(3,2) -> "3/2"."""
    return str(Fraction(x))


def matrix_to_json(matrix: DistanceMatrix) -> list[list[str]]:
    return [[rational_str(x) for x in row] for row in matrix.rows]


def verdict_to_json(v: DbeVerdict) -> dict:
    return {"line_count": v.line_count, "has_universal": v.has_universal,
            "holds": v.holds}


def family_to_json(family: LineFamily) -> dict:
    return {
        "count": family.count,
        "has_universal": family.has_universal,
        "lines": [mask_to_points(m) for m in family.lines],
        "pairs": [{"pair": [u, v], "line": family.line_index(u, v)}
                  for u, v in iter_pairs(family.n)],
    }


def violation_to_json(v: Violation) -> dict:
    return {"law": v.law, "points": list(v.points), "labels": list(v.labels),
            "lines": [mask_to_points(m) for m in v.lines]}


def law_stats_to_json(laws) -> dict:
    return {law: {"instances": stat.instances, "violations": stat.violations,
                  "witness_codes": list(stat.witnesses)}
            for law, stat in laws.items()}


def theorem_report_to_json(rep: TheoremReport) -> dict:
    return {
        "n": rep.n,
        "mode": rep.mode,
        "checker_level": rep.checker_level,
        "total_codes": rep.total_codes,
        "dbe_failures": rep.dbe_failures,
        "failure_witnesses": list(rep.failure_witnesses),
        "min_lines_overall": rep.min_lines_overall,
        "min_lines_no_universal": rep.min_lines_no_universal,
        "argmin_codes": {"overall": rep.argmin_overall,
                         "no_universal": rep.argmin_no_universal},
        "twin_free_codes": rep.twin_free_codes,
        "class_counts_by_shape": rep.class_counts_by_shape,
        "laws": law_stats_to_json(rep.laws) if rep.laws is not None else None,
    }


def claims_report_to_json(rep: TheoremReport, seed: int) -> dict:
    """A claims_sweep report; seed is echoed for a sample, whose size is
    total_codes.  skipped_laws are the laws that the level does not check."""
    return {
        "n": rep.n,
        "sampling": (None if rep.mode == "all" else
                     {"trials": rep.total_codes, "seed": seed}),
        "total_codes": rep.total_codes,
        "twin_free_codes": rep.twin_free_codes,
        "laws": law_stats_to_json(rep.laws),
        "skipped_laws": [law for law in LAW_ORDER if law not in rep.laws],
    }


def min_lines_to_json(reps: tuple[TheoremReport, ...]) -> dict:
    return {"rows": [{
        "n": r.n,
        "min_lines_overall": r.min_lines_overall,
        "argmin_overall": r.argmin_overall,
        "min_lines_no_universal": r.min_lines_no_universal,
        "argmin_no_universal": r.argmin_no_universal,
    } for r in reps]}


def witnesses_to_json(witnesses: tuple[SixPointWitness, ...]) -> dict:
    items = []
    for i, wit in enumerate(witnesses):
        items.append({
            "index": i,
            "code": wit.code,
            "d_uz_xz": wit.d_uz_xz,
            "d_vz_wz": wit.d_vz_wz,
            "d_yz": wit.d_yz,
            "line_count": wit.line_count,
            "matrix": [[wit.space.dist(a, b) for b in range(6)]
                       for a in range(6)],
        })
    return {"witnesses": items,
            "min_line_count": min(w.line_count for w in witnesses)}


def small_spaces_to_json(rep: SmallSpacesReport) -> dict:
    return {
        "seed": rep.seed,
        "trials": rep.trials,
        "exhaustive": [{"n": n, "codes": total, "dbe_failures": fails}
                       for n, total, fails in rep.exhaustive],
        "random": [{"n": n, "trials": t, "dbe_failures": fails}
                   for n, t, fails in rep.random],
        "failure_examples": list(rep.failure_examples),
        "note": "random trials can only report 'no counterexample found'",
    }


def build_report(subcommand: str, inputs: dict, results: dict) -> dict:
    """Envelope around one subcommand's results.

    inputs echoes only result-relevant parameters; scheduling knobs such as
    --jobs never appear, since they must not change the report bytes.
    """
    return {"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
            "inputs": inputs, "results": results}


def serialize_report(report: dict) -> str:
    """Deterministic JSON text (insertion-ordered keys, LF-terminated)."""
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"
