"""Acceptance suite: one test per criterion, one printed line per criterion.

All assertions are exact; no tolerances exist anywhere in this package.
The exhaustive reports come from one orbit-weighted sweep of the
isomorphism classes, which C2 runs at n = 8 in under a second.  C11
checks their headline numbers against a scalar pass over the same classes
(lines and structure instead of the sweep kernels).  The two opt-in items,
C2b and C10b, check them against the labeled sweep of all 2^28 codes at
level "vector" (set DBELINES_RUN_N8=1; about 1 min in one process).

Run with `python3 -m pytest tests/test_acceptance.py -v -s`.
"""

import os
import random
import time
from math import factorial

import numpy as np
import pytest

from dbelines import (all_lines, claims_sweep, dbe_verdict, line_of,
                      line_of_fast, min_lines_table, six_point_witnesses,
                      space_from_code, verify_small_spaces, verify_theorem)
from dbelines import cli as cli_mod
from dbelines import verify as verify_mod
from dbelines import sweep as sw
from dbelines.bitset import iter_pairs, pair_count
from dbelines.structure import (LAW_ORDER, ClassShape, classify_class, equiv_classes,
                                law_violations, twin_pairs)

from reference import ref_least_relabelings

RUN_N8 = os.environ.get("DBELINES_RUN_N8") == "1"
needs_n8 = pytest.mark.skipif(
    not RUN_N8, reason="the labeled n=8 sweep is opt-in: set DBELINES_RUN_N8=1")

_CACHE: dict = {}


def n8_labeled():
    # the labeled sweep of all 2^28 codes at n = 8, at the level of both
    # exhaustive routes, with its wall time
    if "n8" not in _CACHE:
        start = time.monotonic()
        rep = verify_mod._sweep(8, "all", range(1 << 28), "vector", 100,
                                verify_mod._workspace())
        _CACHE["n8"] = rep, time.monotonic() - start
    return _CACHE["n8"]


def n7_sampled_claims():
    # one 10^5-code random sample at n=7, shared by criteria 4 and 5
    if "n7sample" not in _CACHE:
        _CACHE["n7sample"] = claims_sweep(7, trials=100_000, seed=7)
    return _CACHE["n7sample"]


def scalar_violations():
    # one law_violations pass over every code at n <= 6, shared by criteria
    # 4 and 5: violations per law
    if "scalar" not in _CACHE:
        counts = dict.fromkeys(LAW_ORDER, 0)
        for n in range(2, 7):
            for code in range(1 << pair_count(n)):
                space = space_from_code(n, code)
                for law, found in law_violations(space, all_lines(space)).items():
                    counts[law] += len(found)
        _CACHE["scalar"] = counts
    return _CACHE["scalar"]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_theorem_exhaustive_n2_to_n7():
    start = time.monotonic()
    failures = {}
    for n in range(2, 8):
        rep = verify_theorem(n)
        assert rep.total_codes == 1 << pair_count(n)
        failures[n] = rep.dbe_failures
    elapsed = time.monotonic() - start
    ok = all(f == 0 for f in failures.values()) and elapsed < 120
    report("C1", ok,
           f"every code n=2..7 covered by one orbit-weighted sweep of the "
           f"isomorphism classes per n, dbe_failures={failures}, "
           f"{elapsed:.1f}s in one process (< 120s)")


def test_criterion_02_theorem_n8():
    start = time.monotonic()
    rep = verify_theorem(8)
    elapsed = time.monotonic() - start
    ok = (rep.total_codes == 1 << 28 and rep.dbe_failures == 0
          and elapsed < 10)
    report("C2", ok,
           f"all 2^28 codes covered by the 12,346 classes weighted by orbit "
           f"size, dbe_failures={rep.dbe_failures}, {elapsed:.2f}s (< 10s)")


@needs_n8
def test_criterion_02b_classes_equal_labeled_n8():
    # the independent check of the reduction: every field of both n = 8
    # exhaustive reports against the labeled sweep of all 2^28 codes
    labeled, elapsed = n8_labeled()
    ok = verify_theorem(8) == labeled and claims_sweep(8) == labeled
    report("C2b", ok,
           f"verify_theorem(8) and claims_sweep(8) equal the labeled 2^28 "
           f"sweep on every field (level vector, one process, {elapsed:.0f}s)")


def test_criterion_03_six_point_witnesses():
    wits = six_point_witnesses()
    counts = tuple(w.line_count for w in wits)
    # regression values from the first derived computation
    ok = counts == (12, 12, 12, 10, 11, 9) and all(c >= 6 for c in counts)
    report("C3", ok, f"six 6-point spaces have line counts {counts}, all >= 6")


def test_criterion_04_distinct_line_laws():
    laws = ("disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin")
    scalar = sum(scalar_violations()[law] for law in laws)
    sampled = n7_sampled_claims()
    sampled_violations = sum(sampled.laws[law].violations for law in laws)
    ok = scalar == 0 and sampled_violations == 0
    report("C4", ok,
           f"distinct-line laws: 0 violations exhaustively for n<=6 "
           f"(got {scalar}) and on 10^5 random codes at n=7 "
           f"(got {sampled_violations})")


def test_criterion_05_twin_line_laws():
    laws = ("twin-a", "twin-b", "twin-c")
    violations = sum(scalar_violations()[law] for law in laws)
    sampled = n7_sampled_claims()
    sampled_violations = sum(sampled.laws[law].violations for law in laws)
    ok = violations == 0 and sampled_violations == 0
    report("C5", ok,
           f"twin line laws (a,b,c): {violations} violations over every code "
           f"at n<=6, {sampled_violations} on 10^5 random codes at n=7")


def test_criterion_06_class_structure_laws():
    shape = size = cover = 0
    for n in range(2, 7):
        rep = claims_sweep(n)
        shape += rep.laws["class-shape"].violations
        size += rep.laws["class-size"].violations
        cover += rep.laws["full-cover"].violations
    size_n7 = claims_sweep(7).laws["class-size"].violations
    ok = shape == size == cover == size_n7 == 0
    report("C6", ok,
           f"n<=6 exhaustive: {shape} non-matching/non-C4 classes on twin-free "
           f"codes, {size} classes above max((n-1)/2, 4) on twin-free "
           f"no-universal codes ({size_n7} at n=7 exhaustive), {cover} "
           f"full-cover classes without a universal line")


def test_criterion_07_small_spaces():
    start = time.monotonic()
    rep = verify_small_spaces(trials=100_000, seed=42)
    elapsed = time.monotonic() - start
    ok = rep.total_failures == 0 and elapsed < 60
    report("C7", ok,
           f"n=2,3,4: exhaustive {rep.exhaustive} and 10^5 random rational "
           f"metrics each {rep.random}, {elapsed:.1f}s (< 60s)")


def test_criterion_08_oracle_equivalence():
    mismatches = 0
    for n in range(2, 7):
        for code in range(1 << pair_count(n)):
            space = space_from_code(n, code)
            for u, v in iter_pairs(n):
                if line_of_fast(space, u, v) != line_of(space, u, v):
                    mismatches += 1
    rng = random.Random(2024)
    for n in (7, 8):
        top = 1 << pair_count(n)
        for _ in range(100_000):
            space = space_from_code(n, rng.randrange(top))
            for u, v in iter_pairs(n):
                if line_of_fast(space, u, v) != line_of(space, u, v):
                    mismatches += 1
    report("C8", mismatches == 0,
           f"line_of_fast == line_of on every pair of every code at n<=6 and "
           f"on 10^5 random codes at each of n=7, n=8 "
           f"({mismatches} mismatches)")


def test_criterion_09_chunking_determinism(monkeypatch, capsys):
    # the chunk size is the one scheduling choice left; the sample is folded
    # from 3 chunks at the default 2^16 codes and from 35 at 2^12
    trials = 140_000
    argv = ["claims", "--n", "6", "--trials", str(trials), "--seed", "3", "--json"]
    outs, chunks = [], []
    for size in (verify_mod.CHUNK_CODES, 1 << 12):
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", size)
        assert cli_mod.main(argv) == 0
        outs.append(capsys.readouterr().out)
        chunks.append(-(-trials // size))
    ok = outs[0] == outs[1] and len(outs[0]) > 0 and min(chunks) > 1
    report("C9", ok,
           f"claims --n 6 --trials {trials} JSON byte-identical when folded "
           f"from {chunks[0]} and from {chunks[1]} chunks ({len(outs[0])} bytes)")


def test_criterion_10_min_lines_companion():
    rows = min_lines_table(7)
    ordered = [r.n for r in rows] == list(range(2, 8))
    bound_ok = all(r.min_lines_no_universal is None or
                   r.min_lines_no_universal >= r.n for r in rows)
    reverified = True
    for r in rows:
        v = dbe_verdict(space_from_code(r.n, r.argmin_overall))
        reverified &= v.line_count == r.min_lines_overall
        if r.argmin_no_universal is not None:
            v = dbe_verdict(space_from_code(r.n, r.argmin_no_universal))
            reverified &= (v.line_count == r.min_lines_no_universal
                           and not v.has_universal)
    ok = ordered and bound_ok and reverified
    table = {r.n: (r.min_lines_overall, r.min_lines_no_universal) for r in rows}
    report("C10", ok,
           f"min-lines table n=2..7 ordered, no-universal minima >= n, "
           f"argmin witnesses re-verify: {table}")


@needs_n8
def test_criterion_10b_min_lines_n8():
    rep, _ = n8_labeled()
    v_all = dbe_verdict(space_from_code(8, rep.argmin_overall))
    v_nu = dbe_verdict(space_from_code(8, rep.argmin_no_universal))
    # the min-lines row, from one code per isomorphism class
    row = min_lines_table(8)[-1]
    fields = ("min_lines_overall", "argmin_overall", "min_lines_no_universal",
              "argmin_no_universal")
    same_row = all(getattr(row, f) == getattr(rep, f) for f in fields)
    ok = (rep.min_lines_no_universal >= 8
          and v_all.line_count == rep.min_lines_overall
          and v_nu.line_count == rep.min_lines_no_universal
          and not v_nu.has_universal and same_row)
    report("C10b", ok,
           f"n=8: min_lines_overall={rep.min_lines_overall}, "
           f"min_lines_no_universal={rep.min_lines_no_universal} >= 8, "
           f"witnesses re-verify, min-lines row equal: {same_row}")



def scalar_class_route(n, reps, aut):
    """The headline fields of verify_theorem(n) from the scalar lines and
    structure code on one code per isomorphism class, each weighted by its
    orbit size n!/|Aut|; an argmin is the least orbit minimum of the tied
    classes, by brute force.  At n <= 6 also the weighted class-shape
    histogram; at n <= 7 also the number of classes that break some law."""
    weights = (factorial(n) // aut).tolist()
    counts = np.empty(reps.size, dtype=np.int64)
    universal = np.empty(reps.size, dtype=bool)
    hist = dict.fromkeys((shape.value for shape in ClassShape), 0)
    failures = twin_free = broken = 0
    for i, (code, w) in enumerate(zip(reps.tolist(), weights)):
        space = space_from_code(n, code)
        family = all_lines(space)
        verdict = family.verdict()
        counts[i], universal[i] = verdict.line_count, verdict.has_universal
        failures += w * (not verdict.holds)
        twin_free += w * (not twin_pairs(space))
        if n <= 7:
            broken += any(law_violations(space, family).values())
        if n <= 6:
            for cls in equiv_classes(family, space):
                hist[classify_class(space, cls).value] += w

    def least(kept):
        if not kept.any():
            return None, None
        low = counts[kept].min()
        tied = reps[kept & (counts == low)]
        return int(low), int(ref_least_relabelings(n, tied)[0].min())

    (low, argmin), (low_nu, argmin_nu) = least(np.ones_like(universal)), least(~universal)
    fields = dict(total_codes=sum(weights), dbe_failures=failures,
                  min_lines_overall=low, argmin_overall=argmin,
                  min_lines_no_universal=low_nu, argmin_no_universal=argmin_nu,
                  twin_free_codes=twin_free,
                  class_counts_by_shape=hist if n <= 6 else None)
    return fields, broken


def test_criterion_11_scalar_class_route():
    # the second route to every exhaustive headline number: the scalar code
    # on each class representative, against the kernels' weighted report
    start = time.monotonic()
    differ, broken = {}, {}
    for n, reps, aut in sw.iso_classes(8):
        fields, broken[n] = scalar_class_route(n, reps, aut)
        rep = verify_theorem(n)
        differ[n] = [f for f, v in fields.items() if getattr(rep, f) != v]
    elapsed = time.monotonic() - start
    ok = not any(differ.values()) and not any(broken.values())
    report("C11", ok,
           f"n=2..8: total_codes, dbe_failures, both minima and argmins, "
           f"twin_free_codes and (n<=6) the shape histogram from all_lines, "
           f"twin_pairs and classify_class on every class, weighted by "
           f"n!/|Aut|, equal verify_theorem(n) (fields differing: {differ}); "
           f"n=8 minima {fields['min_lines_overall']}/{fields['argmin_overall']}, "
           f"{fields['min_lines_no_universal']}/{fields['argmin_no_universal']}; "
           f"classes breaking a law at n<=7: {sum(broken.values())}; {elapsed:.1f}s")
