"""Exhaustive verification over 1-2 spaces and the randomized general harness.

verify_theorem sweeps every label code on n points (or one canonical
representative per isomorphism class), checks the De Bruijn-Erdos property
plus the structural laws, and aggregates a TheoremReport.  The code interval
is split into disjoint chunks processed independently and merged by an
associative, order-insensitive reduction, so the report is identical for any
worker count or chunk size.

Checker depth per sweep ("auto"):
  full    line stats + all nine laws + class-shape histogram  (n <= 6, iso,
          and sampled claims)
  vector  line stats + seven laws, no full-cover, class-shape
          or histogram                                        (n = 7)
  none    line stats only                                     (n = 8)
All nine laws are numpy kernels.  n = 7 stays at "vector" so that its report
keeps its seven-law form, and because the class-law kernel would add about
half again to the time of that sweep.
The n = 8 sweep visits 2^28 codes and is opt-in at the CLI; per-code work
there stays within the word-level line kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

import numpy as np

from .bitset import iter_pairs, pair_count
from .lines import all_lines, dbe_verdict
from .spaces import (DistanceMatrix, MetricSpace, OneTwoSpace, as_one_two,
                     code_from_space, serialize_distance_matrix, space_from_code,
                     validate_metric)
# equiv_classes and classify_class are looked up here by bench/tracing.py
from .structure import ClassShape, classify_class, equiv_classes  # noqa: F401
from . import sweep as sw

CHUNK_CODES = 1 << 20

LAW_ORDER = ("disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin",
             "twin-a", "twin-b", "twin-c",
             "full-cover", "class-shape", "class-size")

SHAPE_TAGS = tuple(shape.value for shape in ClassShape)

Progress = Optional[Callable[[int, int], None]]


@dataclass(frozen=True)
class LawStat:
    """Instances checked, violations found, and violating codes (capped)."""

    instances: int
    violations: int
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class TheoremReport:
    """Merged result of one sweep; a nonzero dbe_failures would be a
    counterexample and is reported, never raised."""

    n: int
    mode: str
    checker_level: str
    total_codes: int
    dbe_failures: int
    failure_witnesses: tuple[int, ...]
    min_lines_overall: Optional[int]
    argmin_overall: Optional[int]
    min_lines_no_universal: Optional[int]
    argmin_no_universal: Optional[int]
    twin_free_codes: Optional[int]
    class_counts_by_shape: Optional[dict[str, int]]
    laws: Optional[dict[str, LawStat]]

    @property
    def total_law_violations(self) -> int:
        if not self.laws:
            return 0
        return sum(stat.violations for stat in self.laws.values())


def _merge_min(a: tuple[Optional[int], Optional[int]],
               b: tuple[Optional[int], Optional[int]]):
    # lexicographic (value, witness-code) minimum; None means "no candidate"
    if a[0] is None:
        return b
    if b[0] is None:
        return a
    return min(a, b)


def _sweep_chunk(n: int, lo: int, hi: int, iso: bool, checkers: str,
                 max_witnesses: int) -> dict:
    codes = np.arange(lo, hi, dtype=np.int64)
    if iso:
        codes = codes[sw.canonical_min(n, codes) == codes]
    return _sweep_codes(n, codes, checkers, max_witnesses)


def _sweep_codes(n: int, codes: np.ndarray, checkers: str,
                 max_witnesses: int) -> dict:
    out: dict = {"total": int(codes.size)}
    if codes.size == 0:
        return out
    ones = sw.one_masks(n, codes)
    lines = sw.line_masks(n, codes, ones)
    srt = sw.sorted_lines(lines)
    distinct = sw.distinct_counts(srt)
    universal = sw.universal_flags(n, lines)

    holds = (distinct >= n) | universal
    fail_idx = np.flatnonzero(~holds)
    out["failures"] = int(fail_idx.size)
    out["failure_witnesses"] = [int(codes[i]) for i in fail_idx[:max_witnesses]]

    i0 = int(np.argmin(distinct))
    out["overall"] = (int(distinct[i0]), int(codes[i0]))
    no_univ = ~universal
    if no_univ.any():
        masked = np.where(no_univ, distinct, np.int16(32767))
        i1 = int(np.argmin(masked))
        out["no_universal"] = (int(masked[i1]), int(codes[i1]))
    else:
        out["no_universal"] = (None, None)

    if checkers == "none":
        return out

    bits = sw.label_bits(n, codes)
    twins = sw.twin_pair_flags(n, codes, ones)
    twin_free = ~twins.any(axis=0)
    out["twin_free"] = int(twin_free.sum())
    _, oversize = sw.class_size_stats(n, srt)

    law_counts = sw.distinct_line_counts(n, bits, lines, twins)
    law_counts.update(sw.twin_law_counts(n, bits, lines, twins))
    law_counts["class-size"] = sw.size_bound_counts(twin_free, universal,
                                                    distinct, oversize)
    if checkers == "full":
        out["hist"], class_counts = sw.class_law_counts(n, bits, lines, twin_free)
        law_counts.update(class_counts)
    out["laws"] = {
        law: (cnt.instances, cnt.violations,
              [int(codes[i]) for i in np.flatnonzero(cnt.bad_codes)[:max_witnesses]])
        for law, cnt in law_counts.items()}
    return out


def _worker(task: tuple) -> dict:
    return _sweep_chunk(*task)


def _merge_chunks(n: int, mode: str, checkers: str, parts: list[dict],
                  max_witnesses: int) -> TheoremReport:
    total = sum(p["total"] for p in parts)
    parts = [p for p in parts if p["total"] > 0]
    failures = sum(p["failures"] for p in parts)
    witnesses: list[int] = []
    for p in parts:
        if len(witnesses) < max_witnesses:
            witnesses.extend(p["failure_witnesses"][:max_witnesses - len(witnesses)])
    overall = (None, None)
    no_universal = (None, None)
    for p in parts:
        overall = _merge_min(overall, p["overall"])
        no_universal = _merge_min(no_universal, p["no_universal"])

    twin_free = None
    hist = None
    laws = None
    if checkers != "none":
        twin_free = sum(p["twin_free"] for p in parts)
        merged: dict[str, LawStat] = {}
        for law in LAW_ORDER:
            if not any(law in p["laws"] for p in parts):
                continue
            inst = sum(p["laws"][law][0] for p in parts if law in p["laws"])
            viol = sum(p["laws"][law][1] for p in parts if law in p["laws"])
            bad: list[int] = []
            for p in parts:
                if law in p["laws"] and len(bad) < max_witnesses:
                    bad.extend(p["laws"][law][2][:max_witnesses - len(bad)])
            merged[law] = LawStat(inst, viol, tuple(bad))
        laws = merged
        if checkers == "full":
            hist = {tag: sum(p["hist"][tag] for p in parts) for tag in SHAPE_TAGS}

    return TheoremReport(
        n=n, mode=mode, checker_level=checkers, total_codes=total,
        dbe_failures=failures, failure_witnesses=tuple(witnesses),
        min_lines_overall=overall[0], argmin_overall=overall[1],
        min_lines_no_universal=no_universal[0],
        argmin_no_universal=no_universal[1],
        twin_free_codes=twin_free, class_counts_by_shape=hist, laws=laws)


def _chunk_bounds(total: int, jobs: int) -> list[tuple[int, int]]:
    chunk = CHUNK_CODES
    if jobs > 1:
        chunk = min(chunk, max(1024, -(-total // (jobs * 4))))
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def _run_chunks(tasks: list[tuple], jobs: int, progress: Progress,
                total: int) -> list[dict]:
    parts = []
    done = 0
    if jobs <= 1:
        for task in tasks:
            parts.append(_worker(task))
            done += task[2] - task[1]
            if progress:
                progress(done, total)
        return parts
    import multiprocessing as mp
    with mp.Pool(processes=jobs) as pool:
        for i, part in enumerate(pool.imap(_worker, tasks)):
            parts.append(part)
            done += tasks[i][2] - tasks[i][1]
            if progress:
                progress(done, total)
    return parts


def _check_limits(jobs: int = 1, max_witnesses: int = 0) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if max_witnesses < 0:
        raise ValueError(f"witness cap must be nonnegative, got {max_witnesses}")


def verify_theorem(n: int, mode: str = "all", jobs: int = 1,
                   max_witnesses: int = 100, checkers: str = "auto",
                   progress: Progress = None) -> TheoremReport:
    """Sweep all label codes (or canonical representatives) on n points.

    mode "all" visits every code; "iso" keeps one minimum-code representative
    per isomorphism class (n <= 7; the factorial filter is slow at n = 7).
    The report is independent of jobs and of chunking.
    """
    if not 2 <= n <= sw.ENUM_MAX_POINTS:
        raise ValueError(f"verify_theorem supports 2 <= n <= {sw.ENUM_MAX_POINTS}")
    _check_limits(jobs, max_witnesses)
    if mode not in ("all", "iso"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "iso" and n > 7:
        raise ValueError("iso mode is not supported at n = 8 "
                         "(factorial filter over 2^28 codes)")
    if checkers == "auto":
        checkers = "full" if (mode == "iso" or n <= 6) else (
            "vector" if n == 7 else "none")
    if checkers not in ("full", "vector", "none"):
        raise ValueError(f"unknown checker level {checkers!r}")
    total = 1 << pair_count(n)
    iso = mode == "iso"
    tasks = [(n, lo, hi, iso, checkers, max_witnesses)
             for lo, hi in _chunk_bounds(total, jobs)]
    parts = _run_chunks(tasks, jobs, progress, total)
    return _merge_chunks(n, mode, checkers, parts, max_witnesses)


@dataclass(frozen=True)
class ClaimsReport:
    """Per-law traceability: instances checked and violations found."""

    n: int
    sampling: Optional[tuple[int, int]]  # (trials, seed); None = exhaustive
    total_codes: int
    twin_free_codes: int
    laws: dict[str, LawStat]
    skipped_laws: tuple[str, ...]

    @property
    def total_violations(self) -> int:
        return sum(stat.violations for stat in self.laws.values())


def claims_sweep(n: int, trials: Optional[int] = None, seed: int = 0,
                 jobs: int = 1, max_witnesses: int = 100,
                 progress: Progress = None) -> ClaimsReport:
    """Run every structural law checker over all codes, or over a seeded
    random sample of codes when trials is given.

    Exhaustive runs use the full checker set through n = 6 and the "vector"
    level at n = 7, 8, where full-cover and class-shape are reported as
    skipped (see the level table of this module).  Sampled runs always use the full
    set.  Sampling draws codes uniformly with replacement.
    """
    if not 2 <= n <= sw.ENUM_MAX_POINTS:
        raise ValueError(f"claims_sweep supports 2 <= n <= {sw.ENUM_MAX_POINTS}")
    _check_limits(jobs, max_witnesses)
    if trials is None:
        level = "full" if n <= 6 else "vector"
        rep = verify_theorem(n, mode="all", jobs=jobs,
                             max_witnesses=max_witnesses, checkers=level,
                             progress=progress)
        skipped = tuple(law for law in LAW_ORDER if law not in rep.laws)
        return ClaimsReport(n, None, rep.total_codes, rep.twin_free_codes,
                            rep.laws, skipped)
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    rng = random.Random(seed)
    total = 1 << pair_count(n)
    codes = np.fromiter((rng.randrange(total) for _ in range(trials)),
                        dtype=np.int64, count=trials)
    part = _sweep_codes(n, codes, "full", max_witnesses)
    rep = _merge_chunks(n, "sample", "full", [part], max_witnesses)
    return ClaimsReport(n, (trials, seed), rep.total_codes,
                        rep.twin_free_codes, rep.laws, ())


@dataclass(frozen=True)
class MinLinesRow:
    """Exact line-count minima over all codes on n points."""

    n: int
    min_lines_overall: int
    argmin_overall: int
    min_lines_no_universal: Optional[int]
    argmin_no_universal: Optional[int]


def min_lines_table(n_lo: int, n_hi: int, jobs: int = 1,
                    progress: Progress = None) -> tuple[MinLinesRow, ...]:
    """Minimum distinct-line counts for each n in [n_lo, n_hi], ascending.

    The no-universal column is None when every space on n points has a
    universal line (only n = 2).
    """
    if not 2 <= n_lo <= n_hi <= sw.ENUM_MAX_POINTS:
        raise ValueError("need 2 <= n_lo <= n_hi <= 8")
    _check_limits(jobs)
    rows = []
    for n in range(n_lo, n_hi + 1):
        rep = verify_theorem(n, mode="all", jobs=jobs, checkers="none",
                             progress=progress)
        rows.append(MinLinesRow(n, rep.min_lines_overall, rep.argmin_overall,
                                rep.min_lines_no_universal,
                                rep.argmin_no_universal))
    return tuple(rows)


@dataclass(frozen=True)
class SixPointWitness:
    """One of the six decisive 6-point spaces with its distinct-line count.

    d_uz_xz is the shared distance from z to u and to x, d_vz_wz the shared
    distance from z to v and to w, d_yz the distance from z to y.
    """

    space: OneTwoSpace
    code: int
    line_count: int
    d_uz_xz: int
    d_vz_wz: int
    d_yz: int


def six_point_witnesses() -> tuple[SixPointWitness, ...]:
    """Construct the six 6-point spaces closing the hardest case.

    Points u,v,w,x,y,z = 0..5 carry the fixed block
        d(u,w)=d(u,x)=d(v,w)=d(v,x)=1,  d(u,v)=d(w,x)=2,
        d(u,y)=d(w,y)=1,  d(v,y)=d(x,y)=2,
    and z sees {u,x} and {v,w} at equal distances, three label cases, each
    with d(y,z) in {1,2}.  Every witness must have at least 6 distinct lines.
    """
    u, v, w, x, y, z = range(6)
    base_one = [(u, w), (u, x), (v, w), (v, x), (u, y), (w, y)]
    base_two = [(u, v), (w, x), (v, y), (x, y)]
    out = []
    for d_uz_xz, d_vz_wz in ((1, 1), (1, 2), (2, 2)):
        for d_yz in (1, 2):
            rows = [[0] * 6 for _ in range(6)]

            def put(a: int, b: int, val: int) -> None:
                rows[a][b] = rows[b][a] = val

            for a, b in base_one:
                put(a, b, 1)
            for a, b in base_two:
                put(a, b, 2)
            put(u, z, d_uz_xz)
            put(x, z, d_uz_xz)
            put(v, z, d_vz_wz)
            put(w, z, d_vz_wz)
            put(y, z, d_yz)
            space = as_one_two(validate_metric(DistanceMatrix.from_rows(rows)))
            family = all_lines(space)
            out.append(SixPointWitness(space, code_from_space(space),
                                       family.count, d_uz_xz, d_vz_wz, d_yz))
    return tuple(out)


# --- randomized general-metric harness ------------------------------------

# common denominator for drawing p/q with q <= 16 as integers
_DENOM_CAP = 16
_VALUE_CAP = 4
_COMMON_DENOM = lcm(*range(1, _DENOM_CAP + 1))


def _draw_numerator(rng: random.Random) -> int:
    # value p/q, q <= 16, 0 < p/q <= 4, held as numerator over _COMMON_DENOM
    q = rng.randint(1, _DENOM_CAP)
    p = rng.randint(1, _VALUE_CAP * q)
    return p * (_COMMON_DENOM // q)


def _draw_int_rows(rng: random.Random, n: int,
                   triple_retries: int = 50) -> list[list[int]]:
    """Random symmetric integer matrix (scaled rationals) made metric by
    resampling the entries of violating triples, restarting on a stuck one."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i, j in iter_pairs(n):
            rows[i][j] = rows[j][i] = _draw_numerator(rng)
        retries = 0
        while retries <= triple_retries:
            bad = None
            for i, k in iter_pairs(n):
                for j in range(n):
                    if j != i and j != k and rows[i][k] > rows[i][j] + rows[j][k]:
                        bad = (i, j, k)
                        break
                if bad:
                    break
            if bad is None:
                return rows
            i, j, k = bad
            for a, b in ((i, j), (j, k), (i, k)):
                rows[a][b] = rows[b][a] = _draw_numerator(rng)
            retries += 1


def random_rational_metric(rng: random.Random, n: int) -> MetricSpace:
    """Random metric space with entries p/q, q <= 16, p/q in (0, 4]."""
    rows = _draw_int_rows(rng, n)
    frac = tuple(tuple(Fraction(x, _COMMON_DENOM) for x in row) for row in rows)
    return validate_metric(DistanceMatrix(n, frac))


@dataclass(frozen=True)
class SmallSpacesReport:
    """Small-n checks: exhaustive 1-2 codes plus seeded random metrics."""

    seed: int
    trials: int
    exhaustive: tuple[tuple[int, int, int], ...]  # (n, codes, dbe_failures)
    random: tuple[tuple[int, int, int], ...]      # (n, trials, dbe_failures)
    failure_examples: tuple[str, ...]             # serialized matrices

    @property
    def total_failures(self) -> int:
        return (sum(f for _, _, f in self.exhaustive)
                + sum(f for _, _, f in self.random))


def verify_small_spaces(trials: int = 100_000, seed: int = 0,
                        max_examples: int = 100,
                        progress: Progress = None) -> SmallSpacesReport:
    """Check the property on every 1-2 code and on random rational metrics
    at n = 2, 3, 4.  Deterministic in seed.  Random results can only say
    "no counterexample found"; they settle nothing beyond the trials run."""
    _check_limits(max_witnesses=max_examples)
    exhaustive = []
    for n in (2, 3, 4):
        fails = 0
        total = 1 << pair_count(n)
        for code in range(total):
            if not dbe_verdict(space_from_code(n, code)).holds:
                fails += 1
        exhaustive.append((n, total, fails))

    rng = random.Random(seed)
    randoms = []
    examples: list[str] = []
    done = 0
    grand_total = 3 * trials
    for n in (2, 3, 4):
        fails = 0
        for _ in range(trials):
            rows = _draw_int_rows(rng, n)
            # lines are invariant under positive scaling, so the integer
            # matrix carries the same verdict as the p/q original
            space = MetricSpace(DistanceMatrix(n, tuple(tuple(r) for r in rows)))
            if not dbe_verdict(space).holds:
                fails += 1
                if len(examples) < max_examples:
                    frac = tuple(tuple(Fraction(x, _COMMON_DENOM) for x in row)
                                 for row in rows)
                    examples.append(serialize_distance_matrix(DistanceMatrix(n, frac)))
            done += 1
            if progress and done % 10_000 == 0:
                progress(done, grand_total)
        randoms.append((n, trials, fails))
    return SmallSpacesReport(seed, trials, tuple(exhaustive), tuple(randoms),
                             tuple(examples))
