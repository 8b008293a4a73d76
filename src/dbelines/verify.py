"""Exhaustive verification over 1-2 spaces and the randomized general harness.

Every sweep checks the De Bruijn-Erdos property plus the structural laws,
and _sweep alone builds its TheoremReport, CHUNK_CODES codes at a time.
Every exhaustive report sweeps one code per isomorphism class
(sw.iso_classes), in this process, with one weight rule: a class of weight
w stands for the w least labeled codes of its orbit.  verify_theorem(n) and
exhaustive claims_sweep(n) weigh a class by its orbit size n!/|Aut|, so they
report all 2^C(n,2) codes: each count they report is invariant under
relabeling, so by orbit-stabilizer it is a sum over the classes, which
the counting kernels weigh per lane.  verify_theorem(n, "iso") and each
min_lines_table row weigh a class by 1, so they report the orbit minima:
their counts count classes.  Sampled claims sweep their codes
unweighted; over range(2^C(n,2)) that is the labeled sweep, the tests'
check of the class route.  A set of no codes is the sweep of an empty
batch.  Every code a report names is a labeled code, named by one rule
(_smallest): an argmin is the smallest code with the least count, and a
witness list holds the smallest flagged codes, ascending and each once.
Each chunk names its own smallest codes and the chunks add up counts, so
a report is identical for any chunk size or code order.  Every sweep's
planes live in this process's one workspace (_workspace).  reports.py
alone projects reports to JSON.

Checker depth per sweep:
  full    line stats + all nine laws + class-shape histogram  (n <= 6,
          --mode iso at every n, and sampled claims)
  vector  line stats + seven laws, no full-cover, class-shape
          or histogram                     (n = 7, 8)
  none    line stats only                  (min-lines)
n = 7 and 8 keep these levels so that their reports keep their fields.
Every sweep runs in this process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from typing import Callable, Optional

import numpy as np

from .bitset import iter_pairs, pair_count
from .lines import all_lines, dbe_verdict
from .spaces import (DistanceMatrix, MetricSpace, OneTwoSpace, as_one_two,
                     code_from_space, serialize_distance_matrix, validate_metric)
# space_from_code, equiv_classes and classify_class are looked up here by
# bench/tracing.py
from .spaces import space_from_code  # noqa: F401
from .structure import LAW_ORDER, classify_class, equiv_classes  # noqa: F401
from . import sweep as sw

# Codes (or classes) per chunk of a sweep; 2^16 keep a chunk's planes
# at 8 KiB each.  claims_sweep(8, trials=10**6) took 0.42-0.44 s and peaked
# at 48 MB with it, against 0.55-0.57 s and 40 MB with 2^14 and 0.47-0.49 s
# and 81 MB with 2^18 (3 fresh processes each on a 2-core host).
CHUNK_CODES = 1 << 16

# Mersenne Twister words per getrandbits call of _sample_codes (64 KiB)
_DRAW_WORDS = 1 << 14

Progress = Optional[Callable[[int, int], None]]


@dataclass(frozen=True)
class LawStat:
    """Instances checked, violations found, and the smallest violating
    labeled codes, ascending and each once, at most max_witnesses."""

    instances: int
    violations: int
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class TheoremReport:
    """Result of a sweep in mode "all", "iso" or "sample", made by _sweep
    alone.  A nonzero dbe_failures would be a counterexample and is
    reported, never raised.  The level fixes which fields are None: "none"
    (min-lines alone) has no laws, twin-free count or histogram, and only
    "full" has the two class laws and the histogram.  laws lists its laws in
    LAW_ORDER; mode "all" counts labeled codes, "iso" classes, each the
    report of classes weighted by orbit size or by 1.  An argmin is the
    smallest labeled code with the least count; failure_witnesses are
    listed as LawStat.witnesses are."""

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
        return sum(stat.violations for stat in (self.laws or {}).values())


@cache
def _workspace() -> sw.Workspace:
    """This process's workspace, made on first use and kept for the life of
    the process, so every chunk after the first reuses the planes of the one
    before."""
    return sw.Workspace()


def _smallest(n: int, codes: np.ndarray, weights: np.ndarray | None,
              cap: int) -> list[int]:
    """The cap smallest distinct labeled codes that codes stand for,
    ascending.  Without weights a code stands for itself; with weights,
    codes[i] is a class and stands for the weights[i] least labeled codes of
    its orbit (sw.least_codes), and orbits are taken in order of their
    minima, until the next minimum is above the cap-th code found."""
    if not cap or not codes.size:
        return []
    if cap == 1:
        return [int((codes if weights is None else sw.canonical_min(n, codes)).min())]
    if weights is None:
        return np.unique(codes)[:cap].tolist()
    least = sw.canonical_min(n, codes)
    found = np.empty(0, dtype=np.int64)
    for i in np.argsort(least):
        if found.size == cap and least[i] > found[-1]:
            break
        orbit, _ = sw.least_codes(n, codes[i:i + 1], min(weights[i], cap))
        found = np.union1d(found, orbit)[:cap]
    return found.tolist()


def _sweep(n: int, mode: str, codes, checkers: str, max_witnesses: int,
           ws: sw.Workspace, weights: np.ndarray | None = None,
           progress: Progress = None) -> TheoremReport:
    """The report of codes, a range or an int64 array, in mode, with its
    laws in LAW_ORDER.  The codes are swept CHUNK_CODES at a time, their
    planes in ws, and progress is called with (codes done, total) after
    each chunk.  No codes sweep one empty batch, so the kernels alone decide
    which laws a level lists.  Without weights, the codes are labeled
    codes.  With weights, they are one representative per isomorphism
    class, of any form, and a class of weight w stands for the w least
    labeled codes of its orbit: w = n!/|Aut| for the whole orbit, w = 1 for
    its minimum.  Its counts are weighted: each chunk hands its lane
    weights to the counting kernels (sw.popcount).  Every code the report
    names comes from one rule, _smallest: each chunk names the smallest
    codes that its lanes tied at a least count, or flagged, stand for, at
    most max_witnesses per list.  The chunks only add up counts and keep
    the least (count, code) and the smallest codes of each list, so the
    report is the same for any chunk size or code order."""
    failures, fail_codes, overall, no_universal = 0, [], [], []
    twin_free_codes, hist, laws = 0, {}, {}

    def smallest(flagged: np.ndarray, cap: int) -> list[int]:
        # the cap smallest codes that the chunk's flagged lanes stand for
        return _smallest(n, chunk[flagged], None if part is None else part[flagged], cap)

    for lo in range(0, max(len(codes), 1), CHUNK_CODES):
        chunk = codes[lo:lo + CHUNK_CODES]
        if isinstance(chunk, range):
            chunk = np.arange(chunk.start, chunk.stop, dtype=np.int64)
        m = chunk.size
        part = None if weights is None else weights[lo:lo + m]
        valid = sw.valid_plane(m)
        bits = sw.label_bits(n, chunk, ws)
        ones = sw.one_masks(n, bits, ws)
        lines = sw.line_masks(n, bits, ones, ws)
        distinct, equal = sw.distinct_counts(lines, valid, ws)
        universal = sw.universal_flags(n, lines)

        counts = distinct[:m]
        has_universal = sw.unpack(universal)[:m]
        failed = (counts < n) & ~has_universal
        failures += int(np.count_nonzero(failed) if part is None else part[failed].sum())
        fail_codes += smallest(failed, max_witnesses)
        for best, among in ((overall, np.ones(m, dtype=bool)),
                            (no_universal, ~has_universal)):
            if among.any():
                low = counts[among].min()
                best.append((int(low), *smallest(among & (counts == low), 1)))

        if checkers != "none":
            lanes = None if part is None else np.pad(part, (0, -m % 64))
            twins = sw.twin_pair_flags(n, bits, ones, ws)
            twin_free = valid & ~np.bitwise_or.reduce(twins, axis=0)
            oversize = sw.class_size_stats(n, equal.pairs, ws)

            law_counts = sw.distinct_line_counts(n, bits, equal.pairs, twins,
                                                 valid, ws, lanes)
            law_counts.update(sw.twin_law_counts(n, bits, lines, twins, ws, lanes))
            law_counts["class-size"] = sw.size_bound_counts(twin_free, universal,
                                                            equal.heads, oversize, lanes)
            if checkers == "full":
                shapes, class_counts = sw.class_law_counts(n, bits, lines, equal,
                                                           twin_free, ws, lanes)
                law_counts.update(class_counts)
                for tag, cnt in shapes.items():
                    hist[tag] = hist.get(tag, 0) + cnt
            twin_free_codes += sw.popcount(twin_free, lanes)
            for law in LAW_ORDER:
                if cnt := law_counts.get(law):
                    stat = laws.setdefault(law, [0, 0, []])
                    stat[0] += cnt.instances
                    stat[1] += cnt.violations
                    stat[2] += smallest(sw.unpack(cnt.bad)[:m], max_witnesses)
        if progress and m:
            progress(lo + m, len(codes))

    def witnesses(found: list[int]) -> tuple[int, ...]:
        return tuple(sorted(set(found))[:max_witnesses])

    overall = min(overall, default=(None, None))
    no_universal = min(no_universal, default=(None, None))
    return TheoremReport(
        n=n, mode=mode, checker_level=checkers,
        total_codes=len(codes) if weights is None else int(weights.sum()),
        dbe_failures=failures, failure_witnesses=witnesses(fail_codes),
        min_lines_overall=overall[0], argmin_overall=overall[1],
        min_lines_no_universal=no_universal[0],
        argmin_no_universal=no_universal[1],
        twin_free_codes=None if checkers == "none" else twin_free_codes,
        class_counts_by_shape=hist or None,
        laws={law: LawStat(inst, viol, witnesses(found))
              for law, (inst, viol, found) in laws.items()} or None)


def _check_limits(max_witnesses: int) -> None:
    if max_witnesses < 0:
        raise ValueError(f"witness cap must be nonnegative, got {max_witnesses}")


def verify_theorem(n: int, mode: str = "all", *, max_witnesses: int = 100,
                   progress: Progress = None) -> TheoremReport:
    """The report of all label codes on n points (mode "all"), at level
    "full" through n = 6 and "vector" at n = 7, 8, or of the least labeled
    code of each class (mode "iso"), at level "full", whose counts count
    classes: one _sweep of the classes of one growth, in this process,
    that calls progress with (points, n) once per step of the growth.
    Warm, verify_theorem(8, "iso") takes about 80 ms.
    """
    sw.check_point_count(n)
    _check_limits(max_witnesses)
    if mode not in ("all", "iso"):
        raise ValueError(f"unknown mode {mode!r}")
    for m, reps, aut in sw.iso_classes(n):
        if progress and m > 2:
            progress(m, n)
    weights = factorial(n) // aut if mode == "all" else np.ones_like(reps)
    return _sweep(n, mode, reps, "full" if mode == "iso" or n <= 6 else "vector",
                  max_witnesses, _workspace(), weights)


def claims_sweep(n: int, trials: Optional[int] = None, seed: int = 0, *,
                 max_witnesses: int = 100,
                 progress: Progress = None) -> TheoremReport:
    """Run every structural law checker over all codes (mode "all"), or
    over a seeded random sample of codes when trials is given (mode
    "sample", with total_codes = trials).

    Exhaustive runs use the "full" level through n = 6 and the "vector"
    level at n = 7, 8, whose laws lack full-cover and class-shape: they are
    verify_theorem(n).  Sampled runs, drawn uniformly with
    replacement, use the full level at every n, and are swept in chunks
    (_sweep).  A seed's sample is trials calls of
    random.Random(seed).randrange(2^C(n,2)) (_sample_codes).
    """
    sw.check_point_count(n)
    _check_limits(max_witnesses)
    if trials is None:
        return verify_theorem(n, max_witnesses=max_witnesses, progress=progress)
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    return _sweep(n, "sample", _sample_codes(random.Random(seed), n, trials), "full",
                  max_witnesses, _workspace(), progress=progress)


def _sample_codes(rng: random.Random, n: int, trials: int) -> np.ndarray:
    """The codes of trials calls of rng.randrange(2^C(n,2)), in order, as
    int64.

    For total = 2^b, b < 32, CPython's randrange(total) takes getrandbits(k),
    k = b + 1, until the value is below total, and getrandbits(k) is the top
    k bits of the next 32-bit Mersenne Twister word.  getrandbits(32 * w) is
    the next w words, the first in the low bits, so the same filter over a
    block of words, in order, accepts the same codes.  About half the words
    are accepted; a draw takes at most _DRAW_WORDS words at a time."""
    k = pair_count(n) + 1
    codes = np.empty(trials, dtype=np.int64)
    filled = 0
    while filled < trials:
        words = min(_DRAW_WORDS, 2 * (trials - filled))
        block = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                              dtype="<u4")
        # word >> (32 - k) < 2^(k-1) iff bit 31 is clear; a cast instead of a
        # comparison keeps numpy's comparison loops (64 KiB of code) out of RSS
        kept = (block >> (32 - k))[(~block >> 31).astype(bool)][:trials - filled]
        codes[filled:filled + kept.size] = kept
        filled += kept.size
    return codes


def min_lines_table(n: int, *, progress: Progress = None) -> tuple[TheoremReport, ...]:
    """Minimum distinct-line counts for each point count 2..n, ascending:
    one level-"none" _sweep per point count, in mode "iso" (a class weighs
    1), from one growth of sw.iso_classes to n.

    A line count is the same for every relabeling of a space, so the least
    counts are those of all 2^C(m,2) codes on m points.  The smallest
    labeled code with a least count is the least orbit minimum among the
    classes that reach it, and only those classes go to sw.canonical_min.
    Every row so has the four fields of the labeled sweep; total_codes and
    dbe_failures count classes.  The no-universal minimum is None when every
    space on m points has a universal line (m = 2).  Warm, the table takes
    about 12 ms to n = 7 and 80 ms to n = 8.  progress, if given, is
    called with (m, n) after the row of m points.
    """
    sw.check_point_count(n)
    rows = []
    for m, reps, aut in sw.iso_classes(n):
        rows.append(_sweep(m, "iso", reps, "none", 0, _workspace(), np.ones_like(reps)))
        if progress:
            progress(m, n)
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
_TRIPLE_RETRIES = 50  # resamplings of violating triples before a restart
_VALUE_CAP = 4
_COMMON_DENOM = lcm(*range(1, _DENOM_CAP + 1))


def _draw_numerator(rng: random.Random) -> int:
    # value p/q, q <= 16, 0 < p/q <= 4, held as numerator over _COMMON_DENOM
    q = rng.randint(1, _DENOM_CAP)
    p = rng.randint(1, _VALUE_CAP * q)
    return p * (_COMMON_DENOM // q)


def _draw_int_rows(rng: random.Random, n: int) -> list[list[int]]:
    """Random symmetric integer matrix (scaled rationals) made metric by
    resampling the entries of violating triples, restarting on a stuck one."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i, j in iter_pairs(n):
            rows[i][j] = rows[j][i] = _draw_numerator(rng)
        retries = 0
        while retries <= _TRIPLE_RETRIES:
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
    _check_limits(max_examples)
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    exhaustive = []
    for n in (2, 3, 4):
        rep = verify_theorem(n)
        exhaustive.append((n, rep.total_codes, rep.dbe_failures))

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
            if progress and (done % 10_000 == 0 or done == grand_total):
                progress(done, grand_total)
        randoms.append((n, trials, fails))
    return SmallSpacesReport(seed, trials, tuple(exhaustive), tuple(randoms),
                             tuple(examples))
