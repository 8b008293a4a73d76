"""Vectorized enumeration kernels over arrays of label codes.

label_bits decodes a 1-D int64 array of label codes for a fixed n <= 8 into
a (C(n,2), len) bool table, one row per pair; it is the only kernel that
reads code bits.  Every other kernel takes that table or arrays derived from
it and works column-parallel, as a few hundred numpy operations independent
of how many codes are in the batch.  Point-set masks fit uint8 since n <= 8.

Two edges are in one class exactly when their lines are equal.
distinct_counts is the only kernel that compares two edges' lines; for the
law kernels it keeps the equal pairs, and the class-size, class and
distinct-line law kernels read only those.  The twin-law kernel reads the
gathered columns of each twin pair.  Only there can a law fail.

The scalar implementations in lines/structure (law_violations for the
laws) are the reference; the test suite pins these kernels against them
exhaustively at small n and on random batches at larger n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .bitset import full_mask, iter_pairs, pair_count, pair_index
from .structure import ClassShape, class_size_bound

# Enumeration kernels pack point sets into uint8 masks.
ENUM_MAX_POINTS = 8

# entry k: (j, ascending int32 codes where lines[j] == lines[k]) for each
# earlier edge j whose line edge k shares at some code
EqualPairs = list[list[tuple[int, np.ndarray]]]


def check_point_count(n: int) -> None:
    """The point-count bound of every sweep, from the kernels' uint8 masks."""
    if not 2 <= n <= ENUM_MAX_POINTS:
        raise ValueError(f"point count must be between 2 and {ENUM_MAX_POINTS}, got {n}")


def label_bits(n: int, codes: np.ndarray) -> np.ndarray:
    """(C(n,2), len) bool: bit k set means the k-th pair is at distance 2."""
    check_point_count(n)
    out = np.empty((pair_count(n), codes.shape[0]), dtype=bool)
    for k in range(pair_count(n)):
        out[k] = (codes >> k) & 1
    return out


def one_masks(n: int, bits: np.ndarray) -> np.ndarray:
    """(n, len) uint8: distance-1 neighborhood mask of each point."""
    out = np.zeros((n, bits.shape[1]), dtype=np.uint8)
    for k, (u, v) in enumerate(iter_pairs(n)):
        adj = (~bits[k]).view(np.uint8)
        out[u] |= adj << v
        out[v] |= adj << u
    return out


def line_masks(n: int, bits: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """(C(n,2), len) uint8: line mask of each pair (line_of_fast, columnwise)."""
    out = np.empty(bits.shape, dtype=np.uint8)
    for k, (u, v) in enumerate(iter_pairs(n)):
        base = np.uint8((1 << u) | (1 << v))
        out[k] = np.where(bits[k], ones[u] & ones[v], ones[u] ^ ones[v]) | base
    return out


# uncalled; bench/tracing.py wraps it by name and raises at install if it is gone
def sorted_lines(lines: np.ndarray) -> np.ndarray:
    """Lines sorted within each column."""
    return np.sort(lines, axis=0)


def distinct_counts(lines: np.ndarray, keep: bool) -> tuple[np.ndarray, EqualPairs | None]:
    """int16 per code: number of distinct lines, i.e. of edges whose line no
    earlier edge has; and, if keep, the equal pairs (see EqualPairs)."""
    P, m = lines.shape
    distinct = np.full(m, P, dtype=np.int16)
    eq = np.empty(m, dtype=bool)
    seen = np.empty(m, dtype=bool)
    pairs: EqualPairs = [[] for _ in range(P)]
    for k in range(1, P):
        seen[:] = False
        for j in range(k):
            np.equal(lines[j], lines[k], out=eq)
            seen |= eq
            if keep:
                idx = np.flatnonzero(eq).astype(np.int32)
                if idx.size:
                    pairs[k].append((j, idx))
        distinct -= seen
    return distinct, (pairs if keep else None)


def universal_flags(n: int, lines: np.ndarray) -> np.ndarray:
    """bool per code: some line contains all n points."""
    fm = np.uint8(full_mask(n))
    out = np.zeros(lines.shape[1], dtype=bool)
    for row in lines:
        out |= row == fm
    return out


def class_size_stats(n: int, lines: np.ndarray, pairs: EqualPairs) -> np.ndarray:
    """int16 per code: count of classes above the size bound.  Of the edges
    of such a class, exactly one has exactly bound earlier classmates."""
    oversize = np.zeros(lines.shape[1], dtype=np.int16)
    before = np.empty(lines.shape[1], dtype=np.int8)
    for row in pairs:
        before[:] = 0
        for _, idx in row:
            before[idx] += 1
        oversize += before == class_size_bound(n)
    return oversize


def twin_pair_flags(n: int, bits: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """(C(n,2), len) bool: whether each pair is a twin pair."""
    out = np.empty(bits.shape, dtype=bool)
    for k, (u, v) in enumerate(iter_pairs(n)):
        out[k] = bits[k] & (ones[u] == ones[v])
    return out


@dataclass
class LawCounts:
    """Aggregated checker output for one law over one batch."""

    instances: int
    violations: int
    bad_codes: np.ndarray  # bool per code


def _new_counts(m: int) -> LawCounts:
    return LawCounts(0, 0, np.zeros(m, dtype=bool))


def _tally(cnt: LawCounts, applicable: np.ndarray, bad: np.ndarray) -> None:
    cnt.instances += int(applicable.sum())
    cnt.violations += int(bad.sum())
    cnt.bad_codes |= bad


def _flag(cnt: LawCounts, idx: np.ndarray, bad: np.ndarray) -> None:
    # bad holds one row of flags, or several, over the codes idx
    cnt.violations += int(np.count_nonzero(bad))
    cnt.bad_codes[idx[np.atleast_2d(bad).any(axis=0)]] = True


def distinct_line_counts(n: int, bits: np.ndarray, pairs: EqualPairs,
                         twins: np.ndarray) -> dict[str, LawCounts]:
    """Vector form of the three distinct-line laws of
    structure.law_violations, counted per law.

    A point with d edges at distance 2 is the middle of C(d, 2) edge pairs
    labelled 2, 2, of C(n-1-d, 2) labelled 1, 1 (less those whose ends are
    twins) and of d (n-1-d) with different labels; the rest of a code's
    t (C(n,2) - t) such pairs, t its edges at distance 2, are disjoint.
    Labels are read only at the equal pairs.
    """
    m = bits.shape[1]
    out = {law: _new_counts(m) for law in
           ("disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin")}
    disjoint, label2, label1 = out.values()
    t = np.zeros(m, dtype=np.int16)
    for p in range(n):
        d2 = sum(bits[pair_index(p, w, n)].view(np.int8) for w in range(n) if w != p)
        d1 = n - 1 - d2
        t += d2
        label2.instances += int((d2 * (d2 - 1)).sum()) // 2
        label1.instances += int((d1 * (d1 - 1)).sum()) // 2 - sum(
            int(d1[twins[pair_index(p, b, n)]].sum()) for b in range(p + 1, n))
        disjoint.instances -= int((d2 * d1).sum())
    t //= 2
    disjoint.instances += int((t * (pair_count(n) - t)).sum())
    ends = [{u, v} for u, v in iter_pairs(n)]
    for k, row in enumerate(pairs):
        for j, idx in row:
            b1, b2 = bits[j][idx], bits[k][idx]
            if ends[j] & ends[k]:
                tw = twins[pair_index(*sorted(ends[j] ^ ends[k]), n)][idx]
                _flag(label2, idx, b1 & b2)
                _flag(label1, idx, ~b1 & ~b2 & ~tw)
            else:
                _flag(disjoint, idx, b1 != b2)
    return out


def twin_law_counts(n: int, bits: np.ndarray, lines: np.ndarray,
                    twins: np.ndarray) -> dict[str, LawCounts]:
    """Vector form of the three twin laws of structure.law_violations,
    counted per law, each twin pair's laws on the gathered columns of the
    codes where it is one."""
    m = bits.shape[1]
    out = {law: _new_counts(m) for law in ("twin-a", "twin-b", "twin-c")}
    for k, (u, v) in enumerate(iter_pairs(n)):
        idx = np.flatnonzero(twins[k])
        if idx.size == 0:
            continue
        cols = lines[:, idx]
        has_u, has_v = ((cols & np.uint8(1 << x)) != 0 for x in (u, v))
        others = [w for w in range(n) if w != u and w != v]
        xy = [pair_index(x, y, n) for x, y in combinations(others, 2)]
        wv, wu = ([pair_index(w, x, n) for w in others] for x in (v, u))
        far = bits[np.ix_(wv, idx)]
        near_ok = has_u[wv] & has_v[wv] & has_u[wu] & has_v[wu]
        far_ok = has_v[wv] & ~has_u[wv] & has_u[wu] & ~has_v[wu]
        out["twin-a"].instances += len(xy) * idx.size
        out["twin-b"].instances += int(np.count_nonzero(~far))
        out["twin-c"].instances += int(np.count_nonzero(far))
        _flag(out["twin-a"], idx, has_u[xy] != has_v[xy])
        _flag(out["twin-b"], idx, ~far & ~near_ok)
        _flag(out["twin-c"], idx, far & ~far_ok)
    return out


def class_law_counts(n: int, bits: np.ndarray, lines: np.ndarray, pairs: EqualPairs,
                     twin_free: np.ndarray) -> tuple[dict[str, int], dict[str, LawCounts]]:
    """Vector form of classify_class and of the full-cover and class-shape
    laws of structure.law_violations: (class-shape histogram, per-law
    counts).

    Two classmates rule out a uniform matching when they share a point or
    differ in label, and also an alternating 4-cycle subset when they share
    a point with equal labels or are disjoint with different labels.  A
    class's shape, an index into ClassShape, is its worst conflict: with
    matching conflicts only, its label-1 and label-2 edges form two
    matchings, each edge of one meeting each edge of the other, which fits
    on 4 points with no point on 3 edges.  The conflicts and ends of each
    edge join the rows of its head, the first earlier edge in its equal
    pairs; cover 0 marks an edge that heads no class.
    """
    ends = [np.uint8((1 << u) | (1 << v)) for u, v in iter_pairs(n)]
    alt, other = np.uint8(1), np.uint8(2)
    P, m = lines.shape
    cover = np.repeat(np.array(ends)[:, None], m, axis=1)
    shape = np.zeros((P, m), dtype=np.uint8)
    seen = np.empty(m, dtype=bool)
    for k, row in enumerate(pairs):
        seen[:] = False
        heads = []
        for j, idx in row:
            new = idx[~seen[idx]]  # the codes where j heads the class of k
            seen[new] = True
            heads.append((j, new))
            same = bits[j][idx] == bits[k][idx]
            if ends[j] & ends[k]:  # the two edges share a point
                worst = np.where(same, other, alt)
            else:
                worst = np.where(same, np.uint8(0), other)
            shape[k, idx] = np.maximum(shape[k, idx], worst)
        for h, new in heads:
            cover[h, new] |= ends[k]
            cover[k, new] = 0
            shape[h, new] = np.maximum(shape[h, new], shape[k, new])
    hist = {s.value: 0 for s in ClassShape}
    laws = {"full-cover": _new_counts(m), "class-shape": _new_counts(m)}
    fm = full_mask(n)
    for h in range(P):
        is_head = cover[h] != 0
        for i, s in enumerate(ClassShape):
            hist[s.value] += int(np.count_nonzero(is_head & (shape[h] == i)))
        covers = cover[h] == fm
        _tally(laws["full-cover"], covers, covers & (lines[h] != fm))
        _tally(laws["class-shape"], is_head & twin_free,
               is_head & twin_free & (shape[h] == other))
    return hist, laws


def size_bound_counts(twin_free: np.ndarray, universal: np.ndarray,
                      distinct: np.ndarray, oversize: np.ndarray) -> LawCounts:
    """Class-size law on twin-free, no-universal codes."""
    applicable = twin_free & ~universal
    bad_counts = np.where(applicable, oversize, 0)
    return LawCounts(int(distinct[applicable].sum()), int(bad_counts.sum()),
                     bad_counts > 0)


def canonical_min(n: int, bits: np.ndarray) -> np.ndarray:
    """int64 per code: minimum label code over all n! relabelings.

    Brute-force permutation minimization, n! C(n,2) numpy operations per
    batch; iso_codes calls it on the one-point extensions of each class,
    at most 9984 codes through n = 7, never on a full code range.
    """
    best = np.full(bits.shape[1], np.iinfo(np.int64).max)
    acc = np.empty_like(best)
    bit = np.empty_like(best)
    for perm in permutations(range(n)):
        acc[:] = 0
        for i, j in iter_pairs(n):
            np.left_shift(bits[pair_index(perm[i], perm[j], n)],
                          pair_index(i, j, n), out=bit, dtype=np.int64)
            acc |= bit
        np.minimum(best, acc, out=best)
    return best


def iso_codes(n: int, progress=None) -> np.ndarray:
    """Ascending int64 minimum codes, one per isomorphism class on n points.

    Grown from the two classes on 2 points by one point at a time: each
    class representative on m points is lifted to m + 1 points, joined to
    the new point in all 2^m ways, and the minimum codes of the candidates
    are deduplicated.  Deleting the last point of a space on m + 1 points
    leaves a relabeled representative, so every class is reached.
    progress, if given, is called with (m + 1, n) after each step.
    """
    check_point_count(n)
    reps = np.arange(2, dtype=np.int64)
    for m in range(2, n):
        lifted = np.zeros_like(reps)
        for i, j in iter_pairs(m):
            lifted |= ((reps >> pair_index(i, j, m)) & 1) << pair_index(i, j, m + 1)
        patterns = np.arange(1 << m, dtype=np.int64)
        joins = np.zeros_like(patterns)
        for i in range(m):
            joins |= ((patterns >> i) & 1) << pair_index(i, m, m + 1)
        candidates = (lifted[:, None] | joins).ravel()
        reps = np.unique(canonical_min(m + 1, label_bits(m + 1, candidates)))
        if progress:
            progress(m + 1, n)
    return reps
