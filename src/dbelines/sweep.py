"""Vectorized enumeration kernels over arrays of label codes.

Every kernel takes a 1-D int64 array of label codes for a fixed n <= 8 and
works column-parallel: per-point distance-1 masks, per-pair line masks (the
same closed form as line_of_fast), line-count statistics, and the law
checkers, each as a few hundred numpy operations independent of how many
codes are in the batch.  Point-set masks fit uint8 since n <= 8.

The scalar implementations in lines/structure are the reference; the test
suite pins these kernels against them exhaustively at small n and on random
batches at larger n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .bitset import full_mask, iter_pairs, pair_count, pair_index
from .structure import ClassShape, class_size_bound

# Enumeration kernels pack point sets into uint8 masks.
ENUM_MAX_POINTS = 8


def _check_n(n: int) -> None:
    if not 2 <= n <= ENUM_MAX_POINTS:
        raise ValueError(f"enumeration kernels support 2 <= n <= {ENUM_MAX_POINTS}, got {n}")


def label_bits(n: int, codes: np.ndarray) -> np.ndarray:
    """(C(n,2), len) bool: bit k set means the k-th pair is at distance 2."""
    _check_n(n)
    out = np.empty((pair_count(n), codes.shape[0]), dtype=bool)
    for k in range(pair_count(n)):
        out[k] = (codes >> k) & 1
    return out


def one_masks(n: int, codes: np.ndarray) -> np.ndarray:
    """(n, len) uint8: distance-1 neighborhood mask of each point."""
    _check_n(n)
    out = np.zeros((n, codes.shape[0]), dtype=np.uint8)
    for p in range(n):
        acc = np.zeros(codes.shape[0], dtype=np.uint8)
        for q in range(n):
            if q == p:
                continue
            adj = ((~codes >> pair_index(p, q, n)) & 1).astype(np.uint8)
            acc |= adj << q
        out[p] = acc
    return out


def line_masks(n: int, codes: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """(C(n,2), len) uint8: line mask of each pair (line_of_fast, columnwise)."""
    _check_n(n)
    out = np.empty((pair_count(n), codes.shape[0]), dtype=np.uint8)
    for k, (u, v) in enumerate(iter_pairs(n)):
        two = ((codes >> k) & 1).astype(bool)
        base = np.uint8((1 << u) | (1 << v))
        out[k] = np.where(two, ones[u] & ones[v], ones[u] ^ ones[v]) | base
    return out


def sorted_lines(lines: np.ndarray) -> np.ndarray:
    """Lines sorted within each column; input to the counting kernels."""
    return np.sort(lines, axis=0)


def _run_boundaries(srt: np.ndarray) -> np.ndarray:
    boundary = np.empty(srt.shape, dtype=bool)
    boundary[0] = True
    np.not_equal(srt[1:], srt[:-1], out=boundary[1:])
    return boundary


def distinct_counts(srt: np.ndarray) -> np.ndarray:
    """int16 per code: number of distinct lines (= run starts)."""
    return _run_boundaries(srt).sum(axis=0, dtype=np.int16)


def universal_flags(n: int, lines: np.ndarray) -> np.ndarray:
    """bool per code: some line contains all n points."""
    return (lines == full_mask(n)).any(axis=0)


def class_size_stats(n: int, srt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max class size, count of classes above the size bound) per code."""
    P = srt.shape[0]
    boundary = _run_boundaries(srt)
    idx = np.arange(P, dtype=np.int16)[:, None]
    start = np.maximum.accumulate(np.where(boundary, idx, np.int16(0)), axis=0)
    run_len = idx - start + 1
    # a run longer than the bound passes bound+1 exactly once
    oversize = (run_len == class_size_bound(n) + 1).sum(axis=0, dtype=np.int16)
    return run_len.max(axis=0), oversize


def twin_pair_flags(n: int, codes: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """(C(n,2), len) bool: whether each pair is a twin pair."""
    _check_n(n)
    out = np.empty((pair_count(n), codes.shape[0]), dtype=bool)
    for k, (u, v) in enumerate(iter_pairs(n)):
        out[k] = (((codes >> k) & 1) == 1) & (ones[u] == ones[v])
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


def distinct_line_counts(n: int, bits: np.ndarray, lines: np.ndarray,
                         twins: np.ndarray) -> dict[str, LawCounts]:
    """Vector form of check_distinct_lines, counted per law."""
    m = bits.shape[1]
    out = {law: _new_counts(m) for law in
           ("disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin")}
    for quad in combinations(range(n), 4):
        a, b, c, d = quad
        for (p, q) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            k1, k2 = pair_index(*p, n), pair_index(*q, n)
            applicable = bits[k1] != bits[k2]
            _tally(out["disjoint-diff-label"], applicable,
                   applicable & (lines[k1] == lines[k2]))
    for mid in range(n):
        rest = [x for x in range(n) if x != mid]
        for a, b in combinations(rest, 2):
            k1, k2 = pair_index(a, mid, n), pair_index(mid, b, n)
            eq = lines[k1] == lines[k2]
            both2 = bits[k1] & bits[k2]
            _tally(out["adjacent-label2"], both2, both2 & eq)
            both1 = ~bits[k1] & ~bits[k2] & ~twins[pair_index(a, b, n)]
            _tally(out["adjacent-label1-nontwin"], both1, both1 & eq)
    return out


def _has_point(lines_k: np.ndarray, p: int) -> np.ndarray:
    return ((lines_k >> p) & 1).astype(bool)


def twin_law_counts(n: int, bits: np.ndarray, lines: np.ndarray,
                    twins: np.ndarray) -> dict[str, LawCounts]:
    """Vector form of check_twin_line_laws, counted per law."""
    m = bits.shape[1]
    out = {law: _new_counts(m) for law in ("twin-a", "twin-b", "twin-c")}
    for k, (u, v) in enumerate(iter_pairs(n)):
        tw = twins[k]
        if not tw.any():
            continue
        others = [w for w in range(n) if w != u and w != v]
        for x, y in combinations(others, 2):
            mxy = lines[pair_index(x, y, n)]
            _tally(out["twin-a"], tw,
                   tw & (_has_point(mxy, u) != _has_point(mxy, v)))
        for w in others:
            kwv = pair_index(w, v, n)
            mwv, mwu = lines[kwv], lines[pair_index(w, u, n)]
            u_wv, v_wv = _has_point(mwv, u), _has_point(mwv, v)
            u_wu, v_wu = _has_point(mwu, u), _has_point(mwu, v)
            near = tw & ~bits[kwv]
            _tally(out["twin-b"], near, near & ~(u_wv & v_wv & u_wu & v_wu))
            far = tw & bits[kwv]
            _tally(out["twin-c"], far, far & ~(v_wv & ~u_wv & u_wu & ~v_wu))
    return out


def class_law_counts(n: int, bits: np.ndarray, lines: np.ndarray,
                     twin_free: np.ndarray) -> tuple[dict[str, int], dict[str, LawCounts]]:
    """Vector form of classify_class, check_full_cover_classes and
    check_twin_free_shapes: (class-shape histogram, per-law counts).

    Edges with equal lines form a class, tagged by its first-seen edge.  Two
    classmates conflict for a uniform matching when they share a point or
    differ in label, and for an alternating 4-cycle subset when they share a
    point with equal labels or are disjoint with different labels.  A class
    with matching but no alternation conflicts is an alternating 4-cycle
    subset: its label-1 and label-2 edges form two matchings, each edge of one
    meeting each edge of the other, which fits on 4 points with no point on 3
    edges.
    """
    ends = [np.uint8((1 << u) | (1 << v)) for u, v in iter_pairs(n)]
    P, m = lines.shape
    # per edge: first-seen in its class; conflicts with an earlier classmate
    head = np.ones((P, m), dtype=bool)
    match_bad = np.zeros((P, m), dtype=bool)
    alt_bad = np.zeros((P, m), dtype=bool)
    for k in range(P):
        for j in range(k):
            eq = lines[j] == lines[k]
            head[k] &= ~eq
            diff = eq & (bits[j] != bits[k])
            if ends[j] & ends[k]:  # the two edges share a point
                match_bad[k] |= eq
                alt_bad[k] |= eq ^ diff  # equal labels
            else:
                match_bad[k] |= diff
                alt_bad[k] |= diff
    hist = {shape.value: 0 for shape in ClassShape}
    laws = {"full-cover": _new_counts(m), "class-shape": _new_counts(m)}
    fm = full_mask(n)
    for h in range(P):
        cover = np.full(m, ends[h], dtype=np.uint8)
        mbad = np.zeros(m, dtype=bool)
        abad = np.zeros(m, dtype=bool)
        for k in range(h + 1, P):
            eq = lines[h] == lines[k]
            cover |= np.where(eq, ends[k], np.uint8(0))
            mbad |= eq & match_bad[k]
            abad |= eq & alt_bad[k]
        is_head = head[h]
        uniform = is_head & ~mbad
        alt = is_head & mbad & ~abad
        other = is_head & abad
        for shape, flags in ((ClassShape.UNIFORM_MATCHING, uniform),
                             (ClassShape.ALT_C4_SUBSET, alt),
                             (ClassShape.OTHER, other)):
            hist[shape.value] += int(flags.sum())
        covers = is_head & (cover == fm)
        _tally(laws["full-cover"], covers, covers & (lines[h] != fm))
        _tally(laws["class-shape"], is_head & twin_free, other & twin_free)
    return hist, laws


def size_bound_counts(twin_free: np.ndarray, universal: np.ndarray,
                      distinct: np.ndarray, oversize: np.ndarray) -> LawCounts:
    """Class-size law on twin-free, no-universal codes."""
    applicable = twin_free & ~universal
    bad_counts = np.where(applicable, oversize, 0)
    cnt = LawCounts(int(distinct[applicable].sum()), int(bad_counts.sum()),
                    bad_counts > 0)
    return cnt


def canonical_min(n: int, codes: np.ndarray) -> np.ndarray:
    """Minimum label code over all n! relabelings, per code.

    Brute-force permutation minimization; fine through n = 6 on full
    enumerations and on modest batches beyond that.
    """
    _check_n(n)
    best = codes.copy()
    acc = np.empty_like(codes)
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        acc[:] = 0
        for i, j in iter_pairs(n):
            src = pair_index(perm[i], perm[j], n)
            acc |= ((codes >> src) & 1) << pair_index(i, j, n)
        np.minimum(best, acc, out=best)
    return best
