"""Bit-sliced enumeration kernels over arrays of label codes.

A batch of m label codes for a fixed n <= 8 is held in bit planes.  A plane
is a (W,) uint64 array, W = ceil(m / 64), and bit c % 64 of its word c // 64
belongs to the c-th code.  label_bits packs the codes into one label plane
per pair, set where the pair is at distance 2; it is the only sweep kernel
that reads code bits.  Every other kernel evaluates a boolean formula over
planes, so each numpy operation decides one predicate for 64 codes:

  distance-1 planes (one_masks)  the complements of the label planes;
  line planes (line_masks)       point w is on the line of pair (u, v);
  equal-line planes              edges j < k have equal lines;
  twin planes                    pair k is a twin pair.

Every law's violation set is a plane formula.  The six label laws have one
instance per edge pair (the distinct-line laws) or per twin pair and a pair
outside it or third point (the twin laws).  A cached table lists the plane
rows of each instance, and the kernel walks it in blocks: np.take gathers a
block's rows of each plane table into the scratch arena, and one ufunc call
then applies a step of the formula to the whole block.  Two edges are in
one class exactly when their lines are equal, and line equality is
transitive, so each class aggregates onto its head, the first edge of the
class, through the head's equal-line planes; the class laws are evaluated
there.  Violations are counted with np.bitwise_count (popcount), and a
law's witnesses are the set bits of the OR of its bad planes.  Every
counting kernel takes the batch's lane weights as its last argument and
hands them to popcount; given weights, popcount instead unpacks the planes
into one count per lane (lane_counts) and weighs each lane, so a batch of
one code per isomorphism class, weighted by orbit size, counts every
labeled code of those classes.  lane_counts also gives the per-code
distinct-line count, and unpack the universal flag, for the argmins.

The bits past m belong to no code.  They read as code 0, and valid_plane
masks them out of every count.

The planes of a batch (labels, distance-1, lines, equal lines, twins) and
the large temporaries of the kernels that make them live in the Workspace
that the caller passes, which keeps its buffers from batch to batch.

Two canonical forms name an isomorphism class.  refined_codes is the least
code over the relabelings that keep the points sorted by an invariant key,
with the class's automorphism count beside it, and iso_classes grows the
classes with it from the joins that give the new point the largest degree.
It relabels each distinct sorted code of several cells once, in blocks of
(code, relabeling) rows that span cell patterns: 24,956 relabelings for the
2690 candidates of the n = 7 growth step.  least_codes searches the least
codes over all n! relabelings, filling the positions from the last one
down.  It serves the 8 one-cell codes of that step, the class witnesses,
and canonical_min: the form every report prints, needed only for the
classes that a report names.  Searching every growth candidate instead
makes iso_classes 20 times slower at n = 7 and 50 times at n = 8.

The scalar implementations in lines/structure (law_violations for the
laws) are the readable copy of each kernel and share its rules; the
definitional oracle is tests/reference.py.  The test suite pins these
kernels against both, exhaustively at small n and on random batches at
larger n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, combinations, permutations
from math import factorial, prod
from typing import Iterator, NamedTuple

import numpy as np

from .bitset import iter_pairs, pair_count, pair_index
from .structure import ClassShape, class_size_bound

# verify._sample_codes takes one 32-bit Mersenne Twister word per draw, so
# C(n, 2) < 32; and a labeled exhaustive range at n = 9 (2^36 codes) would
# take hours (ROADMAP item 4).
ENUM_MAX_POINTS = 8

ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def check_point_count(n: int) -> None:
    """The point-count bound of every sweep (see ENUM_MAX_POINTS)."""
    if not 2 <= n <= ENUM_MAX_POINTS:
        raise ValueError(f"point count must be between 2 and {ENUM_MAX_POINTS}, got {n}")


def _later(i: int, n: int) -> slice:
    """The pairs (i, j), j > i, which are consecutive in pair order."""
    return slice(pair_index(i, i + 1, n), pair_index(i, n - 1, n) + 1)


@cache
def _ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two points of each pair, as int arrays in pair order."""
    us, vs = zip(*iter_pairs(n))
    return np.array(us), np.array(vs)


class EdgePairs(NamedTuple):
    """The C(P, 2) pairs (j, k), j < k, of the P = C(n, 2) edges, in the
    order of iter_pairs(P): row pair_index(j, k, P) of an equal-line table."""

    columns: tuple[np.ndarray, ...]  # for each k, the rows (h, k), h < k
    meet: np.ndarray   # (C(P,2), 1): ALL where the two edges share a point
    outer: np.ndarray  # where they share a point, the pair of their other ends


@cache
def _edge_pairs(n: int) -> EdgePairs:
    P = pair_count(n)
    ends = [{u, v} for u, v in iter_pairs(n)]
    columns = tuple(np.array([pair_index(h, k, P) for h in range(k)], dtype=np.intp)
                    for k in range(P))
    meet = np.array([bool(ends[j] & ends[k]) for j, k in iter_pairs(P)], dtype=bool)
    outer = [pair_index(*sorted(ends[j] ^ ends[k]), n) if m else 0
             for (j, k), m in zip(iter_pairs(P), meet)]
    return EdgePairs(columns, np.where(meet, ALL, np.uint64(0))[:, None],
                     np.array(outer, dtype=np.intp))


class Workspace:
    """Plane buffers reused from batch to batch.

    Each kernel's result planes have a named slot ("bits", "ones", "lines",
    "seen", "pairs", "twins"); the kernels' temporaries share one scratch
    arena, since none outlives its kernel.  A buffer is a flat
    uint64 array that grows to the largest size asked for and never shrinks,
    and a kernel gets reshaped views of its prefix, so a smaller n or batch
    reuses it.  A view holds whatever was last written there, so a kernel
    zeroes every part that it reads before it writes.  A slot's views are
    valid until the next take of that slot, the arena's until the next
    scratch call.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def _flat(self, slot: str, size: int) -> np.ndarray:
        buf = self._buffers.get(slot)
        if buf is None or buf.size < size:
            buf = self._buffers[slot] = np.empty(size, dtype=np.uint64)
        return buf[:size]

    def take(self, slot: str, shape: tuple[int, ...]) -> np.ndarray:
        """A view of shape on the start of the slot's buffer."""
        return self._flat(slot, prod(shape)).reshape(shape)

    def scratch(self, *shapes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Disjoint views, one per shape, laid end to end in the arena."""
        sizes = [prod(shape) for shape in shapes]
        flat = self._flat("scratch", sum(sizes))
        return tuple(flat[end - size:end].reshape(shape)
                     for shape, size, end in zip(shapes, sizes, accumulate(sizes)))


def valid_plane(m: int) -> np.ndarray:
    """The plane of the m codes of a batch: every bit below m."""
    out = np.full(-(-m // 64), ALL)
    if m % 64:
        out[-1] = (1 << (m % 64)) - 1
    return out


def unpack(plane: np.ndarray) -> np.ndarray:
    """bool per code (64 per word) of a plane, whatever the host byte order."""
    octets = plane.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, bitorder="little").view(bool)


def lane_counts(planes: np.ndarray) -> np.ndarray:
    """int32 per lane (64 per word) of the last axis: in how many of the
    planes, over all leading axes, its bit is set.  The unpacked bits are
    summed in uint8, which cannot overflow in 255 planes at a time and
    takes under half the time of a sum in int32."""
    lanes = 64 * planes.shape[-1]
    bits = unpack(planes).view(np.uint8).reshape(prod(planes.shape[:-1]), lanes)
    counts = np.zeros(lanes, dtype=np.int32)
    for lo in range(0, bits.shape[0], 255):
        counts += np.add.reduce(bits[lo:lo + 255], axis=0, dtype=np.uint8)
    return counts


def popcount(planes: np.ndarray, weights: np.ndarray | None) -> int:
    """Number of set bits over all planes, a set bit of lane c counted
    weights[c] times; weights has one int64 entry per lane of the planes'
    words, 0 past the batch, and None counts each bit once.  A batch of one
    code per isomorphism class, weighted by orbit size, so gets every count
    of all their labeled codes."""
    if weights is None:
        return int(np.bitwise_count(planes).sum())
    return int(lane_counts(planes) @ weights)


def label_bits(n: int, codes: np.ndarray, ws: Workspace) -> np.ndarray:
    """(C(n,2), W) label planes: bit c of plane k is bit k of the c-th code,
    set when the k-th pair is at distance 2.  A code may have up to 64 pair
    bits."""
    check_point_count(n)
    m = codes.size
    W = -(-m // 64)
    flat, = ws.scratch((64 * W,))
    flat[:m] = codes
    flat[m:] = 0
    # rows[i, w] holds code 64w + i; transposing each 64 x 64 bit block
    # (Hacker's Delight 7-3) leaves bit k of the 64 codes in rows[k]
    rows = ws.take("bits", (64, W))
    rows[...] = flat.reshape(W, 64).T
    j, mask = 32, 0x0000_0000_FFFF_FFFF
    while j:
        halves = rows.reshape(32 // j, 2, j, W)
        lo, hi = halves[:, 0], halves[:, 1]
        t, = ws.scratch(lo.shape)
        np.right_shift(lo, j, out=t)
        t ^= hi
        t &= mask
        hi ^= t
        t <<= j
        lo ^= t
        j //= 2
        mask ^= mask << j
    return rows[:pair_count(n)]


def one_masks(n: int, bits: np.ndarray, ws: Workspace) -> np.ndarray:
    """(n, n, W) distance-1 planes: [p, q] is set where d(p, q) = 1; the
    diagonal is empty."""
    us, vs = _ends(n)
    out = ws.take("ones", (n, n, bits.shape[-1]))
    inverted, = ws.scratch(bits.shape)
    np.invert(bits, out=inverted)
    out[us, vs] = out[vs, us] = inverted
    out.reshape(n * n, -1)[::n + 1] = 0  # the diagonal
    return out


def line_masks(n: int, bits: np.ndarray, ones: np.ndarray, ws: Workspace) -> np.ndarray:
    """(C(n,2), n, W) line planes: [k, w] is set where point w is on the
    line of the k-th pair (u, v).  For w outside {u, v}, with a and c the
    distance-1 planes of (u, w) and (v, w), that is a & c at distance 2 and
    a ^ c at distance 1 (line_of_fast, bit-sliced)."""
    us, vs = _ends(n)
    lines = ws.take("lines", (us.size, n, bits.shape[-1]))
    for u in range(n - 1):
        k = _later(u, n)
        a, c, out = ones[u], ones[u + 1:], lines[k]
        np.bitwise_or(a, c, out=out)
        out &= bits[k, None]
        out ^= a
        out ^= c  # (a | c) ^ a ^ c = a & c, and a ^ c where the label is 1
    k = np.arange(us.size)
    lines[k, us] = lines[k, vs] = ALL
    return lines


# uncalled; bench/tracing.py wraps it by name and raises at install if it is gone
def sorted_lines(lines: np.ndarray) -> np.ndarray:
    """Lines sorted within each column."""
    return np.sort(lines, axis=0)


class EqualLines(NamedTuple):
    """Line equality of one batch, restricted to its valid codes: row
    pair_index(j, k, P) of pairs is set where edges j < k have equal lines,
    row k of heads where no earlier edge has edge k's line."""

    pairs: np.ndarray  # (C(P,2), W)
    heads: np.ndarray  # (P, W)


def distinct_counts(lines: np.ndarray, valid: np.ndarray,
                    ws: Workspace) -> tuple[np.ndarray, EqualLines]:
    """int32 per code (64 per word): number of distinct lines, i.e. of edges
    whose line no earlier edge has, from lane_counts of the seen planes; and
    the equal-line planes restricted to valid, the plane of the batch's
    codes."""
    P, n, W = lines.shape
    seen = ws.take("seen", (P, W))
    seen.fill(0)
    pairs = ws.take("pairs", (P * (P - 1) // 2, W))
    differ, = ws.scratch(lines[1:].shape)
    for j in range(P - 1):
        d = np.bitwise_xor(lines[j + 1:], lines[j], out=differ[:P - 1 - j])
        eq = pairs[_later(j, P)]
        np.bitwise_or.reduce(d, axis=1, out=eq)
        np.invert(eq, out=eq)
        seen[j + 1:] |= eq
    distinct = P - lane_counts(seen[1:])
    pairs &= valid
    heads = np.invert(seen, out=seen)
    heads &= valid
    return distinct, EqualLines(pairs, heads)


def universal_flags(n: int, lines: np.ndarray) -> np.ndarray:
    """Plane: some line contains all n points."""
    return np.bitwise_or.reduce(np.bitwise_and.reduce(lines, axis=1), axis=0)


def class_size_stats(n: int, pairs: np.ndarray, ws: Workspace) -> np.ndarray:
    """(C(n,2), W) planes: edge k has exactly bound earlier classmates.  Of
    the edges of a class above the size bound, exactly one is set, so the
    set bits count the oversize classes.  A bit-sliced threshold counter:
    at_least[t, k] is set where edge k has at least t earlier classmates."""
    P, W = pair_count(n), pairs.shape[-1]
    bound = class_size_bound(n)
    at_least, step = ws.scratch((bound + 2, P, W), (P - 1, W))
    at_least[0] = ALL
    at_least[1:] = 0
    for j in range(P - 1):
        eq, reached = pairs[_later(j, P)], step[j:]
        # t descends, so at_least[t - 1] does not count edge j's column yet
        for t in range(bound + 1, 0, -1):
            np.bitwise_and(at_least[t - 1, j + 1:], eq, out=reached)
            at_least[t, j + 1:] |= reached
    return at_least[bound] & ~at_least[bound + 1]


def twin_pair_flags(n: int, bits: np.ndarray, ones: np.ndarray,
                    ws: Workspace) -> np.ndarray:
    """(C(n,2), W) twin planes: pair (u, v) is at distance 2 and no third
    point w has d(u, w) != d(v, w).  The terms at w = u and w = v are the
    pair's distance-1 plane, which the label plane clears."""
    out = ws.take("twins", bits.shape)
    differ, = ws.scratch(ones[1:].shape)
    for u in range(n - 1):
        d = np.bitwise_xor(ones[u + 1:], ones[u], out=differ[:n - 1 - u])
        np.bitwise_or.reduce(d, axis=1, out=out[_later(u, n)])
    np.invert(out, out=out)
    out &= bits
    return out


@dataclass
class LawCounts:
    """Aggregated checker output for one law over one batch, its counts
    weighted by the batch's lane weights (popcount)."""

    instances: int
    violations: int
    bad: np.ndarray  # plane of the violating codes
    weights: np.ndarray | None


def _new_counts(W: int, weights: np.ndarray | None) -> LawCounts:
    return LawCounts(0, 0, np.zeros(W, dtype=np.uint64), weights)


def _flag(cnt: LawCounts, bad: np.ndarray) -> None:
    # bad: (..., W) planes, one per law instance; real codes break no law,
    # so the count is taken only when some bit is set
    any_bad = np.bitwise_or.reduce(bad, axis=tuple(range(bad.ndim - 1)))
    if any_bad.any():
        cnt.violations += popcount(bad, cnt.weights)
        cnt.bad |= any_bad


def _tally(cnt: LawCounts, applicable: np.ndarray, breaks: np.ndarray) -> None:
    # in place: applicable becomes its violations, where it meets breaks
    cnt.instances += popcount(applicable, cnt.weights)
    applicable &= breaks
    _flag(cnt, applicable)


def _blocks(rows: np.ndarray, step: int) -> Iterator[np.ndarray]:
    """The columns of a gather table, step at a time."""
    for lo in range(0, rows.shape[1], step):
        yield rows[:, lo:lo + step]


def _block_rows(n: int, tables: int, groups: tuple[np.ndarray, ...]) -> int:
    """Rows per block of a kernel that gathers into this many tables: no
    more than its longest row group, and few enough that the tables fit in
    the (C(n,2) - 1) * n planes that distinct_counts already takes from the
    scratch arena (23 rows of six tables at n = 7, 36 at n = 8)."""
    return max(1, min((pair_count(n) - 1) * n // tables,
                      max(g.shape[1] for g in groups)))


def _gather(table: np.ndarray, rows: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """table[rows] written into the head of buf.  mode="clip" lets np.take
    write straight into out; the default "raise" buffers its output."""
    return np.take(table, rows, axis=0, out=buf[:rows.size], mode="clip")


@cache
def _line_law_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(P, 2) edge pairs (j, k), j < k, split into the disjoint pairs,
    a (3, pairs) intp table, and the pairs that share a point, (4, pairs).
    A column per pair holds j, k and the pair's row pair_index(j, k, P) of
    the equal-line planes, then for meeting pairs the pair of their other
    ends (EdgePairs.outer)."""
    e, P = _edge_pairs(n), pair_count(n)
    j, k = np.array(list(iter_pairs(P)), dtype=np.intp).reshape(-1, 2).T
    rows = np.stack([j, k, np.arange(j.size), e.outer])
    meet = e.meet[:, 0] != 0
    return np.ascontiguousarray(rows[:3, ~meet]), np.ascontiguousarray(rows[:, meet])


def distinct_line_counts(n: int, bits: np.ndarray, pairs: np.ndarray,
                         twins: np.ndarray, valid: np.ndarray, ws: Workspace,
                         weights: np.ndarray | None) -> dict[str, LawCounts]:
    """Vector form of the three distinct-line laws of
    structure.law_violations, counted per law: each edge pair's labels
    (and, for two label-1 edges at a point, the twin plane of their other
    ends) give the plane where the law applies, and its violations are
    where that plane meets the pair's equal-line plane.  The pairs go
    through in blocks of _line_law_rows columns, gathered into scratch.
    Counts are weighted by weights, one per lane (popcount)."""
    W = bits.shape[-1]
    out = {law: _new_counts(W, weights) for law in
           ("disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin")}
    disjoint, label2, label1 = out.values()
    disjoint_rows, meeting_rows = groups = _line_law_rows(n)
    step = _block_rows(n, 4, groups)
    at_j, at_k, at_outer, eq = ws.scratch(*[(step, W)] * 4)
    for j, k, row in _blocks(disjoint_rows, step):
        differ = _gather(bits, j, at_j)
        differ ^= _gather(bits, k, at_k)
        _tally(disjoint, differ, _gather(pairs, row, eq))
    for j, k, row, outer in _blocks(meeting_rows, step):
        both = _gather(bits, j, at_j)
        later = _gather(bits, k, at_k)
        # label 1 on both edges, and no twin pair at their other ends
        ones = _gather(twins, outer, at_outer)
        ones |= both
        ones |= later
        np.invert(ones, out=ones)
        ones &= valid
        both &= later
        same = _gather(pairs, row, eq)
        _tally(label2, both, same)
        _tally(label1, ones, same)
    return out


@cache
def _twin_law_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The twin-law tables, a column per instance.  split, (3, C(n,2) *
    C(n-2,2)) intp, has one per pair (u, v) and pair xy outside it: the
    pair, then rows xy * n + u and xy * n + v of a flattened (C(n,2) * n, W)
    line table.  third, (6, C(n,2) * (n-2)), has one per pair (u, v) and
    third point w: the pair, the pair wv, then the line rows of wv at u and
    v and of wu at u and v."""
    split, third = [], []
    for t, (u, v) in enumerate(iter_pairs(n)):
        others = [w for w in range(n) if w != u and w != v]
        for x, y in combinations(others, 2):
            xy = pair_index(x, y, n)
            split.append((t, n * xy + u, n * xy + v))
        for w in others:
            wv, wu = pair_index(w, v, n), pair_index(w, u, n)
            third.append((t, wv, n * wv + u, n * wv + v, n * wu + u, n * wu + v))
    return (np.array(split, dtype=np.intp).reshape(-1, 3).T.copy(),
            np.array(third, dtype=np.intp).reshape(-1, 6).T.copy())


def twin_law_counts(n: int, bits: np.ndarray, lines: np.ndarray, twins: np.ndarray,
                    ws: Workspace, weights: np.ndarray | None) -> dict[str, LawCounts]:
    """Vector form of the three twin laws of structure.law_violations,
    counted per law: twin-a on each pair xy outside the twin pair (u, v),
    twin-b and twin-c on the pairs wv and wu of each third point w.  The
    columns of _twin_law_rows whose pair is a twin pair of some code go
    through in blocks, gathered into scratch.  For each w the planes where
    the labels of wu and wv are 2 (far, twin-c) and 1 (near, twin-b) split
    the twin plane, so twin-b's instances are the rest of (n - 2) twin
    planes.  Counts are weighted by weights, one per lane (popcount)."""
    P, W = twins.shape
    out = {law: _new_counts(W, weights) for law in ("twin-a", "twin-b", "twin-c")}
    twin_a, twin_b, twin_c = out.values()
    total = popcount(twins, weights)
    twin_a.instances = pair_count(n - 2) * total
    flat = lines.reshape(P * n, W)
    groups = _twin_law_rows(n)
    step = _block_rows(n, 6, groups)
    active = np.bitwise_or.reduce(twins, axis=1) != 0
    split, third = (rows[:, active[rows[0]]] for rows in groups)
    at_pair, at_wv, at_vu, at_vv, at_uu, at_uv = ws.scratch(*[(step, W)] * 6)
    for pair, xy_u, xy_v in _blocks(split, step):
        differ = _gather(flat, xy_u, at_vu)
        differ ^= _gather(flat, xy_v, at_vv)
        differ &= _gather(twins, pair, at_pair)
        _flag(twin_a, differ)
    for pair, wv, *on in _blocks(third, step):
        near = _gather(twins, pair, at_pair)
        far = _gather(bits, wv, at_wv)
        far &= near
        twin_c.instances += popcount(far, weights)
        near ^= far
        # the lines of wv and of wu, each at u and at v
        on_vu, on_vv, on_uu, on_uv = (_gather(flat, rows, buf) for rows, buf in
                                      zip(on, (at_vu, at_vv, at_uu, at_uv)))
        inner = on_vv
        inner &= on_uu
        bad_b = np.bitwise_and(on_vu, on_uv, out=on_uu)
        bad_b &= inner
        np.invert(bad_b, out=bad_b)
        bad_b &= near  # near & ~(on_vu & on_vv & on_uu & on_uv)
        _flag(twin_b, bad_b)
        outer = on_vu
        outer |= on_uv
        bad_c = np.invert(inner, out=inner)
        bad_c |= outer
        bad_c &= far  # far & ~(on_vv & on_uu & ~on_vu & ~on_uv)
        _flag(twin_c, bad_c)
    twin_b.instances = (n - 2) * total - twin_c.instances
    return out


def class_law_counts(n: int, bits: np.ndarray, lines: np.ndarray,
                     equal: EqualLines, twin_free: np.ndarray, ws: Workspace,
                     weights: np.ndarray | None
                     ) -> tuple[dict[str, int], dict[str, LawCounts]]:
    """Vector form of classify_class and of the full-cover and class-shape
    laws of structure.law_violations: (class-shape histogram, per-law
    counts), both weighted by weights, one per lane (popcount).

    Two classmates rule out a uniform matching when they share a point or
    differ in label, and also an alternating 4-cycle subset when they share
    a point with equal labels or are disjoint with different labels.  A
    class's shape is its worst conflict.  worst[0, j] is set where edge j
    and its later classmates have a conflict of the first kind, worst[1, j]
    where they have one of the second; walking j downwards, each later
    classmate k of j brings worst[:, k] along, so at a head it covers the
    whole class.  A head's cover joins the points of the edges in the
    column of its equal-line planes.
    """
    P, W = pair_count(n), bits.shape[-1]
    us, vs = _ends(n)
    e = _edge_pairs(n)
    pairs, heads = equal
    worst, cover = ws.scratch((2, P, W), (P, n, W))
    worst[:, P - 1] = 0  # the last edge has no later classmates
    for j in reversed(range(P - 1)):
        rows = _later(j, P)
        eq = pairs[rows]
        differ = bits[j + 1:] ^ bits[j]
        differ &= eq
        found = eq & worst[:, j + 1:]
        found[0] |= differ & e.meet[rows]
        found[1] |= differ ^ (eq & e.meet[rows])
        np.bitwise_or.reduce(found, axis=1, out=worst[:, j])
    alt, other = worst
    hist = {ClassShape.UNIFORM_MATCHING.value: popcount(heads & ~(alt | other), weights),
            ClassShape.ALT_C4_SUBSET.value: popcount(heads & alt & ~other, weights),
            ClassShape.OTHER.value: popcount(heads & other, weights)}

    cover.fill(0)
    cover[np.arange(P), us] = cover[np.arange(P), vs] = ALL
    for k in range(1, P):
        col = pairs[e.columns[k]]
        cover[:k, us[k]] |= col
        cover[:k, vs[k]] |= col
    covers = heads & np.bitwise_and.reduce(cover, axis=1)
    universal = np.bitwise_and.reduce(lines, axis=1)
    laws = {"full-cover": _new_counts(W, weights), "class-shape": _new_counts(W, weights)}
    _tally(laws["full-cover"], covers, ~universal)
    _tally(laws["class-shape"], heads & twin_free, other)
    return hist, laws


def size_bound_counts(twin_free: np.ndarray, universal: np.ndarray,
                      heads: np.ndarray, oversize: np.ndarray,
                      weights: np.ndarray | None) -> LawCounts:
    """Class-size law on twin-free, no-universal codes, one instance per
    class: a code's classes are its set bits in heads, the head planes of
    distinct_counts.  Counts are weighted by weights, one per lane
    (popcount)."""
    applicable = twin_free & ~universal
    cnt = _new_counts(applicable.shape[-1], weights)
    cnt.instances = popcount(heads & applicable, weights)
    _flag(cnt, oversize & applicable)
    return cnt


# _sorted_by_key computes the point keys of this many codes at a time, from
# a (codes, n, n) int64 adjacency tensor: 98 KiB at n = 7, 128 KiB at n = 8
_KEY_CODES = 256

# _least_relabelings relabels at most this many (code, permutation) rows at a
# time.  A row takes its C(n,2) int8 pair sources twice (gathered, then
# transposed) and 41 bytes of int64 and bool temporaries: 83 bytes, 332 KiB
# for a block, at n = 7.  A code with more rows, which only the 5040 of a
# (7, 1)-cell code at n = 8 are, goes alone: 97 bytes a row, 477 KiB.
_RELABEL_ROWS = 1 << 12


def _pair_indices(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """pair_index(x, y, n) of each pair of distinct points, elementwise and
    in place: x becomes the result, y is overwritten."""
    low = np.minimum(x, y)
    np.maximum(x, y, out=y)
    np.subtract(2 * n - 3, low, out=x)
    x *= low
    x >>= 1  # low * (2n - 3 - low) is even
    x += y
    x -= 1
    return x


@cache
def _cell_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The relabel tables of all 2^(n-1) cell patterns, stacked into one
    (columns, C(n,2)) int8 table (3391 columns, 70 KiB, at n = 7; 22,071,
    0.6 MiB, at n = 8), and the first column of each pattern's, with the
    column count appended.  The cells are runs of consecutive points, and
    bit i of cuts is set where a cell ends after point i.  Pattern cuts has
    a column per permutation perm, in itertools order, that maps points
    0..i onto themselves at each cut i, holding pair_index(perm[i], perm[j],
    n) at entry pair_index(i, j, n): bit k of the relabeled code is the
    code's bit at entry k.  One cell, cuts = 0, has no columns (least_codes
    searches it)."""
    perms = np.fromiter(chain.from_iterable(permutations(range(n))), dtype=np.int8,
                        count=factorial(n) * n).reshape(-1, n)
    us, vs = _ends(n)
    every = _pair_indices(n, perms[:, us], perms[:, vs])
    # bit i is set where the permutation maps points 0..i onto themselves
    closed = (np.maximum.accumulate(perms[:, :-1], axis=1) == np.arange(n - 1)) \
        @ (1 << np.arange(n - 1))
    tables = [every[(closed & cuts) == cuts] if cuts else every[:0]
              for cuts in range(1 << n - 1)]
    return np.concatenate(tables), np.cumsum([0] + [len(t) for t in tables])


def _least_relabelings(n: int, codes: np.ndarray,
                       cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 per code: its least relabeling over the _cell_tables columns
    of its cuts, which are not 0, and how many columns give that code.  A
    code has a row per column, and the codes go through in blocks of
    consecutive codes with at most _RELABEL_ROWS rows, or of one code.  A
    block gathers its rows' pair sources in one call, whatever cell patterns
    it spans, and is relabeled one pair bit at a time, in int64; a code's
    least relabeling and tie count are reductions over its rows."""
    table, first = _cell_tables(n)
    rows = np.diff(first)[cuts]
    ends = np.cumsum(rows)
    best, count = np.empty_like(codes), np.empty_like(codes)
    lo = 0
    while lo < codes.size:
        hi = int(np.searchsorted(ends, ends[lo] - rows[lo] + _RELABEL_ROWS, "right"))
        hi = max(hi, lo + 1)
        span = rows[lo:hi]
        starts = np.cumsum(span) - span
        columns = np.repeat(first[cuts[lo:hi]] - starts, span)
        columns += np.arange(columns.size)
        sources = np.take(table, columns, axis=0).T.copy()
        block = np.repeat(codes[lo:hi], span)
        relabeled, bit = np.zeros_like(block), np.empty_like(block)
        for k, source in enumerate(sources):
            np.right_shift(block, source, out=bit)
            bit &= 1
            bit <<= k
            relabeled |= bit
        best[lo:hi] = low = np.minimum.reduceat(relabeled, starts)
        count[lo:hi] = np.add.reduceat(relabeled == np.repeat(low, span), starts)
        lo = hi
    return best, count


# the row of a placed point in a least_codes state, above every prefix
_PLACED = 1 << 60


def _starts(keys: np.ndarray) -> np.ndarray:
    """The indices where the rows of a sorted array change, 0 first."""
    new = np.empty(keys.shape[0], dtype=bool)
    new[:1] = True
    differ = keys[1:] != keys[:-1]
    new[1:] = differ if keys.ndim == 1 else differ.any(axis=1)
    return new.nonzero()[0]


def least_codes(n: int, codes: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The k least distinct relabelings of each code (its whole orbit if
    that is smaller), ascending, one code after another, int64; and per
    code |Aut|, the number of the n! relabelings that give its least.  A
    batch holds at most 2^(60 - C(n,2)) codes: 2^32 at n = 8.

    The bits of position p to later positions outweigh all earlier bits, so
    a search fills the positions from n - 1 down, and the point placed at p
    adds a digit: its labels to the placed points, the first most
    significant.  A state holds a prefix (its code's index, then digits), a
    row per point of its labels to the placed points (_PLACED once placed)
    and how many permutations reach it.  A step extends each state by each
    unplaced point, whose row is its digit, and keeps the children whose
    prefix is among the k least of their code, as those of its k least
    codes are.  Children with equal prefix and rows have equal completions,
    so they merge and add up their counts.  At the end a state is a code,
    and the count of the least is |Aut|: the relabelings that reach a code
    form a coset of the automorphisms."""
    us, vs = _ends(n)
    m = codes.size
    far = np.zeros((m, n, n), dtype=np.int64)  # far[c, u]: u's labels in code c
    far[:, us, vs] = far[:, vs, us] = codes[:, None] >> np.arange(us.size) & 1
    far.reshape(m, n * n)[:, ::n + 1] = _PLACED  # placing u makes its row _PLACED
    # the states after the first step, which places each point
    states = np.empty((m * n, n + 1), dtype=np.int64)  # the prefix, then the rows
    states[:, 0] = group = np.arange(m).repeat(n)  # the index of the code
    states[:, 1:] = far.reshape(m * n, n)
    count = np.ones(m * n, dtype=np.int64)
    for d in range(1, n):  # d points placed, so each row has d bits
        shift = d * (d + 1) // 2  # the digit bits of a child's prefix
        child = states[:, :1] << d | states[:, 1:]
        values = child.flatten()
        values.sort()
        distinct = values[_starts(values)]
        index = distinct >> shift
        rank = np.arange(distinct.size) - index.searchsorted(index)
        kept = distinct[(rank < k) & (distinct < _PLACED)]
        keep = kept[np.minimum(kept.searchsorted(child), kept.size - 1)] == child
        s, u = keep.nonzero()
        states = states[s]
        states[:, 0] = child[s, u]
        rows = states[:, 1:]
        rows <<= 1
        rows |= far[group[s], u]
        np.minimum(rows, _PLACED, out=rows)
        order = np.lexsort(states.T[::-1])  # by prefix, then rows
        states = states[order]
        starts = _starts(states)
        states = states[starts]
        count = np.add.reduceat(count[s[order]], starts)
        group = states[:, 0] >> shift
    return states[:, 0] & (1 << shift) - 1, count[_starts(group)]


def canonical_min(n: int, codes: np.ndarray) -> np.ndarray:
    """int64 per code: its least relabeling (least_codes).  The reports call
    it only on the few classes that reach a least line count or break a
    law: at most 7 codes per call on every real sweep through n = 8.  Warm,
    a call of 1 (7) codes takes about 0.21 (0.45) ms at n = 7, 0.25 (0.6) at 8."""
    check_point_count(n)
    return least_codes(n, codes)[0]


def _sorted_by_key(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per code, the code relabeled with its points sorted by the keys of
    refined_codes, int64, and the cuts of its cells (_cell_tables), uint8:
    all 8 cut bits fit at n = 9.  A key holds, in 10-bit fields, a point's
    number of walks of length 1, 2 and 3, the first highest: its degree,
    the sum of its neighbours' degrees, and the sum of theirs.  Every field
    stays below 2^10 to n = 10: the third is at most 9^3 = 729."""
    us, vs = _ends(n)
    shifts = np.arange(us.size)
    by_key = np.empty_like(codes)
    cuts = np.empty(codes.shape[0], dtype=np.uint8)
    for lo in range(0, codes.shape[0], _KEY_CODES):
        block = codes[lo:lo + _KEY_CODES, None]
        adjacent = np.zeros((block.shape[0], n, n), dtype=np.int64)
        adjacent[:, us, vs] = adjacent[:, vs, us] = 1 - ((block >> shifts) & 1)
        walks = np.ones((block.shape[0], n, 1), dtype=np.int64)
        keys = np.zeros((block.shape[0], n), dtype=np.int64)
        for _ in range(3):
            walks = adjacent @ walks
            keys <<= 10
            keys |= walks[..., 0]
        order = np.argsort(keys, axis=1, kind="stable")
        keys = np.take_along_axis(keys, order, axis=1)
        cuts[lo:lo + _KEY_CODES] = ((keys[:, 1:] != keys[:, :-1])
                                    << np.arange(n - 1)).sum(axis=1)
        sources = _pair_indices(n, order[:, us], order[:, vs])
        by_key[lo:lo + _KEY_CODES] = (((block >> sources) & 1) << shifts).sum(axis=1)
    return by_key, cuts


def refined_codes(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(canonical code, automorphism count) per code, both int64.

    Partition refinement (McKay & Piperno 2014, "Practical graph
    isomorphism, II").  Each point gets a key: its distance-1 degree, the sum
    of its distance-1 neighbours' degrees, and the sum of their second keys.
    The code is relabeled with its points sorted by key, and a cell is a run
    of equal keys.  The canonical code is the least relabeling of that code
    over the permutations that map every cell onto itself (_cell_tables),
    taken once per distinct sorted code.  Where all keys differ, it is the
    sorted code; where all are equal, one cell, it is the least of all n!
    relabelings (least_codes).  Keys are invariant under relabeling, so
    isomorphic codes get one canonical code.  The permutations that reach it
    form a coset of the automorphism group, since every automorphism
    preserves the keys, so their number is |Aut|.  Unlike canonical_min,
    the code need not be the least of its class.
    """
    check_point_count(n)
    by_key, cuts = _sorted_by_key(n, codes)
    # by_key fixes its keys, so its cuts: each distinct one is relabeled once
    canon, inverse = np.unique(by_key, return_inverse=True)
    cut, aut = np.empty(canon.size, dtype=np.uint8), np.ones_like(canon)
    cut[inverse] = cuts
    # the discrete pattern has one relabeling, and one cell is searched
    coarse = (cut != (1 << n - 1) - 1) & (cut != 0)
    canon[coarse], aut[coarse] = _least_relabelings(n, canon[coarse], cut[coarse])
    one_cell = cut == 0
    canon[one_cell], aut[one_cell] = least_codes(n, canon[one_cell])
    return canon[inverse], aut[inverse]


def iso_classes(n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(m, codes, aut) for m = 2, ..., n: one ascending int64 refined code
    (refined_codes) per isomorphism class on m points, and its |Aut|.

    Grown from the two classes on 2 points by one point at a time: each
    class representative on m points is lifted to m + 1 points and joined to
    the new point m in each of the 2^m ways that give m the largest
    distance-1 degree, and the refined codes of these candidates are
    deduplicated by a sort.  Every class is reached: deleting a point of
    largest degree from a space on m + 1 points leaves a relabeling of some
    representative, and one of its joins puts that point at m.  By
    orbit-stabilizer a class has (m + 1)!/|Aut| labeled codes, and each step
    checks that these sum to 2^C(m + 1, 2): a missed or doubled class, or a
    wrong |Aut|, raises RuntimeError.
    """
    check_point_count(n)
    reps = np.arange(2, dtype=np.int64)
    aut = np.full(2, 2, dtype=np.int64)
    yield 2, reps, aut
    for m in range(2, n):
        lifted = np.zeros_like(reps)
        degree = np.full((reps.size, m), m - 1, dtype=np.int8)
        for i, j in iter_pairs(m):
            bit = (reps >> pair_index(i, j, m)) & 1
            lifted |= bit << pair_index(i, j, m + 1)
            degree[:, i] -= bit
            degree[:, j] -= bit
        # far[p, i]: join p puts point i at distance 2 from the new point m
        far = np.arange(1 << m, dtype=np.int64)[:, None] >> np.arange(m) & 1
        joins = (far << [pair_index(i, m, m + 1) for i in range(m)]).sum(axis=1)
        near = (1 - far).astype(np.int8)
        top = (degree[:, None, :] + near).max(axis=2)
        keep = near.sum(axis=1, dtype=np.int8) >= top
        canon, auts = refined_codes(m + 1, (lifted[:, None] | joins)[keep])
        reps, first = np.unique(canon, return_index=True)
        aut = auts[first]
        labeled = int((factorial(m + 1) // aut).sum())
        if labeled != 1 << pair_count(m + 1):
            raise RuntimeError(f"the {reps.size} classes on {m + 1} points have "
                               f"{labeled} labeled codes, not 2^{pair_count(m + 1)}")
        yield m + 1, reps, aut
