"""Definitional reference implementations used as test oracles.

Deliberately dumb and independent of the package's bit tricks: matrices are
lists of lists, lines come straight from the three betweenness equations,
and pair positions are found by counting.  Any agreement between these and
the package is evidence, not circularity.  The helpers at the end build
test inputs and convert the sweep kernels' bit planes to per-code tables;
they are not oracles.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import numpy as np


@cache  # counting stays the definition; the cache keeps n = 30 affordable
def ref_pair_bit(i: int, j: int, n: int) -> int:
    """Position of {i, j} among lexicographic pairs, found by counting."""
    if i > j:
        i, j = j, i
    k = 0
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) == (i, j):
                return k
            k += 1
    raise ValueError((i, j, n))


def ref_rows_from_code(n: int, code: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = 2 if (code >> ref_pair_bit(i, j, n)) & 1 else 1
            rows[i][j] = rows[j][i] = d
    return rows


def ref_line(rows, u: int, v: int) -> frozenset:
    pts = set()
    duv = rows[u][v]
    for p in range(len(rows)):
        if (rows[p][u] + duv == rows[p][v]
                or rows[u][p] + rows[p][v] == duv
                or duv + rows[v][p] == rows[u][p]):
            pts.add(p)
    return frozenset(pts)


def ref_all_lines(rows):
    """(deduplicated line list, {pair: line index})."""
    n = len(rows)
    order: list[frozenset] = []
    seen: dict[frozenset, int] = {}
    pair_line: dict[tuple[int, int], int] = {}
    for u, v in combinations(range(n), 2):
        line = ref_line(rows, u, v)
        if line not in seen:
            seen[line] = len(order)
            order.append(line)
        pair_line[(u, v)] = seen[line]
    return order, pair_line


def ref_twins(rows, u: int, v: int) -> bool:
    if rows[u][v] != 2:
        return False
    n = len(rows)
    return all(rows[u][w] == rows[v][w] for w in range(n) if w not in (u, v))


def ref_dbe(rows):
    """(distinct line count, has universal, property holds)."""
    n = len(rows)
    order, _ = ref_all_lines(rows)
    universal = any(len(line) == n for line in order)
    return len(order), universal, len(order) >= n or universal


def ref_law_counts(n: int, code: int, line_column) -> dict[str, tuple[int, int]]:
    """Per-law (instances, violations) of the six label laws on one code,
    with the line of pair {i, j} read from line_column[ref_pair_bit(i, j, n)]
    rather than computed, so that a corrupted line table can be checked."""
    rows = ref_rows_from_code(n, code)
    counts = {law: [0, 0] for law in (
        "disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin",
        "twin-a", "twin-b", "twin-c")}

    def line(i, j):
        return line_column[ref_pair_bit(i, j, n)]

    def on(p, i, j):
        return (line(i, j) >> p) & 1 == 1

    def count(law, bad):
        counts[law][0] += 1
        counts[law][1] += int(bad)

    for e, f in combinations(combinations(range(n), 2), 2):
        same = line(*e) == line(*f)
        le, lf = rows[e[0]][e[1]], rows[f[0]][f[1]]
        if not set(e) & set(f):
            if le != lf:
                count("disjoint-diff-label", same)
        elif le == lf == 2:
            count("adjacent-label2", same)
        elif le == lf == 1 and not ref_twins(rows, *(set(e) ^ set(f))):
            count("adjacent-label1-nontwin", same)
    for u, v in combinations(range(n), 2):
        if not ref_twins(rows, u, v):
            continue
        others = [w for w in range(n) if w not in (u, v)]
        for x, y in combinations(others, 2):
            count("twin-a", on(u, x, y) != on(v, x, y))
        for w in others:
            if rows[w][v] == 1:
                count("twin-b", not (on(u, w, v) and on(v, w, v)
                                     and on(u, w, u) and on(v, w, u)))
            else:
                count("twin-c", not (on(v, w, v) and not on(u, w, v)
                                     and on(u, w, u) and not on(v, w, u)))
    return {law: tuple(c) for law, c in counts.items()}


def ref_class_shape(edges) -> str:
    """Shape of a class of (u, v, label) edges, by definition.

    A uniform matching is one label on pairwise-disjoint edges.  An
    alternating 4-cycle subset places its points on the 4 positions of a
    cycle, in some order and label phase, so that every edge is a cycle edge
    carrying that edge's alternating label.  Matchings win when both hold.
    """
    ends = [p for u, v, _ in edges for p in (u, v)]
    if len({label for _, _, label in edges}) == 1 and len(ends) == len(set(ends)):
        return "uniform_matching"
    points = sorted(set(ends))
    for pos in permutations(range(4), len(points)):
        at = dict(zip(points, pos))
        for phase in (1, 2):
            cycle = {frozenset((i, (i + 1) % 4)): phase if i % 2 == 0 else 3 - phase
                     for i in range(4)}
            if all(cycle.get(frozenset((at[u], at[v]))) == label
                   for u, v, label in edges):
                return "alt_c4_subset"
    return "other"


def ref_canonical_code(n: int, code: int) -> int:
    """Minimum label code over all n! relabelings, by brute force."""
    rows = ref_rows_from_code(n, code)
    bit = {(i, j): ref_pair_bit(i, j, n) for i, j in combinations(range(n), 2)}
    best = None
    for perm in permutations(range(n)):
        relabeled = 0
        for (i, j), k in bit.items():
            if rows[perm[i]][perm[j]] == 2:
                relabeled |= 1 << k
        if best is None or relabeled < best:
            best = relabeled
    return best


def ref_least_relabelings(n: int, codes) -> tuple[np.ndarray, np.ndarray]:
    """(least relabeling, automorphism count) of each of a 1-d array of
    codes, int64, by brute force over all n! permutations, one permutation
    at a time with every code at once: the permutation moves the bit of
    pair (i, j) to the bit of pair (perm[i], perm[j]), and an automorphism
    gives the code back."""
    codes = np.asarray(codes, dtype=np.int64)
    pairs = list(combinations(range(n), 2))
    bits = np.array([(codes >> ref_pair_bit(i, j, n)) & 1 for i, j in pairs])
    least = np.full(codes.shape, np.iinfo(np.int64).max)
    aut = np.zeros(codes.shape, dtype=np.int64)
    for perm in permutations(range(n)):
        moved = [ref_pair_bit(perm[i], perm[j], n) for i, j in pairs]
        relabeled = (bits << np.array(moved)[:, None]).sum(axis=0)
        np.minimum(least, relabeled, out=least)
        aut += relabeled == codes
    return least, aut


def mask_of(points) -> int:
    """Mask from an iterable of point indices."""
    m = 0
    for p in points:
        m |= 1 << p
    return m


def random_metric(rng, n: int):
    """Random rational metric space from the generator random-metrics runs."""
    from dbelines.spaces import MetricSpace
    from dbelines.verify import _COMMON_DENOM, _draw_int_rows
    return MetricSpace.from_rows([Fraction(x, _COMMON_DENOM) for x in row]
                                 for row in _draw_int_rows(rng, n))


def family_of(n: int, column):
    """LineFamily of an arbitrary per-pair line list (corrupted or not),
    deduplicated in first-seen order as all_lines does."""
    from dbelines.lines import LineFamily
    order = list(dict.fromkeys(column))
    return LineFamily(n, tuple(order), tuple(order.index(m) for m in column),
                      (1 << n) - 1 in order)


# A bit plane is a (W,) uint64 array holding one bit per code: bit c % 64 of
# word c // 64 belongs to code c.  These converters shift, so they read no
# bytes and share no code with the package's packing.

def lanes(planes, m: int) -> np.ndarray:
    """bool (..., m): bit c of each plane of (..., W) planes, for c < m."""
    planes = np.asarray(planes, dtype=np.uint64)
    bits = (planes[..., None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(*planes.shape[:-1], -1)[..., :m].astype(bool)


def planes_of(flags) -> np.ndarray:
    """(..., ceil(m / 64)) planes of a bool (..., m) table; bits past m clear."""
    flags = np.asarray(flags, dtype=bool)
    m = flags.shape[-1]
    padded = np.zeros((*flags.shape[:-1], 64 * -(-m // 64)), dtype=np.uint64)
    padded[..., :m] = flags
    words = padded.reshape(*flags.shape[:-1], -1, 64) << np.arange(64, dtype=np.uint64)
    return np.bitwise_or.reduce(words, axis=-1)


def mask_table(planes, m: int) -> np.ndarray:
    """uint8 (..., m) point masks of (..., n, W) planes, n <= 8: bit w of
    entry c is bit c of plane [..., w]."""
    flags = lanes(planes, m)
    weights = np.left_shift(1, np.arange(flags.shape[-2]))[:, None]
    return (flags * weights).sum(axis=-2).astype(np.uint8)


def mask_planes(table, n: int) -> np.ndarray:
    """(..., n, W) planes of a (..., m) table of point masks on n points."""
    table = np.asarray(table)
    return planes_of((table[..., None, :] >> np.arange(n)[:, None]) & 1)
