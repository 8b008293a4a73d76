"""Structure of 1-2 spaces: twins, edge equivalence classes, and law checkers.

Two points are twins when they are at distance 2 and every third point sees
them at equal distance.  Writing uv ~ xy when the two pairs have equal lines
partitions the C(n,2) edges of the labeled complete graph into classes; the
checkers below verify the structural laws those classes obey.  Each checker
returns violation records (expected empty on every 1-2 space); violations
carry the witnessing points, labels and line masks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .bitset import full_mask, iter_pairs, pair_index
from .lines import LineFamily, all_lines, line_of_fast
from .spaces import OneTwoSpace


class EdgePair(NamedTuple):
    """An edge u < v of the complete graph with its distance label."""

    u: int
    v: int
    label: int


@dataclass(frozen=True)
class EquivClass:
    """Edges sharing one line, plus that line's point-set mask."""

    edges: tuple[EdgePair, ...]
    line: int


class ClassShape(enum.Enum):
    UNIFORM_MATCHING = "uniform_matching"
    ALT_C4_SUBSET = "alt_c4_subset"
    OTHER = "other"


@dataclass(frozen=True)
class Violation:
    """One failed law instance: which law, on which points, with evidence."""

    law: str
    points: tuple[int, ...]
    labels: tuple[int, ...]
    lines: tuple[int, ...]


@dataclass(frozen=True)
class ShapeCheckResult:
    """Violations plus whether the check's hypothesis applied at all."""

    applicable: bool
    violations: tuple[Violation, ...]


def are_twins(space: OneTwoSpace, u: int, v: int) -> bool:
    """True iff d(u,v) = 2 and u, v have identical distance-1 neighborhoods."""
    if u == v:
        raise ValueError("twins are two distinct points")
    au = space.adj[u]
    if (au >> v) & 1:
        return False
    return au == space.adj[v]


def twin_pairs(space: OneTwoSpace) -> list[tuple[int, int]]:
    """All twin pairs (u, v), u < v, lexicographically sorted."""
    return [(u, v) for u, v in iter_pairs(space.n) if are_twins(space, u, v)]


def equiv_classes(family: LineFamily, space: OneTwoSpace) -> list[EquivClass]:
    """Partition the edges by shared line, in first-seen line order."""
    if family.n != space.n:
        raise ValueError("family and space disagree on point count")
    buckets: list[list[EdgePair]] = [[] for _ in family.lines]
    for idx, (u, v) in zip(family.pair_line, iter_pairs(space.n)):
        buckets[idx].append(EdgePair(u, v, space.dist(u, v)))
    return [EquivClass(tuple(edges), family.lines[idx])
            for idx, edges in enumerate(buckets)]


def _is_uniform_matching(edges: tuple[EdgePair, ...]) -> bool:
    if len({e.label for e in edges}) > 1:
        return False
    seen: set[int] = set()
    for e in edges:
        if e.u in seen or e.v in seen:
            return False
        seen.update((e.u, e.v))
    return True


def _is_alt_c4_subset(edges: tuple[EdgePair, ...]) -> bool:
    # Embeddable into a 4-cycle whose labels alternate around it: at most
    # 4 edges on at most 4 points, no point on more than 2 class edges, and
    # labels alternate along the class itself (edges sharing a point differ,
    # vertex-disjoint edges agree).  Cycle edges outside the class are
    # unconstrained; with two labels this forces a consistent alternation.
    if not 1 <= len(edges) <= 4:
        return False
    degree: dict[int, int] = {}
    for e in edges:
        degree[e.u] = degree.get(e.u, 0) + 1
        degree[e.v] = degree.get(e.v, 0) + 1
    if len(degree) > 4 or max(degree.values()) > 2:
        return False
    for e, f in combinations(edges, 2):
        shared = {e.u, e.v} & {f.u, f.v}
        if shared and e.label == f.label:
            return False
        if not shared and e.label != f.label:
            return False
    return True


def classify_class(space: OneTwoSpace, cls: EquivClass) -> ClassShape:
    """Shape of a class; matchings win when both predicates hold."""
    if _is_uniform_matching(cls.edges):
        return ClassShape.UNIFORM_MATCHING
    if _is_alt_c4_subset(cls.edges):
        return ClassShape.ALT_C4_SUBSET
    return ClassShape.OTHER


def _pair_lines(space: OneTwoSpace) -> list[int]:
    return [line_of_fast(space, u, v) for u, v in iter_pairs(space.n)]


def check_distinct_lines(space: OneTwoSpace) -> list[Violation]:
    """Laws forcing distinct lines from labels.

    disjoint-diff-label:      edges on 4 distinct points with different
                              labels have different lines;
    adjacent-label2:          edges sharing a point, both labeled 2,
                              have different lines;
    adjacent-label1-nontwin:  edges sharing a point, both labeled 1, have
                              different lines unless the outer points are
                              twins.

    The 4-distinct-points restriction on the first law is essential: a
    3-point path has equal lines on overlapping pairs with labels 1 and 2.
    """
    n = space.n
    lines = _pair_lines(space)
    bad: list[Violation] = []
    for quad in combinations(range(n), 4):
        a, b, c, d = quad
        for (p, q) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            lp, lq = space.dist(*p), space.dist(*q)
            if lp != lq:
                mp, mq = lines[pair_index(*p, n)], lines[pair_index(*q, n)]
                if mp == mq:
                    bad.append(Violation("disjoint-diff-label", p + q, (lp, lq), (mp, mq)))
    for mid in range(n):
        rest = [x for x in range(n) if x != mid]
        for a, b in combinations(rest, 2):
            la, lb = space.dist(a, mid), space.dist(mid, b)
            if la != lb:
                continue
            ma, mb = lines[pair_index(a, mid, n)], lines[pair_index(mid, b, n)]
            if la == 2 and ma == mb:
                bad.append(Violation("adjacent-label2", (a, mid, b), (2, 2), (ma, mb)))
            elif la == 1 and ma == mb and not are_twins(space, a, b):
                bad.append(Violation("adjacent-label1-nontwin", (a, mid, b), (1, 1), (ma, mb)))
    return bad


def check_twin_line_laws(space: OneTwoSpace) -> list[Violation]:
    """Line membership laws at a twin pair u, v.

    twin-a: a line defined by two points outside {u,v} contains both of
            u, v or neither;
    twin-b: d(w,v) = 1 forces both u, v onto the lines of (w,v) and (w,u);
    twin-c: d(w,v) = 2 forces v and not u onto the line of (w,v), and
            u and not v onto the line of (w,u).
    """
    n = space.n
    tp = twin_pairs(space)
    if not tp:
        return []
    lines = _pair_lines(space)
    bad: list[Violation] = []
    for u, v in tp:
        others = [w for w in range(n) if w != u and w != v]
        for x, y in combinations(others, 2):
            m = lines[pair_index(x, y, n)]
            if ((m >> u) & 1) != ((m >> v) & 1):
                bad.append(Violation("twin-a", (u, v, x, y), (space.dist(x, y),), (m,)))
        both = (1 << u) | (1 << v)
        for w in others:
            mwv = lines[pair_index(w, v, n)]
            mwu = lines[pair_index(w, u, n)]
            if space.dist(w, v) == 1:
                if (mwv & both) != both or (mwu & both) != both:
                    bad.append(Violation("twin-b", (u, v, w), (1,), (mwv, mwu)))
            else:
                ok = ((mwv >> v) & 1 and not (mwv >> u) & 1
                      and (mwu >> u) & 1 and not (mwu >> v) & 1)
                if not ok:
                    bad.append(Violation("twin-c", (u, v, w), (2,), (mwv, mwu)))
    return bad


def _class_violation(law: str, cls: EquivClass) -> Violation:
    return Violation(law, tuple(p for e in cls.edges for p in (e.u, e.v)),
                     tuple(e.label for e in cls.edges), (cls.line,))


def check_full_cover_classes(space: OneTwoSpace) -> list[Violation]:
    """A class whose edges touch every point must have a universal line."""
    fm = full_mask(space.n)
    bad: list[Violation] = []
    for cls in equiv_classes(all_lines(space), space):
        cover = 0
        for e in cls.edges:
            cover |= (1 << e.u) | (1 << e.v)
        if cover == fm and cls.line != fm:
            bad.append(_class_violation("full-cover", cls))
    return bad


def check_twin_free_shapes(space: OneTwoSpace) -> ShapeCheckResult:
    """On twin-free spaces every class must be a matching or an alternating
    4-cycle subset; skipped (not applicable) when the space has twins."""
    if twin_pairs(space):
        return ShapeCheckResult(False, ())
    return ShapeCheckResult(True, tuple(
        _class_violation("class-shape", cls)
        for cls in equiv_classes(all_lines(space), space)
        if classify_class(space, cls) is ClassShape.OTHER))


def class_size_bound(n: int) -> int:
    """Largest legal class size on a twin-free space with no universal line."""
    return max((n - 1) // 2, 4)


def check_class_size_bound(space: OneTwoSpace) -> ShapeCheckResult:
    """Class sizes on twin-free spaces without a universal line stay within
    class_size_bound; skipped otherwise."""
    if twin_pairs(space):
        return ShapeCheckResult(False, ())
    family = all_lines(space)
    if family.has_universal:
        return ShapeCheckResult(False, ())
    bound = class_size_bound(space.n)
    return ShapeCheckResult(True, tuple(
        _class_violation("class-size", cls)
        for cls in equiv_classes(family, space) if len(cls.edges) > bound))
