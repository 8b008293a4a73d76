"""Structure of 1-2 spaces: twins, edge equivalence classes, and the laws.

Two points are twins when they are at distance 2 and every third point sees
them at equal distance.  Writing uv ~ xy when the two pairs have equal lines
partitions the C(n,2) edges of the labeled complete graph into classes.
law_violations checks the nine structural laws those lines and classes obey
in one pass over a space and its line family; every law is expected to hold
on every 1-2 space, and each failure is recorded with the witnessing points,
labels and line masks.  A distinct-line law says two edges have different
lines, so it can only fail between classmates: the pass walks the edge pairs
of each class and never the edge pairs of the whole space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .bitset import full_mask, iter_pairs
from .lines import LineFamily
from .spaces import OneTwoSpace

LAW_ORDER = ("disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin",
             "twin-a", "twin-b", "twin-c",
             "full-cover", "class-shape", "class-size")


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


def classify_class(space: OneTwoSpace, cls: EquivClass) -> ClassShape:
    """Shape of a class: the worst conflict between two of its edges.

    Two classmates rule out a uniform matching when they share a point or
    differ in label, and also an alternating 4-cycle subset when they share
    a point with equal labels or are disjoint with different labels.  With
    no worse conflict the label-1 and label-2 edges form two matchings, each
    edge of one meeting each edge of the other, which fits on a 4-cycle.
    """
    shape = ClassShape.UNIFORM_MATCHING
    for e, f in combinations(cls.edges, 2):
        meet = bool({e.u, e.v} & {f.u, f.v})
        if meet == (e.label == f.label):
            return ClassShape.OTHER
        if meet:
            shape = ClassShape.ALT_C4_SUBSET
    return shape


def class_size_bound(n: int) -> int:
    """Largest legal class size on a twin-free space with no universal line."""
    return max((n - 1) // 2, 4)


def _class_violation(law: str, cls: EquivClass) -> Violation:
    return Violation(law, tuple(p for e in cls.edges for p in (e.u, e.v)),
                     tuple(e.label for e in cls.edges), (cls.line,))


def law_violations(space: OneTwoSpace,
                   family: LineFamily) -> dict[str, list[Violation]]:
    """Every failed instance of the nine laws, keyed by law in LAW_ORDER.

    The line of each pair and the edge classes are read from family, which
    is normally all_lines(space); any other table is checked as given.
    The distinct-line laws are read from the edge pairs of each class, so
    their violations come in class order, then edge-pair order.

    Lines forced distinct by labels:
      disjoint-diff-label:      edges on 4 distinct points with different
                                labels have different lines;
      adjacent-label2:          edges sharing a point, both labeled 2,
                                have different lines;
      adjacent-label1-nontwin:  edges sharing a point, both labeled 1, have
                                different lines unless the outer points are
                                twins.
      The 4-distinct-points restriction on the first law is essential: a
      3-point path has equal lines on overlapping pairs with labels 1 and 2.
    Line membership at a twin pair u, v:
      twin-a: a line defined by two points outside {u,v} contains both of
              u, v or neither;
      twin-b: d(w,v) = 1 forces both u, v onto the lines of (w,v) and (w,u);
      twin-c: d(w,v) = 2 forces v and not u onto the line of (w,v), and
              u and not v onto the line of (w,u).
    Edge classes:
      full-cover:   a class whose edges touch every point has a universal
                    line;
      class-shape:  on a twin-free space every class is a uniform matching
                    or an alternating 4-cycle subset (classify_class);
      class-size:   on a twin-free space without a universal line no class
                    has more than class_size_bound(n) edges.
    """
    n = space.n
    classes = equiv_classes(family, space)
    d = [space.row(p) for p in range(n)]
    line = [[0] * n for _ in range(n)]
    for (u, v), idx in zip(iter_pairs(n), family.pair_line):
        line[u][v] = line[v][u] = family.lines[idx]
    bad: dict[str, list[Violation]] = {law: [] for law in LAW_ORDER}

    def flag(law, points, labels, masks):
        bad[law].append(Violation(law, points, labels, masks))

    fm = full_mask(n)
    for cls in classes:
        cover = 0
        for e in cls.edges:
            cover |= (1 << e.u) | (1 << e.v)
        if cover == fm and cls.line != fm:
            bad["full-cover"].append(_class_violation("full-cover", cls))
        for e, f in combinations(cls.edges, 2):
            mid = {e.u, e.v} & {f.u, f.v}
            if not mid:
                if e.label != f.label:
                    flag("disjoint-diff-label", (e.u, e.v, f.u, f.v),
                         (e.label, f.label), (cls.line,) * 2)
            elif e.label == f.label:
                a, b = sorted({e.u, e.v, f.u, f.v} - mid)
                law = "adjacent-label2" if e.label == 2 else "adjacent-label1-nontwin"
                if e.label == 2 or not are_twins(space, a, b):
                    flag(law, (a, *mid, b), (e.label,) * 2, (cls.line,) * 2)

    tp = twin_pairs(space)
    for u, v in tp:
        others = [w for w in range(n) if w != u and w != v]
        for x, y in combinations(others, 2):
            m = line[x][y]
            if ((m >> u) & 1) != ((m >> v) & 1):
                flag("twin-a", (u, v, x, y), (d[x][y],), (m,))
        both = (1 << u) | (1 << v)
        for w in others:
            on_v, on_u = line[w][v] & both, line[w][u] & both
            if d[w][v] == 1:
                if on_v != both or on_u != both:
                    flag("twin-b", (u, v, w), (1,), (line[w][v], line[w][u]))
            elif on_v != 1 << v or on_u != 1 << u:
                flag("twin-c", (u, v, w), (2,), (line[w][v], line[w][u]))

    if not tp:
        bad["class-shape"] = [_class_violation("class-shape", cls) for cls in classes
                              if classify_class(space, cls) is ClassShape.OTHER]
        if not family.has_universal:
            bad["class-size"] = [_class_violation("class-size", cls) for cls in classes
                                 if len(cls.edges) > class_size_bound(n)]
    return bad
