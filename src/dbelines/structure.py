"""Structure of 1-2 spaces: twins, edge equivalence classes, and the laws.

Two points are twins when they are at distance 2 and every third point sees
them at equal distance.  Writing uv ~ xy when the two pairs have equal lines
partitions the C(n,2) edges of the labeled complete graph into classes.
law_violations checks the nine structural laws those lines and classes obey
in one pass over a space and its line family; every law is expected to hold
on every 1-2 space, and each failure is recorded with the witnessing points,
labels and line masks.
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

    for a, b, c, z in combinations(range(n), 4):
        for (p, q), (r, s) in (((a, b), (c, z)), ((a, c), (b, z)), ((a, z), (b, c))):
            if d[p][q] != d[r][s] and line[p][q] == line[r][s]:
                flag("disjoint-diff-label", (p, q, r, s), (d[p][q], d[r][s]),
                     (line[p][q], line[r][s]))
    for mid in range(n):
        for a, b in combinations([x for x in range(n) if x != mid], 2):
            if d[a][mid] != d[mid][b] or line[a][mid] != line[mid][b]:
                continue
            if d[a][mid] == 2:
                law = "adjacent-label2"
            elif not are_twins(space, a, b):
                law = "adjacent-label1-nontwin"
            else:
                continue
            flag(law, (a, mid, b), (d[a][mid],) * 2, (line[a][mid], line[mid][b]))

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

    fm = full_mask(n)
    for cls in classes:
        cover = 0
        for e in cls.edges:
            cover |= (1 << e.u) | (1 << e.v)
        if cover == fm and cls.line != fm:
            bad["full-cover"].append(_class_violation("full-cover", cls))
    if not tp:
        bad["class-shape"] = [_class_violation("class-shape", cls) for cls in classes
                              if classify_class(space, cls) is ClassShape.OTHER]
        if not family.has_universal:
            bad["class-size"] = [_class_violation("class-size", cls) for cls in classes
                                 if len(cls.edges) > class_size_bound(n)]
    return bad
