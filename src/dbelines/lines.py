"""Lines of finite metric spaces and the De Bruijn-Erdos verdict.

The line of a pair u, v is the set of points p satisfying one of the three
exact betweenness equations

    d(p,u) + d(u,v) = d(p,v)   (u between p and v)
    d(u,p) + d(p,v) = d(u,v)   (p between u and v)
    d(u,v) + d(v,p) = d(u,p)   (v between u and p)

so a line always contains its defining pair.  line_of evaluates this
definition literally with exact arithmetic on any space; line_of_fast is the
word-level closed form for 1-2 spaces.  A space on n >= 2 points has the
De Bruijn-Erdos property when it has at least n distinct lines or a line
containing every point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import full_mask, iter_pairs, pair_index
from .spaces import OneTwoSpace


def line_of(space, u: int, v: int) -> int:
    """Point-set mask of the line of u, v, from the definition."""
    if u == v:
        raise ValueError("a line needs distinct defining points")
    ru = space.row(u)
    rv = space.row(v)
    duv = ru[v]
    mask = 0
    for p in range(space.n):
        a = ru[p]
        b = rv[p]
        if a + duv == b or a + b == duv or duv + b == a:
            mask |= 1 << p
    return mask


def line_of_fast(space: OneTwoSpace, u: int, v: int) -> int:
    """Closed form for 1-2 spaces, equal to line_of on the implied matrix.

    d(u,v)=2: only "p between u,v" can hold, requiring d(u,p)=d(p,v)=1,
    so the line is {u,v} plus the common distance-1 neighborhood.
    d(u,v)=1: a point joins iff its two distances are 1 and 2 in some
    order, i.e. the symmetric difference of the neighborhoods.
    """
    if u == v:
        raise ValueError("a line needs distinct defining points")
    au = space.adj[u]
    av = space.adj[v]
    base = (1 << u) | (1 << v)
    if (au >> v) & 1:
        return base | (au ^ av)
    return base | (au & av)


@dataclass(frozen=True)
class LineFamily:
    """Deduplicated lines of a space plus the pair -> line index map.

    lines holds pairwise-distinct point-set masks in first-seen order over
    lexicographic pairs; pair_line[k] is the index into lines for the k-th
    pair.  has_universal records whether some line is the whole point set.
    """

    n: int
    lines: tuple[int, ...]
    pair_line: tuple[int, ...]
    has_universal: bool

    def line_index(self, u: int, v: int) -> int:
        return self.pair_line[pair_index(u, v, self.n)]

    @property
    def count(self) -> int:
        return len(self.lines)

    def verdict(self) -> DbeVerdict:
        """De Bruijn-Erdos verdict: >= n distinct lines or a universal line."""
        holds = self.count >= self.n or self.has_universal
        return DbeVerdict(self.count, self.has_universal, holds)


def all_lines(space) -> LineFamily:
    """Compute and deduplicate the lines of every pair; n >= 2 required."""
    n = space.n
    if n < 2:
        raise ValueError("lines need at least 2 points")
    fast = isinstance(space, OneTwoSpace)
    fm = full_mask(n)
    index_of: dict[int, int] = {}
    order: list[int] = []
    pair_line: list[int] = []
    universal = False
    for u, v in iter_pairs(n):
        m = line_of_fast(space, u, v) if fast else line_of(space, u, v)
        idx = index_of.get(m)
        if idx is None:
            idx = len(order)
            index_of[m] = idx
            order.append(m)
            if m == fm:
                universal = True
        pair_line.append(idx)
    return LineFamily(n, tuple(order), tuple(pair_line), universal)


@dataclass(frozen=True)
class DbeVerdict:
    """Line count, universal-line flag, and whether the property holds."""

    line_count: int
    has_universal: bool
    holds: bool


def dbe_verdict(space) -> DbeVerdict:
    """De Bruijn-Erdos verdict: >= n distinct lines or a universal line."""
    return all_lines(space).verdict()
