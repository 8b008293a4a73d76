"""Exact finite metric spaces and the 1-2 specialization.

All distances are exact rationals (int or fractions.Fraction); nothing here
ever rounds.  A 1-2 space (every nonzero distance 1 or 2) is stored as one
distance-1 adjacency bitmask per point and is interchangeable with an
integer label code: bit k of the code is 1 iff the k-th lexicographic pair
is at distance 2, so code 0 is the all-1 space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .bitset import MAX_BITSET_POINTS, full_mask, iter_pairs, pair_index

Rational = Union[int, Fraction]


class MatrixFormatError(ValueError):
    """Malformed distance-matrix text or an ill-shaped row table."""


class MetricAxiomError(ValueError):
    """A metric axiom fails; `axiom` names it and `witness` holds the indices."""

    def __init__(self, axiom: str, witness: tuple[int, ...], message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class NotOneTwoError(ValueError):
    """An off-diagonal distance is neither 1 nor 2."""

    def __init__(self, pair: tuple[int, int], value: Rational):
        super().__init__(f"distance {value} at pair {pair} is not 1 or 2")
        self.pair = pair
        self.value = value


@dataclass(frozen=True)
class DistanceMatrix:
    """Square table of exact nonnegative rationals, not yet metric-checked."""

    n: int
    rows: tuple[tuple[Rational, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "DistanceMatrix":
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0:
            raise MatrixFormatError("matrix has no rows")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise MatrixFormatError(f"row {i} has {len(row)} entries, expected {n}")
            for j, x in enumerate(row):
                if not isinstance(x, (int, Fraction)):
                    raise MatrixFormatError(f"entry ({i},{j}) is not an exact rational: {x!r}")
                if x < 0:
                    raise MatrixFormatError(f"negative entry {x} at ({i},{j})")
        return cls(n, rows)


@dataclass(frozen=True)
class MetricSpace:
    """A DistanceMatrix certified by validate_metric; build it through that."""

    matrix: DistanceMatrix

    @property
    def n(self) -> int:
        return self.matrix.n

    def dist(self, i: int, j: int) -> Rational:
        return self.matrix.rows[i][j]

    def row(self, i: int):
        return self.matrix.rows[i]

    @classmethod
    def from_rows(cls, rows) -> "MetricSpace":
        return validate_metric(DistanceMatrix.from_rows(rows))


@dataclass(frozen=True)
class OneTwoSpace:
    """Metric space with all nonzero distances in {1, 2}.

    adj[p] is the bitmask of points at distance 1 from p.  Any symmetric,
    loop-free adjacency yields a valid metric (2 <= 1 + 1), so construction
    only checks shape.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"point count {self.n} is below 1")
        if len(self.adj) != self.n:
            raise ValueError("adjacency list length differs from point count")
        fm = full_mask(self.n)
        for p, m in enumerate(self.adj):
            if m & ~fm:
                raise ValueError(f"adjacency mask of point {p} has bits >= n")
            if (m >> p) & 1:
                raise ValueError(f"point {p} adjacent to itself")
        for i, j in iter_pairs(self.n):
            if ((self.adj[i] >> j) & 1) != ((self.adj[j] >> i) & 1):
                raise ValueError(f"asymmetric adjacency at pair ({i},{j})")

    def dist(self, i: int, j: int) -> int:
        if i == j:
            return 0
        return 1 if (self.adj[i] >> j) & 1 else 2

    def row(self, i: int) -> list[int]:
        a = self.adj[i]
        r = [1 if (a >> j) & 1 else 2 for j in range(self.n)]
        r[i] = 0
        return r


def _parse_rational(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixFormatError(f"non-numeric token {token!r}") from exc


def parse_distance_matrix(text: str) -> DistanceMatrix:
    """Parse matrix-file text: first line n, then n rows of n exact entries.

    Entries may be integers, exact decimals ("1.5" -> 3/2) or "p/q" rationals.
    Lines starting with '#' and blank lines are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MatrixFormatError("empty input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise MatrixFormatError(f"first line must be the point count, got {lines[0]!r}") from exc
    if n < 1:
        raise MatrixFormatError(f"point count must be >= 1, got {n}")
    if len(lines) - 1 != n:
        raise MatrixFormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    return DistanceMatrix.from_rows([_parse_rational(t) for t in ln.split()]
                                    for ln in lines[1:])


def serialize_distance_matrix(matrix: DistanceMatrix) -> str:
    """Matrix-file text that parses back to an equal matrix."""
    out = [str(matrix.n)]
    for row in matrix.rows:
        out.append(" ".join(str(Fraction(x)) for x in row))
    return "\n".join(out) + "\n"


def validate_metric(matrix: DistanceMatrix) -> MetricSpace:
    """Certify all four metric axioms, or raise with the witnessing indices."""
    n, rows = matrix.n, matrix.rows
    for i in range(n):
        if rows[i][i] != 0:
            raise MetricAxiomError(
                "zero-diagonal", (i,), f"d({i},{i}) = {rows[i][i]} != 0")
    for i, j in iter_pairs(n):
        if rows[i][j] != rows[j][i]:
            raise MetricAxiomError(
                "symmetry", (i, j), f"d({i},{j}) = {rows[i][j]} != d({j},{i}) = {rows[j][i]}")
    for i, j in iter_pairs(n):
        if rows[i][j] <= 0:
            raise MetricAxiomError(
                "positivity", (i, j), f"d({i},{j}) = {rows[i][j]} is not positive")
    if all(rows[i][j] in (1, 2) for i, j in iter_pairs(n)):
        return MetricSpace(matrix)  # d(i,k) <= 2 <= d(i,j) + d(j,k)
    for i, k in iter_pairs(n):
        for j in range(n):
            if j == i or j == k:
                continue
            if rows[i][k] > rows[i][j] + rows[j][k]:
                raise MetricAxiomError(
                    "triangle", (i, j, k),
                    f"d({i},{k}) = {rows[i][k]} > d({i},{j}) + d({j},{k}) = "
                    f"{rows[i][j]} + {rows[j][k]}")
    return MetricSpace(matrix)


def as_one_two(space: MetricSpace) -> OneTwoSpace:
    """View a metric space as a 1-2 space, or raise NotOneTwoError."""
    n = space.n
    adj = [0] * n
    for i, j in iter_pairs(n):
        d = space.dist(i, j)
        if d == 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        elif d != 2:
            raise NotOneTwoError((i, j), d)
    return OneTwoSpace(n, tuple(adj))


def space_from_code(n: int, code: int) -> OneTwoSpace:
    """Decode a label code: bit k(i,j) set means d(i,j) = 2, clear means 1."""
    if not 1 <= n <= MAX_BITSET_POINTS:
        raise ValueError(f"point count {n} outside [1, {MAX_BITSET_POINTS}]")
    if not 0 <= code < (1 << (n * (n - 1) // 2)):
        raise ValueError(f"label code {code} out of range for n={n}")
    adj = [0] * n
    for i, j in iter_pairs(n):
        if not (code >> pair_index(i, j, n)) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return OneTwoSpace(n, tuple(adj))


def code_from_space(space: OneTwoSpace) -> int:
    """Encode a 1-2 space; exact inverse of space_from_code."""
    code = 0
    for i, j in iter_pairs(space.n):
        if not (space.adj[i] >> j) & 1:
            code |= 1 << pair_index(i, j, space.n)
    return code
