"""Definitional reference implementations used as test oracles.

Deliberately dumb and independent of the package's bit tricks: matrices are
lists of lists, lines come straight from the three betweenness equations,
and pair positions are found by counting.  Any agreement between these and
the package is evidence, not circularity.
"""

from itertools import combinations, permutations


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
