"""Integer bitmask point sets and lexicographic pair indexing.

A set of points {0, .., n-1} is an int with bit p set for each member p.
Unordered point pairs are numbered lexicographically: (0,1) -> 0, (0,2) -> 1,
..., (n-2,n-1) -> C(n,2)-1.  This is the bit layout of label codes and the
row order of every per-pair table in the package.
"""

from __future__ import annotations

from typing import Iterator

# Largest point count space_from_code decodes.  Masks are Python ints of any
# width, so nothing else is bounded by it.
MAX_BITSET_POINTS = 64


def full_mask(n: int) -> int:
    """Mask with all n points present."""
    return (1 << n) - 1


def mask_to_points(mask: int) -> list[int]:
    """Sorted list of the members of a mask."""
    return [p for p in range(mask.bit_length()) if (mask >> p) & 1]


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int, n: int) -> int:
    """Lexicographic index of the unordered pair {i, j} among C(n,2) pairs."""
    if i > j:
        i, j = j, i
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def iter_pairs(n: int) -> Iterator[tuple[int, int]]:
    """All unordered pairs (i, j), i < j, in lexicographic order."""
    for i in range(n):
        for j in range(i + 1, n):
            yield i, j
