"""Mask helpers and pair indexing."""

from hypothesis import given
from hypothesis import strategies as st

from dbelines.bitset import (full_mask, iter_pairs, mask_to_points,
                             pair_count, pair_index)

from reference import mask_of


def test_full_mask():
    assert full_mask(1) == 0b1
    assert full_mask(4) == 0b1111


def test_mask_round_trip():
    assert mask_to_points(mask_of([0, 2, 5])) == [0, 2, 5]
    assert mask_to_points(0) == []
    assert mask_to_points(0b1011) == [0, 1, 3]


def test_pair_order_is_lexicographic():
    assert list(iter_pairs(4)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert [pair_index(i, j, 4) for i, j in iter_pairs(4)] == list(range(6))


def test_pair_index_symmetric_args():
    assert pair_index(3, 1, 5) == pair_index(1, 3, 5)


@given(st.integers(2, 12), st.data())
def test_pair_index_round_trip(n, data):
    k = data.draw(st.integers(0, pair_count(n) - 1))
    i, j = list(iter_pairs(n))[k]
    assert 0 <= i < j < n
    assert pair_index(i, j, n) == k
