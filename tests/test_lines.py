"""Line engine: betweenness, line computation, deduplication, verdicts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbelines import (MetricSpace, all_lines, dbe_verdict, line_of,
                      line_of_fast, mask_to_points, space_from_code)
from dbelines.bitset import iter_pairs, pair_count

from reference import mask_of, random_metric, ref_line, ref_rows_from_code

PATH3 = space_from_code(3, 0b010)
ALL1_4 = space_from_code(4, 0)
ALL2_3 = space_from_code(3, 0b111)


def codes_strategy(n):
    return st.integers(0, (1 << pair_count(n)) - 1)


class TestLineOf:
    def test_path_line_includes_far_point(self):
        assert line_of(PATH3, 0, 1) == mask_of([0, 1, 2])

    def test_all_two_line_is_its_pair(self):
        assert line_of(ALL2_3, 0, 1) == mask_of([0, 1])

    def test_five_point_block_line_is_everything(self):
        # fixed block: d(u,w)=d(u,x)=d(v,w)=d(v,x)=1, d(u,v)=d(w,x)=2,
        # d(u,y)=d(w,y)=1, d(v,y)=d(x,y)=2; the line of (u,x) spans the block
        u, v, w, x, y = range(5)
        rows = [[0] * 5 for _ in range(5)]
        for a, b, val in [(u, w, 1), (u, x, 1), (v, w, 1), (v, x, 1),
                          (u, v, 2), (w, x, 2), (u, y, 1), (w, y, 1),
                          (v, y, 2), (x, y, 2)]:
            rows[a][b] = rows[b][a] = val
        space = MetricSpace.from_rows(rows)
        assert line_of(space, u, x) == mask_of([u, v, w, x, y])
        assert line_of(space, v, w) == mask_of([u, v, w, x, y])

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            line_of(PATH3, 2, 2)

    def test_general_rational_distances(self):
        space = MetricSpace.from_rows([
            [0, 1, 2],
            [1, 0, Fraction(3, 2)],
            [2, Fraction(3, 2), 0],
        ])
        # 0-1-2 is not a geodesic (1 + 3/2 != 2), so the line of (0,2) has
        # no third point
        assert line_of(space, 0, 2) == mask_of([0, 2])


class TestLineOfFast:
    def test_path_distance_two_pair(self):
        assert line_of_fast(PATH3, 0, 2) == mask_of([0, 1, 2])

    def test_all_one_pair_line(self):
        assert line_of_fast(ALL1_4, 0, 1) == mask_of([0, 1])

    def test_all_two_pair_line(self):
        assert line_of_fast(ALL2_3, 0, 1) == mask_of([0, 1])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_definition_exhaustively(self, n):
        for code in range(1 << pair_count(n)):
            space = space_from_code(n, code)
            rows = ref_rows_from_code(n, code)
            for u, v in iter_pairs(n):
                got = set(mask_to_points(line_of_fast(space, u, v)))
                assert got == set(ref_line(rows, u, v)), (n, code, u, v)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_definition_random(self, n):
        rng = random.Random(n)
        for _ in range(300):
            code = rng.randrange(1 << pair_count(n))
            space = space_from_code(n, code)
            for u, v in iter_pairs(n):
                assert line_of_fast(space, u, v) == line_of(space, u, v)


class TestAllLines:
    def test_path_space_single_line(self):
        family = all_lines(PATH3)
        assert family.count == 1
        assert family.lines == (mask_of([0, 1, 2]),)
        assert family.pair_line == (0, 0, 0)

    def test_all_one_has_six_pair_lines(self):
        family = all_lines(ALL1_4)
        assert family.count == 6
        assert all(line == mask_of(pair)
                   for pair, line in zip(iter_pairs(4), family.lines))

    def test_all_two_has_three_pair_lines(self):
        assert all_lines(ALL2_3).count == 3

    def test_lines_are_deduplicated_and_cover_pairs(self):
        rng = random.Random(71)
        for n in (3, 5, 7):
            for _ in range(100):
                family = all_lines(space_from_code(n, rng.randrange(1 << pair_count(n))))
                assert len(set(family.lines)) == len(family.lines)
                assert len(family.pair_line) == pair_count(n)
                for u, v in iter_pairs(n):
                    line = family.lines[family.line_index(u, v)]
                    assert line & mask_of([u, v]) == mask_of([u, v])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            all_lines(space_from_code(1, 0))


class TestUniversalAndVerdict:
    def test_is_universal(self):
        assert all_lines(PATH3).has_universal
        assert not all_lines(ALL1_4).has_universal
        assert all_lines(space_from_code(2, 0)).has_universal

    @pytest.mark.parametrize("code", [0, 1])
    def test_two_points_always_hold(self, code):
        v = dbe_verdict(space_from_code(2, code))
        assert (v.line_count, v.has_universal, v.holds) == (1, True, True)

    def test_all_one_four_points(self):
        v = dbe_verdict(ALL1_4)
        assert v.line_count == 6 and v.holds and not v.has_universal

    def test_path_space(self):
        v = dbe_verdict(PATH3)
        assert (v.line_count, v.has_universal, v.holds) == (1, True, True)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            dbe_verdict(space_from_code(1, 0))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_verdict_field_invariant(self, n, data):
        code = data.draw(codes_strategy(n))
        space = space_from_code(n, code)
        v = dbe_verdict(space)
        assert v.holds == (v.line_count >= n or v.has_universal)


class TestLineProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_endpoints_and_symmetry_one_two(self, n, data):
        code = data.draw(codes_strategy(n))
        space = space_from_code(n, code)
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u))
        line = line_of_fast(space, u, v)
        assert line == line_of_fast(space, v, u)
        assert line & mask_of([u, v]) == mask_of([u, v])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10**9))
    def test_endpoints_and_symmetry_general(self, n, seed):
        space = random_metric(random.Random(seed), n)
        for u, v in iter_pairs(n):
            line = line_of(space, u, v)
            assert line == line_of(space, v, u)
            assert line & mask_of([u, v]) == mask_of([u, v])

    def test_fast_path_beyond_word_half_width(self):
        # the documented bitmask guarantee covers at least 32 points
        n = 33
        rng = random.Random(33)
        adj = [0] * n
        for i, j in iter_pairs(n):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        from dbelines import OneTwoSpace
        space = OneTwoSpace(n, tuple(adj))
        for u, v in [(0, 32), (5, 31), (0, 1)]:
            assert line_of_fast(space, u, v) == line_of(space, u, v)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10**9),
           st.integers(1, 40), st.integers(1, 12))
    def test_scaling_preserves_lines_and_verdict(self, n, seed, num, den):
        space = random_metric(random.Random(seed), n)
        factor = Fraction(num, den)
        scaled = MetricSpace.from_rows([x * factor for x in row]
                                       for row in space.matrix.rows)
        for u, v in iter_pairs(n):
            assert line_of(space, u, v) == line_of(scaled, u, v)
        assert dbe_verdict(space) == dbe_verdict(scaled)
