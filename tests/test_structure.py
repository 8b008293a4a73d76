"""Twins, edge classes, shape classification, and the law checkers."""

import random
from itertools import combinations

import pytest

from dbelines import all_lines, line_of, space_from_code
from dbelines.bitset import pair_count
from dbelines.structure import (ClassShape, EdgePair, EquivClass, are_twins,
                                check_class_size_bound, check_distinct_lines,
                                check_full_cover_classes,
                                check_twin_free_shapes, check_twin_line_laws,
                                class_size_bound, classify_class,
                                equiv_classes, twin_pairs)

from reference import mask_of, ref_twins, ref_rows_from_code

PATH3 = space_from_code(3, 0b010)
ALL1_4 = space_from_code(4, 0)
ALL2_3 = space_from_code(3, 0b111)
TWIN4 = space_from_code(4, 1)  # d(0,1)=2, all other distances 1
# 1-edges {01,02,23}, 2-edges {03,12,13}: twin-free with a universal line
ALT4 = space_from_code(4, 0b11100)


class TestTwins:
    def test_constructed_twin_pair(self):
        assert are_twins(TWIN4, 0, 1)

    def test_all_one_space_has_no_twins(self):
        assert twin_pairs(ALL1_4) == []

    def test_path_endpoints_are_twins(self):
        assert are_twins(PATH3, 0, 2)
        assert twin_pairs(PATH3) == [(0, 2)]

    def test_all_two_three_points_all_twins(self):
        # every third point sees both at distance 2
        assert twin_pairs(ALL2_3) == [(0, 1), (0, 2), (1, 2)]

    def test_equal_points_rejected(self):
        with pytest.raises(ValueError):
            are_twins(PATH3, 1, 1)

    def test_symmetry_and_reference_agreement(self):
        rng = random.Random(5)
        for n in (3, 4, 5, 6):
            for _ in range(80):
                code = rng.randrange(1 << pair_count(n))
                space = space_from_code(n, code)
                rows = ref_rows_from_code(n, code)
                for u, v in combinations(range(n), 2):
                    got = are_twins(space, u, v)
                    assert got == are_twins(space, v, u)
                    assert got == ref_twins(rows, u, v)

    def test_twin_code_count_n4(self):
        # brute-force sweep: 32 of the 64 codes contain a twin pair
        hits = sum(bool(twin_pairs(space_from_code(4, c))) for c in range(64))
        assert hits == 32


class TestEquivClasses:
    def test_all_one_singletons(self):
        classes = equiv_classes(all_lines(ALL1_4), ALL1_4)
        assert len(classes) == 6
        assert all(len(c.edges) == 1 for c in classes)

    def test_path_single_class(self):
        classes = equiv_classes(all_lines(PATH3), PATH3)
        assert len(classes) == 1
        assert classes[0].edges == (EdgePair(0, 1, 1), EdgePair(0, 2, 2),
                                    EdgePair(1, 2, 1))
        assert classes[0].line == mask_of([0, 1, 2])

    def test_all_two_singletons(self):
        assert [len(c.edges) for c in equiv_classes(all_lines(ALL2_3), ALL2_3)] == [1, 1, 1]

    def test_classes_partition_edges(self):
        rng = random.Random(9)
        for n in (4, 6, 8):
            for _ in range(50):
                space = space_from_code(n, rng.randrange(1 << pair_count(n)))
                classes = equiv_classes(all_lines(space), space)
                edges = [e for c in classes for e in c.edges]
                assert len(edges) == pair_count(n)
                assert len(set(edges)) == pair_count(n)
                for c in classes:
                    for e in c.edges:
                        assert c.line & mask_of([e.u, e.v]) == mask_of([e.u, e.v])

    def test_mismatched_space_rejected(self):
        with pytest.raises(ValueError):
            equiv_classes(all_lines(PATH3), ALL1_4)


class TestClassifyClass:
    def test_singleton_is_matching(self):
        cls = EquivClass((EdgePair(0, 1, 2),), mask_of([0, 1]))
        assert classify_class(ALL1_4, cls) is ClassShape.UNIFORM_MATCHING

    def test_path_class_is_other(self):
        # three edges on three points cannot embed in a 4-cycle
        cls = equiv_classes(all_lines(PATH3), PATH3)[0]
        assert classify_class(PATH3, cls) is ClassShape.OTHER

    def test_two_disjoint_same_label_edges(self):
        cls = EquivClass((EdgePair(0, 1, 1), EdgePair(2, 3, 1)), mask_of([0, 1, 2, 3]))
        assert classify_class(ALL1_4, cls) is ClassShape.UNIFORM_MATCHING

    def test_adjacent_different_labels_is_c4_subset(self):
        classes = equiv_classes(all_lines(ALT4), ALT4)
        shapes = {c.edges: classify_class(ALT4, c) for c in classes}
        pair_class = {c.edges for c in classes if len(c.edges) == 2}
        assert pair_class  # the space does merge some adjacent pairs
        for edges in pair_class:
            assert shapes[edges] is ClassShape.ALT_C4_SUBSET

    def test_alternating_path_of_three_is_c4_subset(self):
        cls = EquivClass((EdgePair(0, 1, 1), EdgePair(1, 2, 2), EdgePair(2, 3, 1)),
                         mask_of([0, 1, 2, 3]))
        assert classify_class(ALL1_4, cls) is ClassShape.ALT_C4_SUBSET

    def test_full_alternating_cycle_is_c4_subset(self):
        cls = EquivClass((EdgePair(0, 1, 1), EdgePair(0, 3, 2), EdgePair(1, 2, 2),
                          EdgePair(2, 3, 1)), mask_of([0, 1, 2, 3]))
        assert classify_class(ALL1_4, cls) is ClassShape.ALT_C4_SUBSET

    def test_disjoint_different_labels_is_other(self):
        cls = EquivClass((EdgePair(0, 1, 1), EdgePair(2, 3, 2)), mask_of([0, 1, 2, 3]))
        assert classify_class(ALL1_4, cls) is ClassShape.OTHER

    def test_adjacent_equal_labels_is_other(self):
        cls = EquivClass((EdgePair(0, 1, 1), EdgePair(1, 2, 1)), mask_of([0, 1, 2]))
        assert classify_class(ALL1_4, cls) is ClassShape.OTHER

    def test_vertex_of_degree_three_is_other(self):
        cls = EquivClass((EdgePair(0, 1, 1), EdgePair(1, 2, 2), EdgePair(1, 3, 1)),
                         mask_of([0, 1, 2, 3]))
        assert classify_class(ALL1_4, cls) is ClassShape.OTHER


class TestDistinctLineLaws:
    def test_all_one_clean(self):
        assert check_distinct_lines(ALL1_4) == []

    def test_all_two_clean(self):
        assert check_distinct_lines(space_from_code(4, 0b111111)) == []

    def test_exhaustive_n5(self):
        for code in range(1 << 10):
            assert check_distinct_lines(space_from_code(5, code)) == []

    def test_small_n_no_instances(self):
        assert check_distinct_lines(space_from_code(2, 1)) == []


class TestTwinLineLaws:
    def test_constructed_twin_space_law_b(self):
        # d(2,1)=1 so the lines of (2,1) and (2,0) must contain both twins
        assert line_of(TWIN4, 2, 1) & mask_of([0, 1]) == mask_of([0, 1])
        assert check_twin_line_laws(TWIN4) == []

    def test_path_law_b(self):
        assert line_of(PATH3, 1, 2) == mask_of([0, 1, 2])
        assert check_twin_line_laws(PATH3) == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_small(self, n):
        for code in range(1 << pair_count(n)):
            assert check_twin_line_laws(space_from_code(n, code)) == []


class TestFullCoverClasses:
    def test_path_class_covers_and_is_universal(self):
        assert check_full_cover_classes(PATH3) == []

    def test_all_one_vacuous(self):
        assert check_full_cover_classes(ALL1_4) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small(self, n):
        for code in range(1 << pair_count(n)):
            assert check_full_cover_classes(space_from_code(n, code)) == []


class TestShapeAndSizeChecks:
    def test_all_one_applicable_and_clean(self):
        res = check_twin_free_shapes(ALL1_4)
        assert res.applicable and res.violations == ()

    def test_path_skipped_for_twins(self):
        res = check_twin_free_shapes(PATH3)
        assert not res.applicable and res.violations == ()

    def test_size_check_needs_no_universal_line(self):
        assert check_class_size_bound(ALL1_4).applicable
        assert not check_class_size_bound(PATH3).applicable      # twins
        assert not check_class_size_bound(ALT4).applicable       # universal line

    def test_size_bound_values(self):
        assert class_size_bound(2) == 4
        assert class_size_bound(7) == 4
        assert class_size_bound(9) == 4
        assert class_size_bound(11) == 5

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_small(self, n):
        for code in range(1 << pair_count(n)):
            space = space_from_code(n, code)
            shape = check_twin_free_shapes(space)
            size = check_class_size_bound(space)
            assert shape.violations == ()
            assert size.violations == ()
            assert shape.applicable == (not twin_pairs(space))
