"""Twins, edge classes, shape classification, and the scalar law pass."""

import random
from itertools import combinations, product

import pytest

from dbelines import all_lines, line_of, space_from_code
from dbelines.bitset import full_mask, pair_count
from dbelines.structure import (LAW_ORDER, ClassShape, EdgePair, EquivClass,
                                are_twins, class_size_bound, classify_class,
                                equiv_classes, law_violations, twin_pairs)

from reference import (family_of, mask_of, ref_class_shape, ref_twins,
                       ref_rows_from_code)

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

    def test_every_labeled_edge_set_on_5_points(self):
        # each of the 10 edges absent or labeled 1 or 2: 3^10 - 1 classes,
        # against the definitional shapes (classify_class reads only edges)
        space = space_from_code(5, 0)
        pairs = list(combinations(range(5), 2))
        checked = 0
        for labels in product((0, 1, 2), repeat=len(pairs)):
            edges = tuple(EdgePair(u, v, label)
                          for (u, v), label in zip(pairs, labels) if label)
            if edges:
                cls = EquivClass(edges, full_mask(5))
                assert classify_class(space, cls).value == ref_class_shape(edges), edges
                checked += 1
        assert checked == 59048


def violations(space, family=None):
    """law_violations of a space, on its own lines unless family is given."""
    got = law_violations(space, family or all_lines(space))
    assert list(got) == list(LAW_ORDER)
    return got


def found(space, laws, family=None):
    """Violation count of the given laws."""
    got = violations(space, family)
    return sum(len(got[law]) for law in laws)


DISTINCT = ("disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin")
TWIN = ("twin-a", "twin-b", "twin-c")


class TestDistinctLineLaws:
    def test_all_one_clean(self):
        assert found(ALL1_4, DISTINCT) == 0

    def test_all_two_clean(self):
        assert found(space_from_code(4, 0b111111), DISTINCT) == 0

    def test_exhaustive_n5(self):
        for code in range(1 << 10):
            assert found(space_from_code(5, code), DISTINCT) == 0

    def test_small_n_no_instances(self):
        assert found(space_from_code(2, 1), DISTINCT) == 0


class TestTwinLineLaws:
    def test_constructed_twin_space_law_b(self):
        # d(2,1)=1 so the lines of (2,1) and (2,0) must contain both twins
        assert line_of(TWIN4, 2, 1) & mask_of([0, 1]) == mask_of([0, 1])
        assert found(TWIN4, TWIN) == 0

    def test_path_law_b(self):
        assert line_of(PATH3, 1, 2) == mask_of([0, 1, 2])
        assert found(PATH3, TWIN) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_small(self, n):
        for code in range(1 << pair_count(n)):
            assert found(space_from_code(n, code), TWIN) == 0


class TestFullCoverClasses:
    def test_path_class_covers_and_is_universal(self):
        assert found(PATH3, ["full-cover"]) == 0
        # the same class under a 2-point line breaks the law
        bad = violations(PATH3, family_of(3, [0b011] * 3))["full-cover"]
        assert [(v.points, v.labels, v.lines) for v in bad] == \
            [((0, 1, 0, 2, 1, 2), (1, 2, 1), (0b011,))]

    def test_all_one_vacuous(self):
        assert found(ALL1_4, ["full-cover"]) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small(self, n):
        for code in range(1 << pair_count(n)):
            assert found(space_from_code(n, code), ["full-cover"]) == 0


class TestShapeAndSizeChecks:
    def test_all_one_applicable_and_clean(self):
        assert found(ALL1_4, ["class-shape", "class-size"]) == 0
        # twin-free with no universal line: both laws apply, so one
        # 6-edge class on a 3-point line breaks both
        column = [mask_of([0, 1, 2])] * 6
        got = violations(ALL1_4, family_of(4, column))
        assert [len(got[law]) for law in ("class-shape", "class-size")] == [1, 1]

    def test_path_skipped_for_twins(self):
        # the path's one class is of neither legal shape, but it has twins
        cls = equiv_classes(all_lines(PATH3), PATH3)[0]
        assert classify_class(PATH3, cls) is ClassShape.OTHER
        assert found(PATH3, ["class-shape", "class-size"]) == 0

    def test_size_check_needs_no_universal_line(self):
        one_class = [mask_of([0, 1, 2])] * 6
        assert found(ALL1_4, ["class-size"], family_of(4, one_class)) == 1
        assert found(TWIN4, ["class-size"], family_of(4, one_class)) == 0  # twins
        # a universal line elsewhere lifts the bound
        universal = one_class[:5] + [full_mask(4)]
        assert found(ALL1_4, ["class-size"], family_of(4, universal)) == 0
        assert found(ALL1_4, ["class-shape"], family_of(4, universal)) == 1

    def test_size_bound_values(self):
        assert class_size_bound(2) == 4
        assert class_size_bound(7) == 4
        assert class_size_bound(9) == 4
        assert class_size_bound(11) == 5

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_small(self, n):
        for code in range(1 << pair_count(n)):
            space = space_from_code(n, code)
            assert found(space, LAW_ORDER) == 0
