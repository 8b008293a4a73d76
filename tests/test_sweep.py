"""Vector kernels against the scalar reference implementations."""

import random
from itertools import combinations

import numpy as np
import pytest

from dbelines import (ClassShape, EdgePair, EquivClass, all_lines, are_twins,
                      check_distinct_lines, check_twin_line_laws,
                      class_size_bound, classify_class, equiv_classes,
                      line_of_fast, space_from_code, twin_pairs)
from dbelines.bitset import full_mask, iter_pairs, pair_count
from dbelines import sweep as sw

from reference import ref_canonical_code


def random_codes(n, count, seed):
    rng = random.Random(seed)
    top = 1 << pair_count(n)
    return np.fromiter((rng.randrange(top) for _ in range(count)),
                       dtype=np.int64, count=count)


def all_codes(n):
    return np.arange(1 << pair_count(n), dtype=np.int64)


def batch(n, codes):
    ones = sw.one_masks(n, codes)
    lines = sw.line_masks(n, codes, ones)
    return ones, lines


class TestMaskKernels:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_line_masks_exhaustive(self, n):
        codes = all_codes(n)
        ones, lines = batch(n, codes)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            assert tuple(space.adj) == tuple(int(ones[p, ci]) for p in range(n))
            for k, (u, v) in enumerate(iter_pairs(n)):
                assert int(lines[k, ci]) == line_of_fast(space, u, v)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_line_masks_random(self, n):
        codes = random_codes(n, 400, seed=n)
        _, lines = batch(n, codes)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            for k, (u, v) in enumerate(iter_pairs(n)):
                assert int(lines[k, ci]) == line_of_fast(space, u, v)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_twin_flags(self, n):
        codes = random_codes(n, 300, seed=20 + n)
        ones = sw.one_masks(n, codes)
        twins = sw.twin_pair_flags(n, codes, ones)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            for k, (u, v) in enumerate(iter_pairs(n)):
                assert bool(twins[k, ci]) == are_twins(space, u, v)


class TestLineStats:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_counts_against_scalar(self, n):
        codes = random_codes(n, 250, seed=30 + n)
        _, lines = batch(n, codes)
        srt = sw.sorted_lines(lines)
        distinct = sw.distinct_counts(srt)
        universal = sw.universal_flags(n, lines)
        max_class, oversize = sw.class_size_stats(n, srt)
        bound = class_size_bound(n)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            family = all_lines(space)
            classes = equiv_classes(family, space)
            sizes = [len(c.edges) for c in classes]
            assert int(distinct[ci]) == family.count
            assert bool(universal[ci]) == family.has_universal
            assert int(max_class[ci]) == max(sizes)
            assert int(oversize[ci]) == sum(s > bound for s in sizes)


def scalar_law_counts(n, codes):
    """Instance/violation counts recomputed edge by edge in plain Python."""
    inst = {law: 0 for law in ("disjoint-diff-label", "adjacent-label2",
                               "adjacent-label1-nontwin", "twin-a", "twin-b",
                               "twin-c")}
    viol = dict(inst)
    for code in codes:
        space = space_from_code(n, int(code))
        d = space.dist
        for quad in combinations(range(n), 4):
            a, b, c, e = quad
            for p, q in (((a, b), (c, e)), ((a, c), (b, e)), ((a, e), (b, c))):
                if d(*p) != d(*q):
                    inst["disjoint-diff-label"] += 1
        for mid in range(n):
            for a, b in combinations([x for x in range(n) if x != mid], 2):
                if d(a, mid) == d(mid, b) == 2:
                    inst["adjacent-label2"] += 1
                if d(a, mid) == d(mid, b) == 1 and not are_twins(space, a, b):
                    inst["adjacent-label1-nontwin"] += 1
        for v in check_distinct_lines(space):
            viol[v.law] += 1
        for u, v in twin_pairs(space):
            others = [w for w in range(n) if w not in (u, v)]
            inst["twin-a"] += len(others) * (len(others) - 1) // 2
            for w in others:
                inst["twin-b" if d(w, v) == 1 else "twin-c"] += 1
        for v in check_twin_line_laws(space):
            viol[v.law] += 1
    return inst, viol


class TestLawKernels:
    @pytest.mark.parametrize("n", [4, 5])
    def test_exhaustive_against_scalar(self, n):
        codes = all_codes(n)
        ones, lines = batch(n, codes)
        bits = sw.label_bits(n, codes)
        twins = sw.twin_pair_flags(n, codes, ones)
        counts = sw.distinct_line_counts(n, bits, lines, twins)
        counts.update(sw.twin_law_counts(n, bits, lines, twins))
        inst, viol = scalar_law_counts(n, codes)
        for law, cnt in counts.items():
            assert cnt.instances == inst[law], law
            assert cnt.violations == viol[law], law
            assert not cnt.bad_codes.any()

    @pytest.mark.parametrize("n", [6, 7])
    def test_random_against_scalar(self, n):
        codes = random_codes(n, 120, seed=40 + n)
        ones, lines = batch(n, codes)
        bits = sw.label_bits(n, codes)
        twins = sw.twin_pair_flags(n, codes, ones)
        counts = sw.distinct_line_counts(n, bits, lines, twins)
        counts.update(sw.twin_law_counts(n, bits, lines, twins))
        inst, viol = scalar_law_counts(n, codes)
        for law, cnt in counts.items():
            assert cnt.instances == inst[law], law
            assert cnt.violations == viol[law], law

    def test_size_bound_counts(self):
        n = 6
        codes = all_codes(n)
        ones, lines = batch(n, codes)
        srt = sw.sorted_lines(lines)
        distinct = sw.distinct_counts(srt)
        universal = sw.universal_flags(n, lines)
        _, oversize = sw.class_size_stats(n, srt)
        twins = sw.twin_pair_flags(n, codes, ones)
        twin_free = ~twins.any(axis=0)
        cnt = sw.size_bound_counts(twin_free, universal, distinct, oversize)
        assert cnt.violations == 0
        applicable = int((twin_free & ~universal).sum())
        assert applicable > 0
        assert cnt.instances == int(distinct[twin_free & ~universal].sum())


def kernel_class_counts(n, codes, lines=None):
    ones, masks = batch(n, codes)
    twin_free = ~sw.twin_pair_flags(n, codes, ones).any(axis=0)
    return sw.class_law_counts(n, sw.label_bits(n, codes),
                               masks if lines is None else lines, twin_free)


def scalar_class_counts(n, code):
    """(shape histogram, full-cover instances, class-shape instances)."""
    space = space_from_code(n, code)
    classes = equiv_classes(all_lines(space), space)
    hist = {shape.value: 0 for shape in ClassShape}
    cover_inst = 0
    for cls in classes:
        hist[classify_class(space, cls).value] += 1
        cover = 0
        for e in cls.edges:
            cover |= (1 << e.u) | (1 << e.v)
        cover_inst += cover == full_mask(n)
    shape_inst = 0 if twin_pairs(space) else len(classes)
    return hist, cover_inst, shape_inst


class TestClassLawKernel:
    @staticmethod
    def check_per_code(n, codes):
        for code in codes:
            hist, laws = kernel_class_counts(n, np.array([code], dtype=np.int64))
            cover, shape = laws["full-cover"], laws["class-shape"]
            assert (hist, cover.instances, shape.instances) == \
                scalar_class_counts(n, int(code)), int(code)
            assert cover.violations == shape.violations == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_against_scalar(self, n):
        self.check_per_code(n, all_codes(n))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_random_against_scalar(self, n):
        codes = random_codes(n, 150, seed=60 + n)
        self.check_per_code(n, codes)
        # batching sums the per-code counts
        hist, laws = kernel_class_counts(n, codes)
        per_code = [scalar_class_counts(n, int(c)) for c in codes]
        assert hist == {tag: sum(h[tag] for h, _, _ in per_code) for tag in hist}
        assert laws["full-cover"].instances == sum(c for _, c, _ in per_code)
        assert laws["class-shape"].instances == sum(s for _, _, s in per_code)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_arbitrary_partitions_against_classify_class(self, n):
        # lines drawn from a 3-letter alphabet split the edges into classes
        # no real space has; the shape of each must still match classify_class
        rng = np.random.default_rng(70 + n)
        codes = random_codes(n, 200, seed=70 + n)
        lines = rng.integers(1, 4, size=(pair_count(n), codes.size), dtype=np.uint8)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            groups = {}
            for k, (u, v) in enumerate(iter_pairs(n)):
                groups.setdefault(int(lines[k, ci]), []).append(
                    EdgePair(u, v, space.dist(u, v)))
            expected = {shape.value: 0 for shape in ClassShape}
            for line, edges in groups.items():
                expected[classify_class(space, EquivClass(tuple(edges), line)).value] += 1
            hist, _ = kernel_class_counts(n, codes[ci:ci + 1], lines[:, ci:ci + 1])
            assert hist == expected, int(code)

    def test_corrupted_line_fails_each_law_once(self):
        # Code 3 on 4 points has d(0,1) = d(0,2) = 2 and classes {01,13}
        # (line {0,1,3}), {02,23}, {03}, {12}.  Moving pair (1,2) onto the
        # line of (0,1) gives the class {01,12,13}: it touches all points
        # under a 3-point line, and point 1 has three class edges.
        n = 4
        codes = all_codes(n)
        _, lines = batch(n, codes)
        assert int(lines[0, 3]) == 0b1011
        lines[3, 3] = lines[0, 3]
        _, laws = kernel_class_counts(n, codes, lines)
        for law in ("full-cover", "class-shape"):
            assert laws[law].violations == 1, law
            assert np.flatnonzero(laws[law].bad_codes).tolist() == [3], law


class TestCanonicalKernel:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_scalar(self, n):
        codes = random_codes(n, 60, seed=50 + n)
        vec = sw.canonical_min(n, codes)
        for ci, code in enumerate(codes):
            assert int(vec[ci]) == ref_canonical_code(n, int(code))

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            sw.one_masks(9, np.zeros(1, dtype=np.int64))
