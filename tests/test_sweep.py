"""Vector kernels against the scalar reference implementations."""

import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from dbelines import (OneTwoSpace, all_lines, code_from_space, line_of_fast,
                      space_from_code)
from dbelines.bitset import full_mask, iter_pairs, pair_count, pair_index
from dbelines import sweep as sw
from dbelines.structure import (LAW_ORDER, ClassShape, EdgePair, are_twins,
                                class_size_bound, equiv_classes, law_violations,
                                twin_pairs)

from reference import (family_of, ref_canonical_code, ref_class_shape,
                       ref_law_counts, ref_pair_bit, ref_rows_from_code)


def random_codes(n, count, seed):
    rng = random.Random(seed)
    top = 1 << pair_count(n)
    return np.fromiter((rng.randrange(top) for _ in range(count)),
                       dtype=np.int64, count=count)


def all_codes(n):
    return np.arange(1 << pair_count(n), dtype=np.int64)


def batch(n, codes):
    bits = sw.label_bits(n, codes)
    ones = sw.one_masks(n, bits)
    lines = sw.line_masks(n, bits, ones)
    return bits, ones, lines


def equal_pairs(lines):
    return sw.distinct_counts(lines, True)[1]


class TestDecodeKernels:
    """label_bits and one_masks against the definitional distance rows."""

    @staticmethod
    def check_against_rows(n, codes):
        bits = sw.label_bits(n, codes)
        ones = sw.one_masks(n, bits)
        assert bits.shape == (pair_count(n), codes.size) and bits.dtype == bool
        for ci, code in enumerate(codes):
            rows = ref_rows_from_code(n, int(code))
            for i, j in combinations(range(n), 2):
                assert bits[ref_pair_bit(i, j, n), ci] == (rows[i][j] == 2)
            for p in range(n):
                near = sum(1 << q for q in range(n) if rows[p][q] == 1)
                assert int(ones[p, ci]) == near, (int(code), p)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive(self, n):
        self.check_against_rows(n, all_codes(n))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_random(self, n):
        self.check_against_rows(n, random_codes(n, 300, seed=90 + n))


class TestMaskKernels:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_line_masks_exhaustive(self, n):
        codes = all_codes(n)
        _, ones, lines = batch(n, codes)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            assert tuple(space.adj) == tuple(int(ones[p, ci]) for p in range(n))
            for k, (u, v) in enumerate(iter_pairs(n)):
                assert int(lines[k, ci]) == line_of_fast(space, u, v)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_line_masks_random(self, n):
        codes = random_codes(n, 400, seed=n)
        _, _, lines = batch(n, codes)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            for k, (u, v) in enumerate(iter_pairs(n)):
                assert int(lines[k, ci]) == line_of_fast(space, u, v)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_twin_flags(self, n):
        codes = random_codes(n, 300, seed=20 + n)
        bits, ones, _ = batch(n, codes)
        twins = sw.twin_pair_flags(n, bits, ones)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            for k, (u, v) in enumerate(iter_pairs(n)):
                assert bool(twins[k, ci]) == are_twins(space, u, v)


class TestLineStats:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_counts_against_scalar(self, n):
        codes = random_codes(n, 250, seed=30 + n)
        _, _, lines = batch(n, codes)
        distinct, pairs = sw.distinct_counts(lines, True)
        universal = sw.universal_flags(n, lines)
        oversize = sw.class_size_stats(n, lines, pairs)
        bound = class_size_bound(n)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            family = all_lines(space)
            classes = equiv_classes(family, space)
            sizes = [len(c.edges) for c in classes]
            assert int(distinct[ci]) == family.count
            assert bool(universal[ci]) == family.has_universal
            assert int(oversize[ci]) == sum(s > bound for s in sizes)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_arbitrary_lines_against_grouping(self, n):
        # real codes almost never reach an oversize class; lines drawn from a
        # 3-letter alphabet make large classes common
        rng = np.random.default_rng(80 + n)
        lines = rng.integers(1, 4, size=(pair_count(n), 300), dtype=np.uint8)
        distinct, pairs = sw.distinct_counts(lines, True)
        oversize = sw.class_size_stats(n, lines, pairs)
        bound = class_size_bound(n)
        hits = 0
        for ci in range(lines.shape[1]):
            sizes = Counter(lines[:, ci].tolist())
            assert int(distinct[ci]) == len(sizes)
            assert int(oversize[ci]) == sum(s > bound for s in sizes.values())
            hits += int(oversize[ci]) > 0
        assert hits > 0
        # each edge keeps, for every earlier edge whose line it shares at
        # some code, exactly those codes, ascending
        rows = lines.tolist()
        assert len(pairs) == pair_count(n)
        for k in range(pair_count(n)):
            expected = [(j, [c for c, (a, b) in enumerate(zip(rows[j], rows[k]))
                             if a == b]) for j in range(k)]
            assert [(j, idx.tolist()) for j, idx in pairs[k]] == \
                [(j, idx) for j, idx in expected if idx]
            assert all(idx.dtype == np.int32 for _, idx in pairs[k])
        # the line-only path counts the same and keeps no lists
        plain, kept = sw.distinct_counts(lines, False)
        assert kept is None
        assert np.array_equal(plain, distinct)


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
        for u, v in twin_pairs(space):
            others = [w for w in range(n) if w not in (u, v)]
            inst["twin-a"] += len(others) * (len(others) - 1) // 2
            for w in others:
                inst["twin-b" if d(w, v) == 1 else "twin-c"] += 1
        for law, found in law_violations(space, all_lines(space)).items():
            if law in viol:
                viol[law] += len(found)
    return inst, viol


def corrupt_lines(n, lines, rng, rate=0.05):
    """Copy of lines with about rate of its entries overwritten: half by
    another edge's line of the same code, so that two lines agree, half with
    one point toggled, so that a twin pair's lines split."""
    rows, cols = np.nonzero(rng.random(lines.shape) < rate)
    other = lines[rng.integers(0, lines.shape[0], rows.size), cols]
    toggled = lines[rows, cols] ^ (1 << rng.integers(0, n, rows.size)).astype(np.uint8)
    out = lines.copy()
    out[rows, cols] = np.where(rng.random(rows.size) < 0.5, other, toggled)
    return out


def merge_lines(lines, rng, share=0.5):
    """Copy of lines in which about share of the edges of each code take the
    line of one edge of that code, so that large classes form."""
    P, m = lines.shape
    src = lines[rng.integers(0, P, m), np.arange(m)]
    return np.where(rng.random(lines.shape) < share, src, lines)


class TestLawKernels:
    @pytest.mark.parametrize("n", [4, 5])
    def test_exhaustive_against_scalar(self, n):
        codes = all_codes(n)
        bits, ones, lines = batch(n, codes)
        twins = sw.twin_pair_flags(n, bits, ones)
        counts = sw.distinct_line_counts(n, bits, equal_pairs(lines), twins)
        counts.update(sw.twin_law_counts(n, bits, lines, twins))
        inst, viol = scalar_law_counts(n, codes)
        for law, cnt in counts.items():
            assert cnt.instances == inst[law], law
            assert cnt.violations == viol[law], law
            assert not cnt.bad_codes.any()

    @pytest.mark.parametrize("n", [6, 7])
    def test_random_against_scalar(self, n):
        codes = random_codes(n, 120, seed=40 + n)
        bits, ones, lines = batch(n, codes)
        twins = sw.twin_pair_flags(n, bits, ones)
        counts = sw.distinct_line_counts(n, bits, equal_pairs(lines), twins)
        counts.update(sw.twin_law_counts(n, bits, lines, twins))
        inst, viol = scalar_law_counts(n, codes)
        for law, cnt in counts.items():
            assert cnt.instances == inst[law], law
            assert cnt.violations == viol[law], law

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_corrupted_lines_against_oracle(self, n):
        # real codes break no law, so only corrupted line tables reach the
        # gathers and scatters of the violation paths
        codes = all_codes(n) if n <= 5 else random_codes(n, 300, seed=110 + n)
        bits, ones, lines = batch(n, codes)
        twins = sw.twin_pair_flags(n, bits, ones)
        lines = corrupt_lines(n, lines, np.random.default_rng(120 + n))
        counts = sw.distinct_line_counts(n, bits, equal_pairs(lines), twins)
        counts.update(sw.twin_law_counts(n, bits, lines, twins))
        oracle = [ref_law_counts(n, int(code), lines[:, ci].tolist())
                  for ci, code in enumerate(codes)]
        for law, cnt in counts.items():
            assert cnt.instances == sum(r[law][0] for r in oracle), law
            assert cnt.violations == sum(r[law][1] for r in oracle), law
            assert cnt.violations > 0, law
            assert np.flatnonzero(cnt.bad_codes).tolist() == \
                [ci for ci, r in enumerate(oracle) if r[law][1]], law

    # Code 1 on 4 points has d(0,1) = 2 and every other distance 1: twin
    # pair (0,1), lines 01:{0,1,2,3}, 02 and 12:{0,1,2}, 03 and 13:{0,1,3},
    # 23:{2,3}.  Code 15 on 4 points has d(1,3) = d(2,3) = 1 and every other
    # distance 2: twin pair (1,2), lines 01:{0,1}, 02:{0,2}, 03:{0,3}, and
    # {1,2,3} for 12, 13 and 23.  Code 19 on 5 points has d(0,1) = d(0,2) =
    # d(1,2) = 2 and every other distance 1: twin pairs (0,1), (0,2), (1,2),
    # line 12:{1,2,3,4}.
    @pytest.mark.parametrize("n, code, pair, line, law, violations", [
        # 23 gains 0 but not 1
        (4, 1, (2, 3), 0b1101, "twin-a", 1),
        # 12 loses 0
        (4, 1, (1, 2), 0b0110, "twin-b", 1),
        # 12 gains 0: twin pair (0,1) sees it from 2, twin pair (0,2) from 1
        (5, 19, (1, 2), 0b11111, "twin-c", 2),
        # 23 becomes the line of 02 and of 12; 03 and 13 are not twins
        (4, 1, (2, 3), 0b0111, "adjacent-label1-nontwin", 2),
        # 01 takes the line of 23, whose label differs
        (4, 1, (0, 1), 0b1100, "disjoint-diff-label", 1),
        # 12 takes the line of 01: both labelled 2, sharing point 1
        (4, 15, (1, 2), 0b0011, "adjacent-label2", 1),
    ])
    def test_corrupted_line_fails_one_law(self, n, code, pair, line, law,
                                          violations):
        codes = all_codes(n)
        bits, ones, lines = batch(n, codes)
        twins = sw.twin_pair_flags(n, bits, ones)
        assert twins[:, code].any()
        lines[pair_index(*pair, n), code] = line
        counts = sw.distinct_line_counts(n, bits, equal_pairs(lines), twins)
        counts.update(sw.twin_law_counts(n, bits, lines, twins))
        fired = {name: (cnt.violations, np.flatnonzero(cnt.bad_codes).tolist())
                 for name, cnt in counts.items() if cnt.violations}
        assert fired == {law: (violations, [code])}
        # the scalar pass on the same table; its class laws are not asked
        got = law_violations(space_from_code(n, code),
                             family_of(n, lines[:, code].tolist()))
        assert {name: len(got[name]) for name in counts if got[name]} == \
            {law: violations}

    def test_size_bound_counts(self):
        n = 6
        codes = all_codes(n)
        bits, ones, lines = batch(n, codes)
        distinct, pairs = sw.distinct_counts(lines, True)
        universal = sw.universal_flags(n, lines)
        oversize = sw.class_size_stats(n, lines, pairs)
        twins = sw.twin_pair_flags(n, bits, ones)
        twin_free = ~twins.any(axis=0)
        cnt = sw.size_bound_counts(twin_free, universal, distinct, oversize)
        assert cnt.violations == 0
        applicable = int((twin_free & ~universal).sum())
        assert applicable > 0
        assert cnt.instances == int(distinct[twin_free & ~universal].sum())


def kernel_class_counts(n, codes, lines=None):
    bits, ones, masks = batch(n, codes)
    twin_free = ~sw.twin_pair_flags(n, bits, ones).any(axis=0)
    if lines is None:
        lines = masks
    return sw.class_law_counts(n, bits, lines, equal_pairs(lines), twin_free)


def scalar_class_counts(n, code):
    """(shape histogram, full-cover instances, class-shape instances)."""
    space = space_from_code(n, code)
    classes = equiv_classes(all_lines(space), space)
    hist = {shape.value: 0 for shape in ClassShape}
    cover_inst = 0
    for cls in classes:
        hist[ref_class_shape(cls.edges)] += 1
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

    @staticmethod
    def grouping_oracle(n, code, line_column):
        """(histogram, {law: (instances, violations)}) of one code whose
        edges are grouped by the given lines."""
        space = space_from_code(n, code)
        groups = {}
        for k, (u, v) in enumerate(iter_pairs(n)):
            groups.setdefault(line_column[k], []).append(
                EdgePair(u, v, space.dist(u, v)))
        twin_free = not twin_pairs(space)
        hist = {shape.value: 0 for shape in ClassShape}
        laws = {"full-cover": [0, 0], "class-shape": [0, 0]}
        for line, edges in groups.items():
            shape = ref_class_shape(edges)
            hist[shape] += 1
            cover = 0
            for e in edges:
                cover |= (1 << e.u) | (1 << e.v)
            if cover == full_mask(n):
                laws["full-cover"][0] += 1
                laws["full-cover"][1] += line != full_mask(n)
            if twin_free:
                laws["class-shape"][0] += 1
                laws["class-shape"][1] += shape == "other"
        return hist, {law: tuple(c) for law, c in laws.items()}

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_arbitrary_partitions_against_classify_class(self, n):
        # lines drawn from a 3-letter alphabet split the edges into classes
        # no real space has; the shape of each must still match
        # ref_class_shape (to which classify_class is pinned), and the
        # full-cover and class-shape counts must match the classes.  The full line is one letter, so that covering
        # classes both pass and fail full-cover.
        rng = np.random.default_rng(70 + n)
        codes = random_codes(n, 200, seed=70 + n)
        alphabet = np.array([1, 2, full_mask(n)], dtype=np.uint8)
        lines = alphabet[rng.integers(0, 3, size=(pair_count(n), codes.size))]
        oracle = [self.grouping_oracle(n, int(code), lines[:, ci].tolist())
                  for ci, code in enumerate(codes)]
        for ci, code in enumerate(codes):
            hist, laws = kernel_class_counts(n, codes[ci:ci + 1], lines[:, ci:ci + 1])
            assert hist == oracle[ci][0], int(code)
            assert {law: (cnt.instances, cnt.violations)
                    for law, cnt in laws.items()} == oracle[ci][1], int(code)
        # one batch sums the per-code counts and flags the same codes
        hist, laws = kernel_class_counts(n, codes, lines)
        assert hist == {tag: sum(h[tag] for h, _ in oracle) for tag in hist}
        for law, cnt in laws.items():
            assert cnt.instances == sum(r[law][0] for _, r in oracle), law
            assert cnt.violations == sum(r[law][1] for _, r in oracle), law
            assert cnt.violations > 0, law
            assert np.flatnonzero(cnt.bad_codes).tolist() == \
                [ci for ci, (_, r) in enumerate(oracle) if r[law][1]], law

    def test_corrupted_line_fails_each_law_once(self):
        # Code 3 on 4 points has d(0,1) = d(0,2) = 2 and classes {01,13}
        # (line {0,1,3}), {02,23}, {03}, {12}.  Moving pair (1,2) onto the
        # line of (0,1) gives the class {01,12,13}: it touches all points
        # under a 3-point line, and point 1 has three class edges.
        n = 4
        codes = all_codes(n)
        _, _, lines = batch(n, codes)
        assert int(lines[0, 3]) == 0b1011
        lines[3, 3] = lines[0, 3]
        _, laws = kernel_class_counts(n, codes, lines)
        got = law_violations(space_from_code(n, 3),
                             family_of(n, lines[:, 3].tolist()))
        for law in ("full-cover", "class-shape"):
            assert laws[law].violations == 1, law
            assert np.flatnonzero(laws[law].bad_codes).tolist() == [3], law
            assert [(v.points, v.lines) for v in got[law]] == \
                [((0, 1, 1, 2, 1, 3), (0b1011,))], law


def planted_twin_space(n, rng):
    """Random 1-2 space on n points in which three points share one row of
    distances and are pairwise at distance 2, so three twin pairs exist."""
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.5:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    group = rng.sample(range(n), 3)
    row = adj[group[0]] & ~sum(1 << g for g in group)
    for w in range(n):
        for g in group:
            adj[w] &= ~(1 << g)
            adj[w] |= ((row >> w) & 1) << g
    for g in group:
        adj[g] = row
    return OneTwoSpace(n, tuple(adj))


class TestScalarLawPass:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_corrupted_tables_against_references(self, n):
        # real codes break no law, so only corrupted line tables reach the
        # violation branches of law_violations: its label-law counts must
        # match the oracle code by code, and its class-law counts and
        # violating codes the kernels on the same table
        codes = all_codes(n) if n <= 5 else random_codes(n, 300, seed=130 + n)
        bits, ones, real = batch(n, codes)
        twin_free = ~sw.twin_pair_flags(n, bits, ones).any(axis=0)
        rng = np.random.default_rng(140 + n)
        fired = Counter()
        for lines in (corrupt_lines(n, real, rng), merge_lines(real, rng)):
            found = {law: [] for law in LAW_ORDER}  # violation count per code
            for ci, code in enumerate(codes):
                column = lines[:, ci].tolist()
                got = law_violations(space_from_code(n, int(code)),
                                     family_of(n, column))
                for law in LAW_ORDER:
                    found[law].append(len(got[law]))
                oracle = ref_law_counts(n, int(code), column)
                assert {law: len(got[law]) for law in oracle} == \
                    {law: c[1] for law, c in oracle.items()}, int(code)
            distinct, pairs = sw.distinct_counts(lines, True)
            _, kernel = sw.class_law_counts(n, bits, lines, pairs, twin_free)
            kernel["class-size"] = sw.size_bound_counts(
                twin_free, sw.universal_flags(n, lines), distinct,
                sw.class_size_stats(n, lines, pairs))
            for law, cnt in kernel.items():
                assert cnt.violations == sum(found[law]), law
                assert np.flatnonzero(cnt.bad_codes).tolist() == \
                    [ci for ci, c in enumerate(found[law]) if c], law
            fired.update({law: sum(c) for law, c in found.items()})
        assert all(fired[law] > 0 for law in LAW_ORDER), fired

    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_large_n_against_oracle(self, n):
        # above n = 8 only analyze runs the scalar pass; its six label-law
        # counts must match the oracle on tables with one pair's line copied
        # onto others and on tables with random masks
        rng = random.Random(150 + n)
        P = pair_count(n)
        fired = Counter()
        for _ in range(2):
            space = planted_twin_space(n, rng)
            assert len(twin_pairs(space)) >= 3
            family = all_lines(space)
            real = [family.lines[i] for i in family.pair_line]
            copied, masked = list(real), list(real)
            src = rng.randrange(P)
            for k in rng.sample(range(P), P // 8):
                copied[k] = real[src]
            for k in rng.sample(range(P), P // 10):
                masked[k] = rng.getrandbits(n)
            for column in (copied, masked):
                got = law_violations(space, family_of(n, column))
                oracle = ref_law_counts(n, code_from_space(space), column)
                assert {law: len(got[law]) for law in oracle} == \
                    {law: c[1] for law, c in oracle.items()}
                fired.update({law: len(got[law]) for law in oracle})
        assert len(fired) == 6 and all(fired.values()), fired


class TestCanonicalKernel:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_scalar(self, n):
        codes = random_codes(n, 60, seed=50 + n)
        vec = sw.canonical_min(n, sw.label_bits(n, codes))
        for ci, code in enumerate(codes):
            assert int(vec[ci]) == ref_canonical_code(n, int(code))

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            sw.label_bits(9, np.zeros(1, dtype=np.int64))


def brute_iso_codes(n):
    """The codes that are their own minimum over all n! relabelings."""
    codes = all_codes(n)
    return codes[sw.canonical_min(n, sw.label_bits(n, codes)) == codes]


class TestIsoCodes:
    """sw.iso_codes against the factorial filter and the graph atlas."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_brute_filter(self, n):
        reps = sw.iso_codes(n)
        assert reps.dtype == np.int64
        np.testing.assert_array_equal(reps, brute_iso_codes(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_equals_graph_atlas(self, n):
        # one graph per isomorphism class on up to 7 nodes; an edge is a
        # pair at distance 1, every other pair is at distance 2
        nx = pytest.importorskip("networkx")
        codes = []
        for g in nx.graph_atlas_g():
            if g.number_of_nodes() == n:
                code = (1 << pair_count(n)) - 1
                for i, j in g.edges():
                    code &= ~(1 << ref_pair_bit(min(i, j), max(i, j), n))
                codes.append(code)
        canon = set(sw.canonical_min(
            n, sw.label_bits(n, np.array(codes, dtype=np.int64))).tolist())
        reps = sw.iso_codes(n)
        assert len(canon) == len(codes) == reps.size
        assert set(reps.tolist()) == canon
        assert np.all(np.diff(reps) > 0)
