"""Vector kernels against the scalar reference implementations."""

import random
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbelines import (OneTwoSpace, all_lines, code_from_space, line_of_fast,
                      space_from_code)
from dbelines.bitset import full_mask, iter_pairs, pair_count, pair_index
from dbelines import sweep as sw
from dbelines.verify import CHUNK_CODES
from dbelines.structure import (LAW_ORDER, ClassShape, EdgePair, are_twins,
                                class_size_bound, equiv_classes, law_violations,
                                twin_pairs)

from reference import (family_of, lanes, mask_planes, mask_table, planes_of,
                       ref_canonical_code, ref_class_shape, ref_law_counts,
                       ref_least_relabelings, ref_pair_bit, ref_rows_from_code)


def random_codes(n, count, seed):
    rng = random.Random(seed)
    top = 1 << pair_count(n)
    return np.fromiter((rng.randrange(top) for _ in range(count)),
                       dtype=np.int64, count=count)


def all_codes(n):
    return np.arange(1 << pair_count(n), dtype=np.int64)


def batch(n, codes):
    ws = sw.Workspace()
    bits = sw.label_bits(n, codes, ws)
    ones = sw.one_masks(n, bits, ws)
    lines = sw.line_masks(n, bits, ones, ws)
    return bits, ones, lines


def equal_lines(lines, m):
    """The equal-line planes of a batch of m codes."""
    return sw.distinct_counts(lines, sw.valid_plane(m), sw.Workspace())[1]


def twin_free_plane(n, bits, ones, m):
    twins = sw.twin_pair_flags(n, bits, ones, sw.Workspace())
    return sw.valid_plane(m) & ~np.bitwise_or.reduce(twins, axis=0)


class TestPlaneHelpers:
    """The plane helpers of the sweep against the test converters."""

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 200])
    def test_round_trips(self, m):
        rng = np.random.default_rng(m)
        flags = rng.random((3, m)) < 0.3
        planes = planes_of(flags)
        assert planes.shape == (3, -(-m // 64)) and planes.dtype == np.uint64
        assert np.array_equal(lanes(planes, m), flags)
        for plane, row in zip(planes, flags):
            assert np.array_equal(sw.unpack(plane)[:m], row)
            assert not sw.unpack(plane)[m:].any()
            assert sw.popcount(plane, None) == row.sum()
        assert np.array_equal(lanes(sw.valid_plane(m), 64 * planes.shape[1]),
                              np.arange(64 * planes.shape[1]) < m)
        table = rng.integers(0, 256, (4, m), dtype=np.uint8)
        assert np.array_equal(mask_table(mask_planes(table, 8), m), table)

    @pytest.mark.parametrize("m", [0, 1, 63, 65, 200])
    def test_weighted_popcount_sums_lane_weights(self, m):
        # one weight per lane, up to 8!, and 0 past the batch, whose bits
        # are set here too; a (2, 3, W) array, its first row and first
        # plane, W = 0 for the empty batch, and 300 full planes, more than
        # a uint8 lane count holds
        rng = np.random.default_rng(m)
        width = 64 * -(-m // 64)
        weights = np.zeros(width, dtype=np.int64)
        weights[:m] = rng.integers(1, factorial(8) + 1, m)
        weights[:1] = factorial(8)
        flags = rng.random((2, 3, width)) < 0.4
        planes = planes_of(flags)
        full = np.ones((2, 150, width), dtype=bool)
        cases = [(planes, flags), (planes[0], flags[0]), (planes[0, 0], flags[0, 0]),
                 (planes[:, 1:], flags[:, 1:]), (planes_of(full), full)]
        for plane, bits in cases:
            # the per-lane counter against the flags and a direct unpack
            leading = tuple(range(plane.ndim - 1))
            direct = np.unpackbits(plane.astype("<u8").view(np.uint8), axis=-1,
                                   bitorder="little").sum(axis=leading)
            per_lane = sw.lane_counts(plane)
            assert np.array_equal(per_lane, bits.sum(axis=leading))
            assert np.array_equal(per_lane, direct)
            want = sum(int(weights[c]) * int(bits[..., c].sum()) for c in range(width))
            assert sw.popcount(plane, weights) == want == int(per_lane @ weights)
        # None counts each bit once
        assert sw.popcount(planes, None) == flags.sum()


class TestDecodeKernels:
    """label_bits and one_masks against the definitional distance rows."""

    @staticmethod
    def check_against_rows(n, codes):
        ws = sw.Workspace()
        bits = sw.label_bits(n, codes, ws)
        ones = sw.one_masks(n, bits, ws)
        W = -(-codes.size // 64)
        assert bits.shape == (pair_count(n), W) and bits.dtype == np.uint64
        assert ones.shape == (n, n, W) and ones.dtype == np.uint64
        labels, near = lanes(bits, 64 * W), lanes(ones, 64 * W)
        # the lanes past the batch read as code 0, the all-1 space
        assert not labels[:, codes.size:].any()
        for ci, code in enumerate(codes):
            rows = ref_rows_from_code(n, int(code))
            for i, j in combinations(range(n), 2):
                assert labels[ref_pair_bit(i, j, n), ci] == (rows[i][j] == 2)
            for p in range(n):
                for q in range(n):
                    assert near[p, q, ci] == (rows[p][q] == 1), (int(code), p, q)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive(self, n):
        self.check_against_rows(n, all_codes(n))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_random(self, n):
        self.check_against_rows(n, random_codes(n, 300, seed=90 + n))

    def test_high_codes_of_a_word(self):
        # codes 32..63 of each word take the high half of the packed word
        n = 8
        codes = random_codes(n, 128, seed=98) | (1 << 27)
        self.check_against_rows(n, codes)


class TestWorkspace:
    """A workspace hands out views of buffers that it reuses."""

    def test_views_of_one_buffer(self):
        ws = sw.Workspace()
        big = ws.take("lines", (21, 7, 8))
        small = ws.take("lines", (10, 5, 3))
        assert np.shares_memory(big, small) and small.shape == (10, 5, 3)
        a, b = ws.scratch((4, 3), (5,))
        assert (a.shape, b.shape) == ((4, 3), (5,)) and not np.shares_memory(a, b)


class TestMaskKernels:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_line_masks_exhaustive(self, n):
        codes = all_codes(n)
        _, ones, lines = batch(n, codes)
        assert lines.shape == (pair_count(n), n, ones.shape[-1])
        ones, lines = mask_table(ones, codes.size), mask_table(lines, codes.size)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            assert tuple(space.adj) == tuple(int(ones[p, ci]) for p in range(n))
            for k, (u, v) in enumerate(iter_pairs(n)):
                assert int(lines[k, ci]) == line_of_fast(space, u, v)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_line_masks_random(self, n):
        codes = random_codes(n, 400, seed=n)
        lines = mask_table(batch(n, codes)[2], codes.size)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            for k, (u, v) in enumerate(iter_pairs(n)):
                assert int(lines[k, ci]) == line_of_fast(space, u, v)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_twin_flags(self, n):
        codes = random_codes(n, 300, seed=20 + n)
        bits, ones, _ = batch(n, codes)
        twins = lanes(sw.twin_pair_flags(n, bits, ones, sw.Workspace()), codes.size)
        for ci, code in enumerate(codes):
            space = space_from_code(n, int(code))
            for k, (u, v) in enumerate(iter_pairs(n)):
                assert bool(twins[k, ci]) == are_twins(space, u, v)


class TestLineStats:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_counts_against_scalar(self, n):
        codes = random_codes(n, 250, seed=30 + n)
        _, _, lines = batch(n, codes)
        ws = sw.Workspace()
        distinct, equal = sw.distinct_counts(lines, sw.valid_plane(codes.size), ws)
        universal = lanes(sw.universal_flags(n, lines), codes.size)
        oversize = lanes(sw.class_size_stats(n, equal.pairs, ws), codes.size).sum(axis=0)
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
        table = rng.integers(1, 4, size=(pair_count(n), 300), dtype=np.uint8)
        m, P = table.shape[1], pair_count(n)
        lines = mask_planes(table, n)
        ws = sw.Workspace()
        distinct, equal = sw.distinct_counts(lines, sw.valid_plane(m), ws)
        oversize = lanes(sw.class_size_stats(n, equal.pairs, ws), m).sum(axis=0)
        bound = class_size_bound(n)
        hits = 0
        for ci in range(m):
            sizes = Counter(table[:, ci].tolist())
            assert int(distinct[ci]) == len(sizes)
            assert int(oversize[ci]) == sum(s > bound for s in sizes.values())
            hits += int(oversize[ci]) > 0
        assert hits > 0
        # row pair_index(j, k, P) of the equal-line planes is set exactly at
        # the codes where edges j < k have equal lines, and a head's plane
        # where no earlier edge has its line; no bit past the batch is set
        assert equal.pairs.shape == (P * (P - 1) // 2, lines.shape[-1])
        W = 64 * lines.shape[-1]
        pairs, heads = lanes(equal.pairs, W), lanes(equal.heads, W)
        assert not pairs[:, m:].any() and not heads[:, m:].any()
        for j, k in iter_pairs(P):
            assert np.array_equal(pairs[pair_index(j, k, P), :m], table[j] == table[k])
        for k in range(P):
            assert np.array_equal(heads[k, :m], ~(table[:k] == table[k]).any(axis=0))


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
    """Copy of a (C(n,2), codes) table of line masks with about rate of its
    entries overwritten: half by
    another edge's line of the same code, so that two lines agree, half with
    one point toggled, so that a twin pair's lines split."""
    rows, cols = np.nonzero(rng.random(lines.shape) < rate)
    other = lines[rng.integers(0, lines.shape[0], rows.size), cols]
    toggled = lines[rows, cols] ^ (1 << rng.integers(0, n, rows.size)).astype(np.uint8)
    out = lines.copy()
    out[rows, cols] = np.where(rng.random(rows.size) < 0.5, other, toggled)
    return out


def merge_lines(lines, rng, share=0.5):
    """Copy of a table of line masks in which about share of the edges of
    each code take the line of one edge of that code, so that large classes
    form."""
    P, m = lines.shape
    src = lines[rng.integers(0, P, m), np.arange(m)]
    return np.where(rng.random(lines.shape) < share, src, lines)


# Code 1 on 4 points has d(0,1) = 2 and every other distance 1: twin
# pair (0,1), lines 01:{0,1,2,3}, 02 and 12:{0,1,2}, 03 and 13:{0,1,3},
# 23:{2,3}.  Code 15 on 4 points has d(1,3) = d(2,3) = 1 and every other
# distance 2: twin pair (1,2), lines 01:{0,1}, 02:{0,2}, 03:{0,3}, and
# {1,2,3} for 12, 13 and 23.  Code 19 on 5 points has d(0,1) = d(0,2) =
# d(1,2) = 2 and every other distance 1: twin pairs (0,1), (0,2), (1,2),
# line 12:{1,2,3,4}.
ONE_LAW_CASES = [
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
]


def block_rows(n, size):
    """Rows per gathered block of the label-law kernels: one; a count that
    leaves a short last block in every row group longer than it
    (test_row_groups); or every row of the longest group."""
    groups = (*sw._line_law_rows(n), *sw._twin_law_rows(n))
    return {"one": 1, "uneven": 5 if n == 4 else 11,
            "all": max(g.shape[1] for g in groups)}[size]


def set_block_rows(monkeypatch, n, size):
    monkeypatch.setattr(sw, "_block_rows",
                        lambda n_, tables, groups: block_rows(n, size))


class TestLawKernels:
    @pytest.mark.parametrize("n", [4, 5])
    def test_exhaustive_against_scalar(self, n):
        codes = all_codes(n)
        counts = label_law_counts(n, codes)
        inst, viol = scalar_law_counts(n, codes)
        for law, cnt in counts.items():
            assert cnt.instances == inst[law], law
            assert cnt.violations == viol[law], law
            assert not cnt.bad.any()

    @pytest.mark.parametrize("n", [6, 7])
    def test_random_against_scalar(self, n):
        codes = random_codes(n, 120, seed=40 + n)
        counts = label_law_counts(n, codes)
        inst, viol = scalar_law_counts(n, codes)
        for law, cnt in counts.items():
            assert cnt.instances == inst[law], law
            assert cnt.violations == viol[law], law

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_corrupted_lines_against_oracle(self, n):
        # real codes break no law, so only corrupted line tables reach the
        # gathers and scatters of the violation paths
        codes = all_codes(n) if n <= 5 else random_codes(n, 300, seed=110 + n)
        m = codes.size
        table = mask_table(batch(n, codes)[2], m)
        table = corrupt_lines(n, table, np.random.default_rng(120 + n))
        counts = label_law_counts(n, codes, table)
        oracle = [ref_law_counts(n, int(code), table[:, ci].tolist())
                  for ci, code in enumerate(codes)]
        for law, cnt in counts.items():
            assert cnt.instances == sum(r[law][0] for r in oracle), law
            assert cnt.violations == sum(r[law][1] for r in oracle), law
            assert cnt.violations > 0, law
            assert np.flatnonzero(lanes(cnt.bad, m)).tolist() == \
                [ci for ci, r in enumerate(oracle) if r[law][1]], law

    @pytest.mark.parametrize("n, code, pair, line, law, violations", ONE_LAW_CASES)
    def test_corrupted_line_fails_one_law(self, n, code, pair, line, law,
                                          violations):
        codes = all_codes(n)
        m = codes.size
        bits, ones, lines = batch(n, codes)
        assert lanes(sw.twin_pair_flags(n, bits, ones, sw.Workspace()), m)[:, code].any()
        table = mask_table(lines, m)
        table[pair_index(*pair, n), code] = line
        counts = label_law_counts(n, codes, table)
        fired = {name: (cnt.violations, np.flatnonzero(lanes(cnt.bad, m)).tolist())
                 for name, cnt in counts.items() if cnt.violations}
        assert fired == {law: (violations, [code])}
        # the scalar pass on the same table; its class laws are not asked
        got = law_violations(space_from_code(n, code),
                             family_of(n, table[:, code].tolist()))
        assert {name: len(got[name]) for name in counts if got[name]} == \
            {law: violations}

    @pytest.mark.parametrize("size", ["one", "uneven", "all"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_corrupted_lines_in_blocks(self, n, size, monkeypatch):
        # the gathers' block boundaries change no count and no bad plane
        set_block_rows(monkeypatch, n, size)
        self.test_corrupted_lines_against_oracle(n)

    @pytest.mark.parametrize("size", ["one", "uneven", "all"])
    def test_corrupted_line_fails_one_law_in_blocks(self, size, monkeypatch):
        for case in ONE_LAW_CASES:
            n = case[0]
            set_block_rows(monkeypatch, n, size)
            self.test_corrupted_line_fails_one_law(*case)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_row_groups(self, n):
        P = pair_count(n)
        e = sw._edge_pairs(n)
        ends = list(iter_pairs(n))
        rows = Counter()
        for group, meets in zip(sw._line_law_rows(n), (False, True)):
            for j, k, row, *outer in group.T.tolist():
                assert j < k and row == pair_index(j, k, P)
                shared = set(ends[j]) & set(ends[k])
                assert bool(e.meet[row, 0]) == bool(shared) == meets
                if meets:
                    assert outer == [e.outer[row]] == \
                        [pair_index(*set(ends[j]) ^ set(ends[k]), n)]
                rows[row] += 1
        assert rows == Counter(range(comb(P, 2)))
        # each row once: for each pair (u, v), line[xy] at u and v for each
        # pair xy outside it, and the pair wv with the lines of wv and wu at
        # u and v for each third point w
        split, third = Counter(), Counter()
        for t, (u, v) in enumerate(ends):
            others = [w for w in range(n) if w not in (u, v)]
            for x, y in combinations(others, 2):
                split[t, n * pair_index(x, y, n) + u, n * pair_index(x, y, n) + v] += 1
            for w in others:
                wv, wu = pair_index(w, v, n), pair_index(w, u, n)
                third[t, wv, n * wv + u, n * wv + v, n * wu + u, n * wu + v] += 1
        got = sw._twin_law_rows(n)
        assert Counter(map(tuple, got[0].T.tolist())) == split
        assert Counter(map(tuple, got[1].T.tolist())) == third
        if n >= 4:
            r = block_rows(n, "uneven")
            long = [g.shape[1] for g in (*sw._line_law_rows(n), *got) if g.shape[1] > r]
            assert len(long) == (3 if n == 4 else 4)
            assert all(size % r for size in long)

    def test_warm_chunk_temporaries(self):
        # the second 2^16-code n = 7 chunk through a warmed workspace: each
        # law kernel gathers into scratch, and its own allocations peak
        # under 256 KiB (fresh per-edge temporaries would take 670-751 KiB)
        n, ws = 7, sw.Workspace()
        for lo in (0, CHUNK_CODES):
            codes = np.arange(lo, lo + CHUNK_CODES, dtype=np.int64)
            valid = sw.valid_plane(codes.size)
            bits = sw.label_bits(n, codes, ws)
            ones = sw.one_masks(n, bits, ws)
            lines = sw.line_masks(n, bits, ones, ws)
            equal = sw.distinct_counts(lines, valid, ws)[1]
            twins = sw.twin_pair_flags(n, bits, ones, ws)
            peaks = []
            for kernel, args in ((sw.distinct_line_counts,
                                  (n, bits, equal.pairs, twins, valid)),
                                 (sw.twin_law_counts, (n, bits, lines, twins))):
                tracemalloc.start()
                try:
                    kernel(*args, ws, None)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert max(peaks) < 256 << 10, peaks

    def test_size_bound_counts(self):
        n = 6
        codes = all_codes(n)
        m = codes.size
        bits, ones, lines = batch(n, codes)
        distinct, equal = sw.distinct_counts(lines, sw.valid_plane(m), sw.Workspace())
        universal = sw.universal_flags(n, lines)
        oversize = sw.class_size_stats(n, equal.pairs, sw.Workspace())
        twin_free = twin_free_plane(n, bits, ones, m)
        cnt = sw.size_bound_counts(twin_free, universal, equal.heads, oversize, None)
        assert cnt.violations == 0
        applicable = lanes(twin_free & ~universal, m)
        assert applicable.sum() > 0
        assert cnt.instances == int(distinct[:m][applicable].sum())


def label_law_counts(n, codes, table=None):
    """The six label-law counts of the kernels, on the real lines of the
    codes or on the given table of line masks."""
    bits, ones, lines = batch(n, codes)
    twins = sw.twin_pair_flags(n, bits, ones, sw.Workspace())
    if table is not None:
        lines = mask_planes(table, n)
    valid = sw.valid_plane(codes.size)
    counts = sw.distinct_line_counts(n, bits, equal_lines(lines, codes.size).pairs,
                                     twins, valid, sw.Workspace(), None)
    counts.update(sw.twin_law_counts(n, bits, lines, twins, sw.Workspace(), None))
    return counts


def kernel_class_counts(n, codes, table=None):
    """Class-law kernel counts on the real lines of the codes or on the
    given table of line masks."""
    bits, ones, lines = batch(n, codes)
    twin_free = twin_free_plane(n, bits, ones, codes.size)
    if table is not None:
        lines = mask_planes(table, n)
    return sw.class_law_counts(n, bits, lines, equal_lines(lines, codes.size),
                               twin_free, sw.Workspace(), None)


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


def weighted_counts(n, codes, table, weights):
    """Every count of the four counting kernels on a batch of codes, on
    their real lines or on the given table of line masks, each lane
    weighted by weights (None counts each once): ({law: (instances,
    violations)}, {law: bad plane}, class-shape histogram, twin-free
    count)."""
    ws = sw.Workspace()
    bits, ones, lines = batch(n, codes)
    if table is not None:
        lines = mask_planes(table, n)
    valid = sw.valid_plane(codes.size)
    twins = sw.twin_pair_flags(n, bits, ones, ws)
    twin_free = valid & ~np.bitwise_or.reduce(twins, axis=0)
    equal = sw.distinct_counts(lines, valid, ws)[1]
    counts = sw.distinct_line_counts(n, bits, equal.pairs, twins, valid, ws, weights)
    counts.update(sw.twin_law_counts(n, bits, lines, twins, ws, weights))
    counts["class-size"] = sw.size_bound_counts(
        twin_free, sw.universal_flags(n, lines), equal.heads,
        sw.class_size_stats(n, equal.pairs, ws), weights)
    hist, class_counts = sw.class_law_counts(n, bits, lines, equal, twin_free, ws,
                                             weights)
    counts.update(class_counts)
    return ({law: (cnt.instances, cnt.violations) for law, cnt in counts.items()},
            {law: cnt.bad for law, cnt in counts.items()}, hist,
            sw.popcount(twin_free, weights))


class TestWeightedCounts:
    @pytest.mark.parametrize("n", [5, 6])
    def test_lane_weights_sum_one_code_batches(self, n):
        # a weighted batch counts lane c weights[c] times: every law's
        # instances and violations, the class-shape histogram and the
        # twin-free count equal the weighted sum of the counts of the
        # one-code batches [c], on real lines and on a merged table that
        # breaks every law; the weights leave the bad planes as they are
        codes = random_codes(n, 150, seed=170 + n)
        m = codes.size
        rng = np.random.default_rng(180 + n)
        weights = np.zeros(64 * -(-m // 64), dtype=np.int64)
        weights[:m] = rng.integers(1, factorial(n) + 1, m)
        weights[:1] = factorial(n)
        real = mask_table(batch(n, codes)[2], m)
        for table in (None, merge_lines(real, rng)):
            laws, bad, hist, twin_free = weighted_counts(n, codes, table, weights)
            want_laws = dict.fromkeys(laws, (0, 0))
            want_hist, want_twin_free = Counter(), 0
            for ci in range(m):
                one = None if table is None else table[:, ci:ci + 1]
                got = weighted_counts(n, codes[ci:ci + 1], one, None)
                w = int(weights[ci])
                for law, (inst, viol) in got[0].items():
                    want_laws[law] = (want_laws[law][0] + w * inst,
                                      want_laws[law][1] + w * viol)
                want_hist.update({tag: w * cnt for tag, cnt in got[2].items()})
                want_twin_free += w * got[3]
            assert laws == want_laws
            assert hist == {tag: want_hist[tag] for tag in hist}
            assert twin_free == want_twin_free > 0
            unweighted = weighted_counts(n, codes, table, None)[1]
            assert all(np.array_equal(bad[law], unweighted[law]) for law in bad)
        assert all(viol > 0 for _, viol in laws.values()), laws


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
            assert np.flatnonzero(lanes(cnt.bad, codes.size)).tolist() == \
                [ci for ci, (_, r) in enumerate(oracle) if r[law][1]], law

    def test_corrupted_line_fails_each_law_once(self):
        # Code 3 on 4 points has d(0,1) = d(0,2) = 2 and classes {01,13}
        # (line {0,1,3}), {02,23}, {03}, {12}.  Moving pair (1,2) onto the
        # line of (0,1) gives the class {01,12,13}: it touches all points
        # under a 3-point line, and point 1 has three class edges.
        n = 4
        codes = all_codes(n)
        table = mask_table(batch(n, codes)[2], codes.size)
        assert int(table[0, 3]) == 0b1011
        table[3, 3] = table[0, 3]
        _, laws = kernel_class_counts(n, codes, table)
        got = law_violations(space_from_code(n, 3),
                             family_of(n, table[:, 3].tolist()))
        for law in ("full-cover", "class-shape"):
            assert laws[law].violations == 1, law
            assert np.flatnonzero(lanes(laws[law].bad, codes.size)).tolist() == [3], law
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
        m = codes.size
        bits, ones, real = batch(n, codes)
        real = mask_table(real, m)
        twin_free = twin_free_plane(n, bits, ones, m)
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
            planes = mask_planes(lines, n)
            ws = sw.Workspace()
            distinct, equal = sw.distinct_counts(planes, sw.valid_plane(m), ws)
            _, kernel = sw.class_law_counts(n, bits, planes, equal, twin_free, ws, None)
            kernel["class-size"] = sw.size_bound_counts(
                twin_free, sw.universal_flags(n, planes), equal.heads,
                sw.class_size_stats(n, equal.pairs, ws), None)
            for law, cnt in kernel.items():
                assert cnt.violations == sum(found[law]), law
                assert np.flatnonzero(lanes(cnt.bad, m)).tolist() == \
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
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_scalar(self, n):
        # the reference tries all n! relabelings in Python, 40320 at n = 8
        count = {7: 12, 8: 2}.get(n, 60)
        # code 0 and the all-distance-2 code, whose product sums every weight
        top = (1 << pair_count(n)) - 1
        codes = np.concatenate([[0, top], random_codes(n, count, seed=50 + n)])
        vec = sw.canonical_min(n, codes)
        assert vec.dtype == np.int64 and vec.shape == codes.shape
        for ci, code in enumerate(codes):
            assert int(vec[ci]) == ref_canonical_code(n, int(code))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_blocks_equal_single_codes(self, n):
        # a batch of 41 codes drawn from 21, so shuffled and with repeats,
        # equals its codes one at a time: least_codes keeps the states of
        # each batch position apart, even where two positions hold one code
        rng = np.random.default_rng(70 + n)
        pool = random_codes(n, 21, seed=60 + n)
        codes = rng.choice(pool, 41)
        assert np.unique(codes).size < codes.size
        vec = sw.canonical_min(n, codes)
        singles = [int(sw.canonical_min(n, codes[i:i + 1])[0]) for i in range(codes.size)]
        assert vec.tolist() == singles

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_canonical_min_equals_brute_relabelings(self, n):
        # 65 codes through the search of canonical_min against the brute
        # force over all n! relabelings of tests/reference.py
        codes = random_codes(n, 65, seed=80 + n)
        least, _ = ref_least_relabelings(n, codes)
        assert sw.canonical_min(n, codes).tolist() == least.tolist()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_least_codes_equal_brute_relabelings(self, n):
        # least_codes gives the k least codes of the orbit, and the number
        # of relabelings that give the least, for k = 1, 7 and the whole
        # orbit: every code to n = 4; at n = 5 the two constant codes and 40
        # more; and a batch of all of them gives each code's, in order
        top = (1 << pair_count(n)) - 1
        codes = all_codes(n) if n <= 4 else \
            np.concatenate([[0, top], random_codes(n, 40, seed=45)])
        prefixes, auts = [], []
        for code in codes.tolist():
            relabelings = Counter(relabeled(n, code, perm)
                                  for perm in permutations(range(n)))
            orbit = sorted(relabelings)
            for k in (1, 7, len(orbit)):
                got, ties = sw.least_codes(n, np.array([code]), k)
                assert got.dtype == ties.dtype == np.int64
                assert got.tolist() == orbit[:k]
                assert ties.tolist() == [relabelings[orbit[0]]]
            prefixes += orbit[:7]
            auts.append(relabelings[orbit[0]])
        got, ties = sw.least_codes(n, codes, 7)
        assert got.tolist() == prefixes and ties.tolist() == auts

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ties_are_the_growth_aut(self, n, grown):
        # the tie count of least_codes is |Aut| of iso_classes: on every
        # class to n = 7, and on the 22 one-cell classes at n = 8
        reps, aut = grown[n]
        if n == 8:
            one_cell = sw._sorted_by_key(n, reps)[1] == 0
            reps, aut = reps[one_cell], aut[one_cell]
            assert reps.size == 22
        np.testing.assert_array_equal(sw.least_codes(n, reps)[1], aut)

    def test_empty_batch(self):
        out = sw.canonical_min(6, np.zeros(0, dtype=np.int64))
        assert out.dtype == np.int64 and out.shape == (0,)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            sw.label_bits(9, np.zeros(1, dtype=np.int64), sw.Workspace())
        with pytest.raises(ValueError):
            sw.canonical_min(9, np.zeros(1, dtype=np.int64))


def iso_minima(n):
    """Ascending canonical_min of the classes of sw.iso_classes(n)."""
    *_, (_, reps, _) = sw.iso_classes(n)
    return np.sort(sw.canonical_min(n, reps))


class TestIsoCodes:
    """The orbit minima of sw.iso_classes against the factorial filter and
    the graph atlas."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_brute_filter(self, n, orbit_minima):
        # the codes that are their own minimum over all n! relabelings
        reps = iso_minima(n)
        assert reps.dtype == np.int64
        codes = all_codes(n)
        np.testing.assert_array_equal(reps, codes[orbit_minima(n) == codes])

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
        canon = set(sw.canonical_min(n, np.array(codes, dtype=np.int64)).tolist())
        reps = iso_minima(n)
        assert len(canon) == len(codes) == reps.size
        assert set(reps.tolist()) == canon
        assert np.all(np.diff(reps) > 0)


def relabeled(n, code, perm):
    """The code whose pair (i, j) has the label of pair (perm[i], perm[j])."""
    out = 0
    for i, j in combinations(range(n), 2):
        a, b = sorted((perm[i], perm[j]))
        if code >> ref_pair_bit(a, b, n) & 1:
            out |= 1 << ref_pair_bit(i, j, n)
    return out


@st.composite
def code_and_relabeling(draw):
    n = draw(st.integers(3, 8))
    code = draw(st.integers(0, (1 << pair_count(n)) - 1))
    return n, code, draw(st.permutations(range(n)))


def brute_cell_sources(n, cuts):
    """The pair sources of the permutations of range(n), in itertools order,
    that keep every point in its cell: point i is in cell popcount(cuts
    below bit i)."""
    cell = [bin(cuts & ((1 << i) - 1)).count("1") for i in range(n)]
    bit = {(a, b): ref_pair_bit(a, b, n) for a, b in permutations(range(n), 2)}
    columns = [[bit[perm[i], perm[j]] for i, j in combinations(range(n), 2)]
               for perm in permutations(range(n))
               if all(cell[p] == cell[i] for i, p in enumerate(perm))]
    return np.array(columns, dtype=np.int8).reshape(-1, pair_count(n)).T


@pytest.fixture(scope="module")
def growth_candidates():
    """The codes that iso_classes(7) hands to refined_codes, by point count."""
    seen = {}
    refined = sw.refined_codes

    def recorded(n, codes):
        seen[n] = codes
        return refined(n, codes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sw, "refined_codes", recorded)
        list(sw.iso_classes(7))
    return seen


@pytest.fixture(scope="module")
def grown():
    """{m: (codes, aut)} of every step of iso_classes(8)."""
    return {m: (reps, aut) for m, reps, aut in sw.iso_classes(8)}


def all_joins(m, reps):
    """Every code on m + 1 points whose first m points are labeled as one of
    reps: each code lifted, then joined to point m in all 2^m ways."""
    out = np.zeros((reps.size, 1 << m), dtype=np.int64)
    for i, j in combinations(range(m), 2):
        out |= ((reps >> ref_pair_bit(i, j, m)) & 1)[:, None] << ref_pair_bit(i, j, m + 1)
    patterns = np.arange(1 << m, dtype=np.int64)
    for i in range(m):
        out |= ((patterns >> i) & 1) << ref_pair_bit(i, m, m + 1)
    return out.ravel()


class TestRefinedCodes:
    """sw.refined_codes: one code per class, with |Aut| beside it."""

    @settings(max_examples=60, deadline=None)
    @given(code_and_relabeling())
    def test_relabelings_share_the_refined_code(self, case):
        n, code, perm = case
        codes = np.array([code, relabeled(n, code, perm)], dtype=np.int64)
        canon, aut = sw.refined_codes(n, codes)
        assert canon[0] == canon[1] and aut[0] == aut[1]
        # the refined code is a relabeling of the code
        assert sw.canonical_min(n, canon[:1])[0] == sw.canonical_min(n, codes[:1])[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_automorphisms_are_counted(self, n):
        # every class at n <= 5, and 25 random codes at n = 6 (720 relabelings)
        codes = all_codes(n) if n <= 5 else random_codes(n, 25, seed=90)
        _, aut = sw.refined_codes(n, codes)
        for code, count in zip(codes.tolist(), aut.tolist()):
            brute = sum(relabeled(n, code, perm) == code
                        for perm in permutations(range(n)))
            assert count == brute, (n, code)

    def test_growth_counts_and_checksum(self):
        # OEIS A000088; the growth itself checks that the orbit sizes
        # m!/|Aut| sum to 2^C(m,2) at every step
        counts = []
        for m, reps, aut in sw.iso_classes(8):
            counts.append(reps.size)
            assert np.all(np.diff(reps) > 0)
            assert int((factorial(m) // aut).sum()) == 1 << pair_count(m)
        assert counts == [2, 4, 11, 34, 156, 1044, 12346]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cell_tables_equal_brute_sources(self, n):
        # one cell has no columns, since least_codes searches it; then every
        # other cell pattern to n = 7, and at n = 8 a split-off first point,
        # two cuts, a split-off last point, and all points apart
        table, first = sw._cell_tables(n)
        assert table.dtype == np.int8 and first[0] == first[1] == 0
        patterns = range(1, 1 << n - 1) if n <= 7 else (1, 5, 64, 127)
        for cuts in patterns:
            np.testing.assert_array_equal(table[first[cuts]:first[cuts + 1]].T,
                                          brute_cell_sources(n, cuts), str(cuts))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_unfiltered_joins_give_the_same_classes(self, n, grown):
        # iso_classes keeps only the joins that give the new point the
        # largest degree; the refined codes of all 2^(n-1) joins of every
        # class on n - 1 points name exactly the same classes
        parents, _ = grown[n - 1]
        canon, aut = sw.refined_codes(n, all_joins(n - 1, parents))
        reps, first = np.unique(canon, return_index=True)
        np.testing.assert_array_equal(reps, grown[n][0])
        np.testing.assert_array_equal(aut[first], grown[n][1])

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_one_cell_classes_get_orbit_minima(self, n, grown):
        # the classes whose first refinement leaves one cell (the regular
        # spaces) get their least relabeling and |Aut| by brute force over
        # all n! relabelings, and relabeled codes share the refined code
        reps, growth_aut = grown[n]
        one_cell = sw._sorted_by_key(n, reps)[1] == 0
        codes = reps[one_cell]
        assert codes.size == {6: 8, 7: 6, 8: 22}[n]  # regular graphs
        least, brute_aut = ref_least_relabelings(n, codes)
        np.testing.assert_array_equal(codes, least)
        np.testing.assert_array_equal(growth_aut[one_cell], brute_aut)
        canon, aut = sw.refined_codes(n, codes)
        np.testing.assert_array_equal(canon, codes)
        np.testing.assert_array_equal(aut, brute_aut)
        rng = random.Random(n)
        for code in codes.tolist():
            moved = np.array([relabeled(n, code, rng.sample(range(n), n))
                              for _ in range(3)], dtype=np.int64)
            assert set(sw.refined_codes(n, moved)[0].tolist()) == {code}

    def test_discrete_cuts_at_nine_points(self):
        # codes on 9 points whose (degree, second, third) keys all differ:
        # the 8 cut bits make 255, which an int8 read as -1
        n = 9
        pairs = list(combinations(range(n), 2))
        distinct = []
        for code in random_codes(n, 40, seed=9).tolist():
            adjacent = np.zeros((n, n), dtype=np.int64)
            for k, (i, j) in enumerate(pairs):
                if not code >> k & 1:
                    adjacent[i, j] = adjacent[j, i] = 1
            degree = adjacent.sum(axis=1)
            second = adjacent @ degree
            if len(set(zip(degree, second, adjacent @ second))) == n:
                distinct.append(code)
        assert len(distinct) >= 3
        _, cuts = sw._sorted_by_key(n, np.array(distinct, dtype=np.int64))
        assert cuts.tolist() == [255] * len(distinct)

    @pytest.mark.parametrize("rows", ["one", "uneven", "all"])
    def test_blocks_change_nothing(self, rows, growth_candidates, monkeypatch):
        # the 2690 candidates of the n = 7 step, relabeled one row per block,
        # in blocks of 1000 rows, and in one block, against the default
        codes = growth_candidates[7]
        by_key, cuts = sw._sorted_by_key(7, codes)
        distinct, first = np.unique(by_key, return_index=True)
        assert codes.size == 2690 and distinct.size < codes.size  # repeats
        cut = cuts[first]
        discrete, one_cell = cut == (1 << 6) - 1, cut == 0
        assert discrete.any() and one_cell.any()
        span = np.diff(sw._cell_tables(7)[1])[cut[~discrete & ~one_cell]]
        # 1000 rows: blocks of several codes, whose cell patterns differ and
        # whose rows fall short of the budget; no code reaches 1000 rows
        budget = {"one": 1, "uneven": 1000, "all": int(span.sum()) + 1}[rows]
        assert span.max() < 1000 < span.sum()
        canon, aut = sw.refined_codes(7, codes)
        monkeypatch.setattr(sw, "_RELABEL_ROWS", budget)
        got_canon, got_aut = sw.refined_codes(7, codes)
        np.testing.assert_array_equal(got_canon, canon)
        np.testing.assert_array_equal(got_aut, aut)

    @pytest.mark.parametrize("rows", ["one", "uneven", "all"])
    def test_lone_codes_change_nothing(self, rows, grown, monkeypatch):
        # the classes on 8 points whose sorted code has cells of 7 points
        # and 1: 5040 rows a code, more than a block, so each goes alone,
        # except in one block of all their rows
        reps, aut = grown[8]
        by_key, cuts = sw._sorted_by_key(8, reps)
        lone = (cuts == 1) | (cuts == 1 << 6)
        codes, cuts = by_key[lone], cuts[lone]
        assert codes.size > 1 and factorial(7) > sw._RELABEL_ROWS
        budget = {"one": 1, "uneven": 1000, "all": codes.size * factorial(7)}[rows]
        least, ties = sw._least_relabelings(8, codes, cuts)
        np.testing.assert_array_equal(least, reps[lone])
        np.testing.assert_array_equal(ties, aut[lone])
        monkeypatch.setattr(sw, "_RELABEL_ROWS", budget)
        got_least, got_ties = sw._least_relabelings(8, codes, cuts)
        np.testing.assert_array_equal(got_least, least)
        np.testing.assert_array_equal(got_ties, ties)

    def test_warm_temporaries(self, growth_candidates):
        # a warm call on the n = 7 step: beside its two int64 outputs, its
        # temporaries peak under 512 KiB, a block of _RELABEL_ROWS rows
        # (332 KiB) and two int64 arrays over the 2690 candidates (42 KiB);
        # blocks of 2^16 rows would take 5 MiB
        codes = growth_candidates[7]
        sw.refined_codes(7, codes)
        tracemalloc.start()
        try:
            sw.refined_codes(7, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * codes.nbytes < 512 << 10, peak

    def test_empty_batch(self):
        canon, aut = sw.refined_codes(7, np.zeros(0, dtype=np.int64))
        assert canon.dtype == aut.dtype == np.int64
        assert canon.shape == aut.shape == (0,)

    def test_a_wrong_canonical_code_is_caught(self, monkeypatch):
        # every candidate its own class: far more labeled codes than exist
        monkeypatch.setattr(sw, "refined_codes",
                            lambda n, codes: (codes, np.ones_like(codes)))
        with pytest.raises(RuntimeError, match="not 2\\^3"):
            list(sw.iso_classes(4))
