"""Sweeps, canonicalization, witnesses, minima, and the random harness."""

import functools
import multiprocessing
import random
import tracemalloc
from fractions import Fraction
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbelines import (MetricSpace, all_lines, as_one_two, claims_sweep,
                      code_from_space, dbe_verdict, min_lines_table,
                      six_point_witnesses, space_from_code, twin_pairs,
                      verify_small_spaces, verify_theorem)
from dbelines import sweep as sw
from dbelines import verify as verify_mod
from dbelines.bitset import iter_pairs, pair_count, pair_index
from dbelines.reports import claims_report_to_json

from reference import lanes, mask_planes, mask_table, ref_canonical_code

# (n, min_overall, argmin_overall, min_no_universal, argmin_no_universal),
# frozen from an independent definitional sweep
MIN_LINES_EXPECTED = {
    2: (1, 0, None, None),
    3: (1, 1, 3, 0),
    4: (1, 12, 4, 15),
    5: (4, 20, 5, 207),
    6: (4, 656, 9, 35),
    7: (7, 2320, 9, 39441),
}

SHAPE_HIST_EXPECTED = {
    4: {"uniform_matching": 198, "alt_c4_subset": 48, "other": 31},
    5: {"uniform_matching": 6175, "alt_c4_subset": 1020, "other": 685},
    6: {"uniform_matching": 343500, "alt_c4_subset": 37200, "other": 23911},
}

# number of isomorphism classes of 1-2 spaces = number of unlabeled graphs
ISO_CLASSES = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

WITNESS_LINE_COUNTS = (12, 12, 12, 10, 11, 9)


@st.composite
def code_batches(draw):
    """(n, codes in any order) with n in 5..8, 1..200 codes, code 0 among
    them, and repeats likely: the codes are drawn from a smaller pool."""
    n = draw(st.integers(5, 8))
    size = draw(st.sampled_from([1, 63, 64, 65, 127]) | st.integers(1, 200))
    pool = draw(st.lists(st.integers(0, (1 << pair_count(n)) - 1),
                         min_size=1, max_size=size))
    rest = draw(st.lists(st.sampled_from(pool), min_size=size - 1,
                         max_size=size - 1))
    return n, np.array(draw(st.permutations([0, *rest])), dtype=np.int64)


def labeled(n, level=None, cap=100, progress=None):
    """The labeled sweep of all 2^C(n,2) codes on n points, chunk by chunk,
    at verify_theorem's level unless given: what verify_theorem and
    claims_sweep report from the isomorphism classes."""
    return verify_mod._sweep(n, "all", range(1 << pair_count(n)),
                             level or ("full" if n <= 6 else "vector"), cap,
                             verify_mod._workspace(), progress=progress)


def recorded_chunks(monkeypatch):
    """The codes of every sw.label_bits call from here on, in call order:
    the chunks of the sweeps, since no other kernel reads codes."""
    calls = []
    label_bits = sw.label_bits

    def recorded(n, codes, ws):
        calls.append(codes.copy())
        return label_bits(n, codes, ws)

    monkeypatch.setattr(sw, "label_bits", recorded)
    return calls


@functools.cache
def cached_report(n, mode="all"):
    """The iso report or the labeled sweep, run once per argument set in
    this module."""
    return verify_theorem(n, mode="iso") if mode == "iso" else labeled(n)


def canonical_codes(n, codes):
    return sw.canonical_min(n, np.array(codes, dtype=np.int64))


def canonical(n, code):
    return int(canonical_codes(n, [code])[0])


def codes_of(bits):
    """The label code of every lane of the sw.label_bits planes bits; the
    lanes past the batch read as code 0."""
    weights = np.left_shift(1, np.arange(bits.shape[0], dtype=np.int64))
    return weights @ lanes(bits, 64 * bits.shape[-1])


def edited_line_masks(edit):
    """A stand-in for sw.line_masks that calls edit(table, codes) on the
    (C(n,2), lanes) table of line masks of each batch, codes holding the
    label code of each lane, and returns the planes of the edited table."""
    line_masks = sw.line_masks

    def edited(n, bits, ones, ws):
        table = mask_table(line_masks(n, bits, ones, ws), 64 * bits.shape[-1])
        edit(table, codes_of(bits))
        return mask_planes(table, n)

    return edited


class TestCanonicalCode:
    """sw.canonical_min, pinned to the brute-force oracle."""

    def test_all_one_fixed(self):
        for n in (2, 4, 6):
            assert canonical(n, 0) == ref_canonical_code(n, 0) == 0

    def test_single_two_edge_class(self):
        assert [canonical(3, c) for c in (1, 2, 4)] == [1, 1, 1]
        assert [ref_canonical_code(3, c) for c in (1, 2, 4)] == [1, 1, 1]

    def test_minimum_over_relabelings(self):
        rng = random.Random(3)
        for n in (4, 5, 6):
            for _ in range(10):
                code = rng.randrange(1 << pair_count(n))
                canon = canonical(n, code)
                assert canon == ref_canonical_code(n, code)
                assert canon <= code
                assert canonical(n, canon) == canon

    def test_invariant_under_relabeling(self):
        rng = random.Random(4)
        for n in (4, 5, 6):
            for _ in range(5):
                code = rng.randrange(1 << pair_count(n))
                space = space_from_code(n, code)
                relabeled = []
                for _ in range(100):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    c = 0
                    for i, j in iter_pairs(n):
                        if space.dist(perm[i], perm[j]) == 2:
                            c |= 1 << pair_index(i, j, n)
                    relabeled.append(c)
                canon = canonical_codes(n, relabeled)
                assert set(canon.tolist()) == {canonical(n, code)}


class TestVerifyTheorem:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_minima_and_failures(self, n):
        rep = verify_theorem(n)
        exp = MIN_LINES_EXPECTED[n]
        assert rep.total_codes == 1 << pair_count(n)
        assert rep.dbe_failures == 0 and rep.failure_witnesses == ()
        assert (rep.min_lines_overall, rep.argmin_overall,
                rep.min_lines_no_universal, rep.argmin_no_universal) == exp

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_shape_histograms(self, n):
        assert verify_theorem(n).class_counts_by_shape == SHAPE_HIST_EXPECTED[n]

    def test_all_laws_clean_at_n6(self):
        rep = verify_theorem(6)
        assert rep.checker_level == "full"
        assert set(rep.laws) == set(verify_mod.LAW_ORDER)
        for law, stat in rep.laws.items():
            assert stat.violations == 0, law
            assert stat.witnesses == ()
            assert stat.instances > 0, law

    def test_class_law_witnesses_name_each_code_once(self, monkeypatch):
        # Swapping the lines of pairs (0,1) and (0,2) of code 3 on 4 points
        # keeps every line count, but makes classes {01,23} and {02,13}:
        # each touches all points under a 3-point line, and its disjoint
        # edges have labels 2 and 1.  Two violations per class law, one code.
        def swap(lines, codes):
            col = codes == 3
            lines[0, col], lines[1, col] = lines[1, col], lines[0, col]

        monkeypatch.setattr(sw, "line_masks", edited_line_masks(swap))
        rep = labeled(4)
        for law in ("full-cover", "class-shape"):
            assert (rep.laws[law].violations, rep.laws[law].witnesses) == (2, (3,))
        assert rep.class_counts_by_shape["other"] == SHAPE_HIST_EXPECTED[4]["other"] + 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_iso_stats(self, n):
        rep = verify_theorem(n, mode="iso")
        assert rep.total_codes == ISO_CLASSES[n]

    @pytest.mark.parametrize("n", list(ISO_CLASSES))
    def test_iso_mode_counts_and_agreement(self, n):
        iso = cached_report(n, "iso")
        assert iso.total_codes == ISO_CLASSES[n]
        full = cached_report(n)
        assert iso.dbe_failures == full.dbe_failures == 0
        assert iso.min_lines_overall == full.min_lines_overall
        assert iso.min_lines_no_universal == full.min_lines_no_universal
        assert iso.argmin_overall == full.argmin_overall
        assert iso.argmin_no_universal == full.argmin_no_universal

    def test_iso_n7_acceptance(self):
        iso = cached_report(7, "iso")
        labeled = cached_report(7)
        assert iso.checker_level == "full"
        assert (iso.total_codes, iso.dbe_failures) == (1044, 0)
        assert list(iso.laws) == list(verify_mod.LAW_ORDER)
        for law, stat in iso.laws.items():
            assert (stat.violations, stat.witnesses) == (0, ()), law
            assert stat.instances > 0 or law == "full-cover", law
        assert (iso.min_lines_overall, iso.argmin_overall,
                iso.min_lines_no_universal, iso.argmin_no_universal) == (
            labeled.min_lines_overall, labeled.argmin_overall,
            labeled.min_lines_no_universal, labeled.argmin_no_universal)

    def test_iso_n8(self):
        iso = verify_theorem(8, mode="iso")
        row = min_lines_table(8)[-1]
        assert (iso.total_codes, iso.dbe_failures) == (12346, 0)  # OEIS A000088
        assert list(iso.laws) == list(verify_mod.LAW_ORDER)
        for law, stat in iso.laws.items():
            assert (stat.violations, stat.witnesses) == (0, ()), law
        assert (iso.min_lines_overall, iso.argmin_overall,
                iso.min_lines_no_universal, iso.argmin_no_universal) == (
            row.min_lines_overall, row.argmin_overall,
            row.min_lines_no_universal, row.argmin_no_universal)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_iso_witnesses_under_class_faults(self, n, monkeypatch):
        # the sweep of the ascending orbit minima, as one batch, lists the
        # first cap flagged minima; the class of code 0 is among the faulted
        *_, (_, reps, _) = sw.iso_classes(n)
        minima = np.sort(sw.canonical_min(n, reps))
        chosen = reps[::max(1, reps.size // 5)]
        assert chosen[0] == 0
        monkeypatch.setattr(sw, "line_masks", class_faults(n, chosen))
        for cap in (0, 1, 3, 100):
            rep = verify_theorem(n, mode="iso", max_witnesses=cap)
            brute = verify_mod._sweep(n, "iso", minima, "full", cap, sw.Workspace())
            assert rep == brute
            assert rep.dbe_failures == chosen.size
            assert len(rep.failure_witnesses) == min(cap, chosen.size)
            assert rep.total_law_violations > 0

    def test_partition_independence(self, monkeypatch):
        base = labeled(5)
        iso = cached_report(6, "iso")
        sample = claims_sweep(6, trials=5000, seed=3)
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", 64)
        assert labeled(5) == base
        assert verify_theorem(6, mode="iso") == iso
        assert claims_sweep(6, trials=5000, seed=3) == sample

    def test_sample_chunks_equal_one_batch(self, monkeypatch):
        # the codes claims_sweep draws, swept as one batch; collapsed lines
        # at a few sampled codes put law witnesses in several 64-code chunks,
        # drawn out of code order, and they are still listed ascending
        n, trials, seed, cap = 6, 5000, 3, 100
        rng = random.Random(seed)
        codes = np.array([rng.randrange(1 << pair_count(n)) for _ in range(trials)],
                         dtype=np.int64)
        bad = codes[[4000, 70, 2500, 130]]

        def collapse(lines, lane_codes):
            lines[:, np.isin(lane_codes, bad)] = 0b11

        monkeypatch.setattr(sw, "line_masks", edited_line_masks(collapse))
        whole = verify_mod._sweep(n, "sample", codes, "full", cap, sw.Workspace())
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", 64)
        rep = claims_sweep(n, trials=trials, seed=seed, max_witnesses=cap)
        assert rep == whole
        assert rep.total_law_violations > 0
        witnesses = rep.laws["disjoint-diff-label"].witnesses
        assert witnesses == tuple(sorted(set(bad.tolist())))

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_sample_witnesses_are_ascending_and_distinct(self, monkeypatch, chunk):
        # 20 draws on 3 points repeat codes out of order; with every line
        # collapsed each code fails, and each witness list is ascending and
        # names a code once, as the labeled sweep of the distinct drawn codes
        # names them, whatever the chunk size
        n, trials, seed, cap = 3, 20, 1, 10
        drawn = verify_mod._sample_codes(random.Random(seed), n, trials)
        assert drawn.tolist() == [2, 1, 4, 1, 7, 7, 7, 6, 3, 1, 7, 0, 6, 6, 0, 7, 4, 3, 1, 5]

        def collapse(lines, lane_codes):
            lines[:] = 0b11

        monkeypatch.setattr(sw, "line_masks", edited_line_masks(collapse))
        distinct = verify_mod._sweep(n, "sample", np.unique(drawn), "full", cap,
                                     sw.Workspace())
        if chunk:
            monkeypatch.setattr(verify_mod, "CHUNK_CODES", chunk)
        rep = claims_sweep(n, trials=trials, seed=seed, max_witnesses=cap)
        assert rep.dbe_failures == trials
        assert rep.failure_witnesses == tuple(range(8)) == distinct.failure_witnesses
        assert rep.laws["class-shape"].witnesses == (0, 3, 5, 6)
        for law, stat in rep.laws.items():
            assert stat.witnesses == tuple(sorted(set(stat.witnesses))), law
            assert stat.witnesses == distinct.laws[law].witnesses, law
            assert bool(stat.witnesses) == bool(stat.violations), law

    def test_sweeps_ship_and_hold_one_chunk(self, monkeypatch):
        # a sampled run never sweeps more than one chunk of codes at a time,
        # and a labeled sweep of 2^28 codes holds one chunk's codes at a
        # time, as an int64 array cut from the range.  The plane kernels are
        # stubbed so that no plane is computed: every code reads as 8
        # distinct lines, one of them universal.
        sizes = []

        def label_bits(n, codes, ws):
            assert codes.dtype == np.int64
            sizes.append(codes.size)
            return np.zeros((pair_count(n), -(-codes.size // 64)), dtype=np.uint64)

        for name, stub in (
                ("label_bits", label_bits),
                ("one_masks", lambda n, bits, ws: None),
                ("line_masks", lambda n, bits, ones, ws: bits),
                ("distinct_counts", lambda lines, valid, ws:
                    (np.full(64 * valid.size, 8, dtype=np.int32), None)),
                ("universal_flags", lambda n, lines: np.full(lines.shape[-1], sw.ALL))):
            monkeypatch.setattr(sw, name, stub)
        rep = verify_mod._sweep(8, "all", range(1 << 28), "none", 100, sw.Workspace())
        assert sum(sizes) == 1 << 28 and max(sizes) == verify_mod.CHUNK_CODES
        assert (rep.total_codes, rep.dbe_failures, rep.min_lines_overall,
                rep.argmin_overall, rep.min_lines_no_universal) == \
            (1 << 28, 0, 8, 0, None)
        monkeypatch.undo()
        calls = recorded_chunks(monkeypatch)
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", 16)
        rep = claims_sweep(5, trials=3 * 16)
        sizes = [codes.size for codes in calls]
        assert rep.total_codes == sum(sizes) == 48
        assert max(sizes) <= 16

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tasks_are_nonempty_and_cover_the_codes(self, seed):
        # every chunk holds a code, and the chunks hold the codes in order;
        # no codes sweep one empty batch
        with pytest.MonkeyPatch.context() as mp:
            calls = recorded_chunks(mp)
            mp.setattr(verify_mod, "CHUNK_CODES", 16)
            rep = claims_sweep(5, trials=33, seed=seed)
        assert rep.total_codes == 33
        assert [part.size for part in calls] == [16, 16, 1]
        assert np.array_equal(np.concatenate(calls),
                              verify_mod._sample_codes(random.Random(seed), 5, 33))
        chunk = verify_mod.CHUNK_CODES
        for size, sizes in ((0, [0]), (1, [1]), (chunk, [chunk]),
                            (chunk + 1, [chunk, 1])):
            shuffled = np.random.default_rng(size).permutation(size).astype(np.int64)
            for codes in (range(size), shuffled):
                with pytest.MonkeyPatch.context() as mp:
                    calls = recorded_chunks(mp)
                    rep = verify_mod._sweep(8, "sample", codes, "none", 0,
                                            verify_mod._workspace())
                assert rep.total_codes == size
                assert [part.size for part in calls] == sizes
                assert [int(c) for part in calls for c in part] == list(codes)

    def test_witness_cap_spans_chunks(self, monkeypatch):
        # Every line of codes 3, 20, 21 and 40 on 4 points set to {0, 1}:
        # the property and disjoint-diff-label fail there, in three of the
        # four 16-code chunks.
        def collapse(lines, codes):
            lines[:, np.isin(codes, (3, 20, 21, 40))] = 0b11

        monkeypatch.setattr(sw, "line_masks", edited_line_masks(collapse))
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", 16)
        full = labeled(4)
        assert full.failure_witnesses == (3, 20, 21, 40)
        assert full.laws["disjoint-diff-label"].witnesses == (3, 20, 21, 40)
        for cap in (0, 1, 2, 3):
            rep = labeled(4, cap=cap)
            assert rep.failure_witnesses == full.failure_witnesses[:cap]
            for law, stat in rep.laws.items():
                assert stat.witnesses == full.laws[law].witnesses[:cap], law

    @settings(max_examples=25, deadline=None)
    @given(chunk=st.integers(1, 1 << 15),
           bad=st.sets(st.integers(0, (1 << 10) - 1), min_size=1, max_size=6))
    def test_chunking_cannot_move_a_witness(self, chunk, bad):
        # every line of the codes in bad collapsed to {0, 1}: one distinct
        # line, so the property fails there and laws break
        def collapse(lines, codes):
            lines[:, np.isin(codes, sorted(bad))] = 0b11

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sw, "line_masks", edited_line_masks(collapse))
            whole = labeled(5)
            mp.setattr(verify_mod, "CHUNK_CODES", chunk)
            assert labeled(5) == whole
        assert whole.failure_witnesses == tuple(sorted(bad))
        assert whole.total_law_violations > 0
        for stat in whole.laws.values():
            assert bool(stat.witnesses) == bool(stat.violations)
            assert set(stat.witnesses) <= bad

    @settings(max_examples=25, deadline=None)
    @given(batch=code_batches())
    @example(batch=(5, np.zeros(1, dtype=np.int64)))
    @example(batch=(6, np.arange(0, 63 * 401, 401, dtype=np.int64)))
    @example(batch=(7, np.arange(0, 64 * 32749, 32749, dtype=np.int64)))
    @example(batch=(8, np.arange(0, 65 * 4129037, 4129037, dtype=np.int64)))
    @example(batch=(8, np.arange(0, 127 * 2113663, 2113663, dtype=np.int64)))
    @example(batch=(6, np.repeat(np.arange(0, 21 * 401, 401), 3)[::-1].copy()))
    def test_tail_word_counts_nothing(self, batch):
        # the bits past a batch's last code read as code 0 and must add
        # nothing: one sweep of the batch equals its sweep one code per
        # chunk, in any code order, since a batch and the minimum over its
        # chunks both break a tie of least counts by the smaller code
        n, codes = batch
        cap = codes.size
        whole = verify_mod._sweep(n, "sample", codes, "full", cap, sw.Workspace())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify_mod, "CHUNK_CODES", 1)
            alone = verify_mod._sweep(n, "sample", codes, "full", cap, sw.Workspace())
        assert whole == alone
        assert whole.total_codes == codes.size and 0 in codes

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_theorem(1)
        with pytest.raises(ValueError):
            verify_theorem(9)
        with pytest.raises(ValueError):
            verify_theorem(4, mode="fancy")

    def test_progress_reporting(self, monkeypatch):
        calls = []
        labeled(4, progress=lambda done, total: calls.append((done, total)))
        assert calls == [(64, 64)]
        # exhaustive reports: points of the class growth, once per step
        calls.clear()
        verify_theorem(4, progress=lambda done, total: calls.append((done, total)))
        claims_sweep(4, progress=lambda done, total: calls.append((done, total)))
        assert calls == [(3, 4), (4, 4)] * 2
        # iso mode: points of the class representatives, once per step
        calls.clear()
        verify_theorem(5, mode="iso",
                       progress=lambda done, total: calls.append((done, total)))
        assert calls == [(3, 5), (4, 5), (5, 5)]
        # a labeled or sampled sweep: codes done after each chunk
        calls.clear()
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", 1024)
        labeled(6, progress=lambda done, total: calls.append((done, total)))
        assert calls == [(done, 1 << 15) for done in range(1024, 32769, 1024)]


def class_faults(n, chosen):
    """A stand-in for sw.line_masks that empties every line of each code
    whose refined code is in chosen.  All codes of a class get the same
    edit, so both routes see the same spaces, and each count of a faulted
    code is the same across its orbit: one distinct line, no universal line,
    and one class of all edges."""
    def empty(lines, codes):
        lines[:, np.isin(sw.refined_codes(n, codes)[0], chosen)] = 0

    return edited_line_masks(empty)


class TestClassReports:
    """verify_theorem and exhaustive claims_sweep report from one sweep of
    the isomorphism classes, weighted by orbit size; the labeled sweep of
    every code is their cross-check."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equal_the_labeled_sweep(self, n, monkeypatch):
        # at n <= 7 both take verify_theorem's level, in this process
        want = cached_report(n)
        monkeypatch.setattr(multiprocessing, "Pool", None)
        assert verify_theorem(n) == want
        assert claims_sweep(n) == want

    @pytest.mark.parametrize("n, level", [(2, "full"), (4, "full"), (5, "full"),
                                          (5, "vector"), (5, "none"), (6, "full")])
    def test_faulted_classes_equal_the_labeled_sweep(self, n, level, monkeypatch):
        # the class of code 0, which also fills the lanes past the batch, and
        # the classes of the largest orbit and of a middle one
        *_, (_, reps, aut) = sw.iso_classes(n)
        size = factorial(n) // aut
        chosen = np.unique([0, reps[np.argmax(size)], reps[reps.size // 2]])
        flagged = int(size[np.isin(reps, chosen)].sum())
        big = int(size[np.isin(reps, chosen)].max()) + 1
        monkeypatch.setattr(sw, "line_masks", class_faults(n, chosen))
        for cap in (0, 1, 3, big):
            rep = verify_mod._sweep(n, "all", reps, level, cap, verify_mod._workspace(),
                                    size)
            assert rep == labeled(n, level, cap=cap)
            assert rep.dbe_failures == flagged
            assert rep.failure_witnesses == rep.failure_witnesses[:cap]
            assert len(rep.failure_witnesses) == min(cap, flagged)
            if rep.laws is not None:
                assert rep.total_law_violations > 0

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_class_chunks_equal_one_batch(self, n, chunk, monkeypatch):
        # every class report swept chunk classes at a time equals its sweep
        # as one batch (the default chunk holds every class set to n = 8).
        # To n = 6 the classes chosen as in the test above are faulted, and
        # the caps reach past every witness; n = 7 runs unfaulted.
        def reports(cap):
            return (verify_theorem(n, max_witnesses=cap),
                    verify_theorem(n, mode="iso", max_witnesses=cap),
                    claims_sweep(n, max_witnesses=cap))

        caps = (100,)
        if n <= 6:
            *_, (_, reps, aut) = sw.iso_classes(n)
            size = factorial(n) // aut
            chosen = np.unique([0, reps[np.argmax(size)], reps[reps.size // 2]])
            flagged = int(size[np.isin(reps, chosen)].sum())
            caps = (0, 1, 3, flagged + 1)
            monkeypatch.setattr(sw, "line_masks", class_faults(n, chosen))
        whole = {cap: reports(cap) for cap in caps}
        table = min_lines_table(n)
        assert verify_mod.CHUNK_CODES >= ISO_CLASSES[n]
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", chunk)
        for cap in caps:
            assert reports(cap) == whole[cap], cap
        assert min_lines_table(n) == table
        if n <= 6:
            full, iso, _ = whole[caps[-1]]
            assert full.dbe_failures == len(full.failure_witnesses) == flagged
            assert full.total_law_violations > 0
            assert iso.dbe_failures == len(iso.failure_witnesses) == chosen.size
            assert table[-1].dbe_failures == chosen.size

    def test_one_level_at_n8(self):
        # both routes sweep at "vector"; acceptance C2b checks them against
        # the labeled sweep of all 2^28 codes
        rep = verify_theorem(8)
        assert claims_sweep(8) == rep
        assert rep.checker_level == "vector" and list(rep.laws) == LEVEL_LAWS["vector"]
        assert (rep.total_codes, rep.twin_free_codes, rep.dbe_failures,
                rep.total_law_violations) == (1 << 28, 218_608_712, 0, 0)

    @pytest.mark.parametrize("n", [4, 5])
    def test_orbit_witnesses_are_the_least_orbit_codes(self, n):
        codes = np.arange(1 << pair_count(n), dtype=np.int64)
        least = sw.canonical_min(n, codes)
        reps = np.array(sorted(set(least.tolist())), dtype=np.int64)[1::3]
        refined, aut = sw.refined_codes(n, reps)
        whole = codes[np.isin(least, reps)]
        # without weights a code stands for itself, and a repeat counts once
        repeated = np.tile(whole[::-1], 2)
        for cap in (0, 1, 2, 7, 40, whole.size + 1):
            assert verify_mod._smallest(n, repeated, None, cap) == whole[:cap].tolist()
            # a weight of n!/|Aut| stands for the whole orbit, 1 for its minimum
            assert verify_mod._smallest(n, refined, factorial(n) // aut, cap) == \
                whole[:cap].tolist()
            assert verify_mod._smallest(n, refined, np.ones_like(aut), cap) == \
                reps[:cap].tolist()
            two = np.sort(np.concatenate([codes[least == r][:2] for r in reps]))
            assert verify_mod._smallest(n, refined, np.full_like(aut, 2), cap) == \
                two[:cap].tolist()
        # cap 1 names the least orbit minimum, whatever the weights and the
        # order of the classes
        for weights in (factorial(n) // aut, np.ones_like(aut)):
            assert verify_mod._smallest(n, refined[::-1], weights[::-1], 1) == [reps[0]]
            assert verify_mod._smallest(n, refined[-2:], weights[-2:], 1) == [reps[-2]]


# the laws each checker level reports, in report order
LEVEL_LAWS = {
    "none": None,
    "vector": ["disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin",
               "twin-a", "twin-b", "twin-c", "class-size"],
    "full": list(verify_mod.LAW_ORDER),
}


class TestOneReportBuilder:
    """_sweep builds every report, in the mode it is given: the sweep of no
    codes is the report of an empty sample, and a report swept in chunks
    keeps the laws of one batch in order."""

    @pytest.mark.parametrize("level", ["none", "vector", "full"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_empty_batch(self, n, level):
        none = np.empty(0, dtype=np.int64)
        calls = []
        rep = verify_mod._sweep(n, "sample", none, level, 5, sw.Workspace(),
                                progress=lambda done, total: calls.append(done))
        assert calls == []
        assert (rep.n, rep.mode, rep.checker_level) == (n, "sample", level)
        assert (rep.total_codes, rep.dbe_failures, rep.failure_witnesses) == (0, 0, ())
        assert rep.min_lines_overall is rep.argmin_overall is None
        assert rep.min_lines_no_universal is rep.argmin_no_universal is None
        if level == "none":
            assert rep.laws is None and rep.twin_free_codes is None
        else:
            assert list(rep.laws) == LEVEL_LAWS[level]
            assert all(stat == verify_mod.LawStat(0, 0, ())
                       for stat in rep.laws.values())
            assert rep.twin_free_codes == 0
        if level == "full":
            assert list(rep.class_counts_by_shape.values()) == [0, 0, 0]
        else:
            assert rep.class_counts_by_shape is None
        assert verify_mod._sweep(n, "sample", range(0), level, 5,
                                 verify_mod._workspace()) == rep

    @pytest.mark.parametrize("level", ["none", "vector", "full"])
    def test_merge_keeps_the_chunk_law_order(self, level, monkeypatch):
        n = 7
        codes = np.random.default_rng(90).integers(0, 1 << pair_count(n), 300)
        chunk = verify_mod._sweep(n, "sample", codes, level, 5, sw.Workspace())
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", 130)
        merged = verify_mod._sweep(n, "sample", codes, level, 5, verify_mod._workspace())
        assert merged == chunk
        if level == "none":
            assert merged.laws is None
        else:
            assert list(merged.laws) == list(chunk.laws) == LEVEL_LAWS[level]
        if level == "full":
            assert list(merged.class_counts_by_shape) == \
                list(chunk.class_counts_by_shape)


def sweep_batch(n, size, seed):
    """size ascending codes on n points: a run from a random start when n
    has at least twice as many codes, else sorted random codes."""
    top = 1 << pair_count(n)
    rng = np.random.default_rng(seed)
    if size <= top // 2:
        lo = int(rng.integers(0, top - size))
        return np.arange(lo, lo + size, dtype=np.int64)
    return np.sort(rng.integers(0, top, size))


# the batches of one workspace: n and W both grow and shrink, and a 65-code
# tail has one valid bit in its second word
MIXED_BATCHES = ((8, 100), (5, 1), (7, 1 << 16), (7, 65))


def buffer_addresses(ws):
    return {slot: buf.ctypes.data for slot, buf in ws._buffers.items()}


def poison(ws):
    """Set every bit of every buffer of ws, as a batch might leave it."""
    for buf in ws._buffers.values():
        buf.fill(sw.ALL)


class Unshared(sw.Workspace):
    """A workspace that hands out a new zeroed buffer on every request, so
    no kernel sees what another one, or another batch, left: the reference
    that a reused workspace must equal."""

    def _flat(self, slot, size):
        return np.zeros(size, dtype=np.uint64)


def unshared_sweep(n, codes, checkers):
    return verify_mod._sweep(n, "all", codes, checkers, 5, Unshared())


class TestWorkspaceReuse:
    """A workspace carries buffers, never results, from batch to batch."""

    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("checkers", ["full", "vector", "none"])
    def test_mixed_batches_equal_fresh_sweeps(self, order, checkers):
        ws = sw.Workspace()
        for seed, (n, size) in enumerate(MIXED_BATCHES[::order]):
            codes = sweep_batch(n, size, seed)
            kept = verify_mod._sweep(n, "all", codes, checkers, 5, ws)
            fresh = verify_mod._sweep(n, "all", codes, checkers, 5, sw.Workspace())
            assert kept == fresh == unshared_sweep(n, codes, checkers)

    @pytest.mark.parametrize("n, size", [(4, 1), (6, 65), (7, 200), (8, 127)])
    def test_stale_buffers_count_nothing(self, n, size):
        # every buffer is first grown past this batch, then filled with ones:
        # the label block's tail, the distance-1 diagonal and every counter
        # a kernel ORs into must be cleared before they are read
        codes = sweep_batch(n, size, n)
        ws = sw.Workspace()
        verify_mod._sweep(8, "all", sweep_batch(8, 1 << 10, 0), "full", 0, ws)
        poison(ws)
        kept = verify_mod._sweep(n, "all", codes, "full", 5, ws)
        assert kept == unshared_sweep(n, codes, "full")

    def test_same_shape_allocates_nothing(self):
        ws = sw.Workspace()
        first = verify_mod._sweep(7, "all", sweep_batch(7, 1 << 12, 1), "full", 5, ws)
        grown = buffer_addresses(ws)
        assert {"bits", "ones", "lines", "seen", "pairs", "twins",
                "scratch"} <= set(grown)
        for seed, size in ((2, 1 << 12), (3, 100)):
            verify_mod._sweep(7, "all", sweep_batch(7, size, seed), "full", 5, ws)
            assert buffer_addresses(ws) == grown
        # nothing in a report is a plane that the next batch overwrites
        assert not any(isinstance(v, np.ndarray) for v in vars(first).values())

    def test_chunks_share_the_process_workspace(self, monkeypatch):
        # the second of two equal chunks reuses the first one's buffers: the
        # buffers as the second chunk starts are those that the sweep ends with
        ws = verify_mod._workspace()
        grown = []
        label_bits = sw.label_bits

        def recorded(n, codes, chunk_ws):
            assert chunk_ws is ws
            grown.append(buffer_addresses(ws))
            return label_bits(n, codes, chunk_ws)

        monkeypatch.setattr(sw, "label_bits", recorded)
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", 1 << 12)
        verify_mod._sweep(7, "all", range(1 << 13), "vector", 5, ws)
        grown.append(buffer_addresses(ws))
        assert len(grown) == 3 and grown[1] == grown[2]
        assert verify_mod._workspace() is ws


class TestClaimsSweep:
    def test_exhaustive_matches_scalar_aggregation(self):
        n = 4
        rep = claims_sweep(n)
        assert rep.mode == "all" and list(rep.laws) == list(verify_mod.LAW_ORDER)
        assert rep.total_codes == 64
        # recompute two law entries directly from the scalar law pass
        from dbelines.structure import law_violations
        cover_inst = 0
        shape_inst = 0
        tf_codes = 0
        for code in range(64):
            space = space_from_code(n, code)
            family = all_lines(space)
            from dbelines import equiv_classes
            classes = equiv_classes(family, space)
            full = (1 << n) - 1
            for cls in classes:
                cover = 0
                for e in cls.edges:
                    cover |= (1 << e.u) | (1 << e.v)
                if cover == full:
                    cover_inst += 1
            if not twin_pairs(space):
                tf_codes += 1
                shape_inst += len(classes)
            found = law_violations(space, family)
            assert found["full-cover"] == found["class-shape"] == []
        assert rep.twin_free_codes == tf_codes
        assert rep.laws["full-cover"].instances == cover_inst
        assert rep.laws["class-shape"].instances == shape_inst
        assert rep.total_law_violations == 0

    def test_exhaustive_n7_skips_python_laws(self):
        rep = claims_sweep(7, max_witnesses=5)
        assert claims_report_to_json(rep, 0)["skipped_laws"] == [
            "full-cover", "class-shape"]
        assert rep.total_law_violations == 0

    def test_sampled_runs_all_laws(self):
        rep = claims_sweep(7, trials=400, seed=11)
        results = claims_report_to_json(rep, 11)
        assert results["sampling"] == {"trials": 400, "seed": 11}
        assert rep.mode == "sample" and rep.total_codes == 400
        assert results["skipped_laws"] == []
        assert rep.total_law_violations == 0

    def test_sampling_deterministic(self):
        assert claims_sweep(6, trials=200, seed=5) == claims_sweep(6, trials=200, seed=5)

    def test_trials_zero(self):
        # an empty sample still reports every law, each at 0/0
        rep = claims_sweep(5, trials=0, seed=1)
        assert rep.total_codes == 0 and rep.total_law_violations == 0
        assert list(rep.laws) == [
            "disjoint-diff-label", "adjacent-label2", "adjacent-label1-nontwin",
            "twin-a", "twin-b", "twin-c", "full-cover", "class-shape",
            "class-size"]
        assert all(stat == verify_mod.LawStat(0, 0, ())
                   for stat in rep.laws.values())
        assert claims_report_to_json(rep, 1)["skipped_laws"] == []


def randrange_codes(n: int, seed: int, trials: int) -> list[int]:
    """The sample of claims_sweep by its definition: one randrange per trial."""
    rng = random.Random(seed)
    return [rng.randrange(1 << pair_count(n)) for _ in range(trials)]


class TestSampleCodes:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
    @pytest.mark.parametrize("trials", [0, 1, 1001])
    def test_equals_randrange(self, n, seed, trials):
        codes = verify_mod._sample_codes(random.Random(seed), n, trials)
        assert codes.dtype == np.int64 and codes.shape == (trials,)
        assert codes.tolist() == randrange_codes(n, seed, trials)

    def test_draw_spans_blocks(self, monkeypatch):
        # with 64-word blocks a 1000-code draw takes about 31 of them; the
        # seed puts rejected words (top bit set) last and first in a block
        seed, trials = 5, 1000
        rng = random.Random(seed)
        rejected = [rng.getrandbits(32) >> 31 for _ in range(512)]
        assert any(rejected[i] for i in range(63, 512, 64))
        assert any(rejected[i] for i in range(64, 512, 64))
        monkeypatch.setattr(verify_mod, "_DRAW_WORDS", 64)
        for n in (2, 5, 8):
            codes = verify_mod._sample_codes(random.Random(seed), n, trials)
            assert codes.tolist() == randrange_codes(n, seed, trials)

    @given(n=st.integers(2, 8), seed=st.integers(0, 2**64),
           trials=st.integers(0, 3000), words=st.integers(1, 1 << 14))
    @settings(max_examples=40, deadline=None)
    def test_any_seed_and_block(self, n, seed, trials, words):
        with mock.patch.object(verify_mod, "_DRAW_WORDS", words):
            codes = verify_mod._sample_codes(random.Random(seed), n, trials)
        assert codes.tolist() == randrange_codes(n, seed, trials)

    def test_draw_holds_one_block(self):
        # a 200,000-code draw needs about 25 blocks of words; no call asks
        # for more than one, and beyond the codes it allocates less than
        # five blocks' bytes (a whole-sample draw would take 1.6 MB per array)
        asked = []

        class Recording(random.Random):
            def getrandbits(self, k):
                asked.append(k)
                return super().getrandbits(k)

        trials = 200_000
        tracemalloc.start()
        try:
            codes = verify_mod._sample_codes(Recording(3), 8, trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(asked) > 1
        assert max(asked) <= 32 * verify_mod._DRAW_WORDS
        assert peak - codes.nbytes < 5 * 4 * verify_mod._DRAW_WORDS
        assert codes.tolist() == randrange_codes(8, 3, trials)


class TestMinLinesTable:
    def test_frozen_values(self):
        rows = min_lines_table(6)
        assert [r.n for r in rows] == [2, 3, 4, 5, 6]
        for r in rows:
            assert (r.min_lines_overall, r.argmin_overall,
                    r.min_lines_no_universal, r.argmin_no_universal) == \
                MIN_LINES_EXPECTED[r.n]

    def test_witnesses_reverify(self):
        for r in min_lines_table(5):
            v = dbe_verdict(space_from_code(r.n, r.argmin_overall))
            assert v.line_count == r.min_lines_overall
            if r.argmin_no_universal is not None:
                v = dbe_verdict(space_from_code(r.n, r.argmin_no_universal))
                assert v.line_count == r.min_lines_no_universal
                assert not v.has_universal

    def test_rows_equal_the_labeled_sweeps(self):
        # the representatives' table against the sweeps of all 2^C(n,2) codes
        for r in min_lines_table(7):
            rep = cached_report(r.n)
            assert (r.min_lines_overall, r.argmin_overall, r.min_lines_no_universal,
                    r.argmin_no_universal) == \
                (rep.min_lines_overall, rep.argmin_overall,
                 rep.min_lines_no_universal, rep.argmin_no_universal)
            assert (r.mode, r.total_codes, r.dbe_failures) == \
                ("iso", ISO_CLASSES[r.n], 0)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_argmins_name_orbit_minima(self, n, orbit_minima):
        # the largest code of each class stands for it, and the argmins
        # still name the smallest labeled codes
        codes = np.arange(1 << pair_count(n), dtype=np.int64)
        largest = dict(zip(orbit_minima(n).tolist(), codes.tolist()))
        reps = np.array(sorted(largest.values()), dtype=np.int64)
        rep = cached_report(n)
        want = (rep.argmin_overall, rep.argmin_no_universal)
        got = verify_mod._sweep(n, "iso", reps, "none", 0, sw.Workspace(),
                                np.ones_like(reps))
        assert (got.argmin_overall, got.argmin_no_universal) == want
        plain = verify_mod._sweep(n, "all", reps, "none", 0, sw.Workspace())
        assert (plain.argmin_overall, plain.argmin_no_universal) != want

    def test_n8_row(self):
        # the labeled sweep of all 2^28 codes gives the same row
        # (acceptance C10b, opt-in)
        calls = []
        *_, r = min_lines_table(8, progress=lambda m, n: calls.append((m, n)))
        assert calls == [(m, 8) for m in range(2, 9)]
        assert (r.n, r.min_lines_overall, r.argmin_overall,
                r.min_lines_no_universal, r.argmin_no_universal) == \
            (8, 7, 297024, 12, 287761)
        v = dbe_verdict(space_from_code(8, r.argmin_overall))
        assert v.line_count == 7
        v = dbe_verdict(space_from_code(8, r.argmin_no_universal))
        assert v.line_count == 12 and not v.has_universal
        # each argmin is the least code of its class
        assert canonical_codes(8, [r.argmin_overall, r.argmin_no_universal]).tolist() == \
            [297024, 287761]

    def test_progress_once_per_row(self):
        calls = []
        min_lines_table(6, progress=lambda m, n: calls.append((m, n)))
        assert calls == [(2, 6), (3, 6), (4, 6), (5, 6), (6, 6)]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            min_lines_table(1)
        with pytest.raises(ValueError):
            min_lines_table(9)


class TestSixPointWitnesses:
    def test_line_counts(self):
        wits = six_point_witnesses()
        assert tuple(w.line_count for w in wits) == WITNESS_LINE_COUNTS
        assert all(w.line_count >= 6 for w in wits)

    def test_spaces_are_valid_one_two(self):
        for w in six_point_witnesses():
            # reconstructs and revalidates the matrix
            again = as_one_two(MetricSpace.from_rows(
                w.space.row(i) for i in range(6)))
            assert again == w.space
            assert code_from_space(w.space) == w.code

    def test_fixed_block_distances(self):
        u, v, w_, x, y, z = range(6)
        for wit in six_point_witnesses():
            s = wit.space
            assert (s.dist(u, w_), s.dist(u, x), s.dist(v, w_), s.dist(v, x)) == (1, 1, 1, 1)
            assert (s.dist(u, v), s.dist(w_, x)) == (2, 2)
            assert (s.dist(u, y), s.dist(w_, y), s.dist(v, y), s.dist(x, y)) == (1, 1, 2, 2)
            assert s.dist(u, z) == s.dist(x, z) == wit.d_uz_xz
            assert s.dist(v, z) == s.dist(w_, z) == wit.d_vz_wz
            assert s.dist(y, z) == wit.d_yz

    def test_case_coverage(self):
        cases = {(w.d_uz_xz, w.d_vz_wz, w.d_yz) for w in six_point_witnesses()}
        assert cases == {(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
                         (2, 2, 1), (2, 2, 2)}


class TestRandomMetrics:
    def test_generator_respects_bounds(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            for _ in range(50):
                rows = verify_mod._draw_int_rows(rng, n)
                MetricSpace.from_rows(rows)  # must not raise
                for i, j in iter_pairs(n):
                    d = Fraction(rows[i][j], verify_mod._COMMON_DENOM)
                    assert 0 < d <= 4
                    assert d.denominator <= 16

    def test_generator_deterministic(self):
        a = verify_mod._draw_int_rows(random.Random(23), 4)
        b = verify_mod._draw_int_rows(random.Random(23), 4)
        assert a == b

    def test_small_run_clean(self):
        rep = verify_small_spaces(trials=300, seed=42)
        assert rep.exhaustive == ((2, 2, 0), (3, 8, 0), (4, 64, 0))
        assert rep.random == ((2, 300, 0), (3, 300, 0), (4, 300, 0))
        assert rep.total_failures == 0
        assert rep.failure_examples == ()

    def test_zero_trials(self):
        rep = verify_small_spaces(trials=0, seed=1)
        assert rep.random == ((2, 0, 0), (3, 0, 0), (4, 0, 0))
        assert rep.total_failures == 0

    def test_deterministic_in_seed(self):
        assert verify_small_spaces(trials=50, seed=7) == verify_small_spaces(trials=50, seed=7)
