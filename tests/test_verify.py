"""Sweeps, canonicalization, witnesses, minima, and the random harness."""

import random
from fractions import Fraction

import numpy as np
import pytest

from dbelines import (all_lines, as_one_two, claims_sweep, code_from_space,
                      dbe_verdict, min_lines_table, random_rational_metric,
                      six_point_witnesses, space_from_code, twin_pairs,
                      validate_metric, verify_small_spaces, verify_theorem)
from dbelines import sweep as sw
from dbelines import verify as verify_mod
from dbelines.bitset import iter_pairs, pair_count, pair_index

from reference import ref_canonical_code

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
ISO_CLASSES = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156}

WITNESS_LINE_COUNTS = (12, 12, 12, 10, 11, 9)


def canonical(n, code):
    return int(sw.canonical_min(n, np.array([code], dtype=np.int64))[0])


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
                canon = sw.canonical_min(n, np.array(relabeled, dtype=np.int64))
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
        line_masks = sw.line_masks

        def swapped(n, codes, ones):
            lines = line_masks(n, codes, ones)
            col = codes == 3
            lines[0, col], lines[1, col] = lines[1, col], lines[0, col]
            return lines

        monkeypatch.setattr(sw, "line_masks", swapped)
        rep = verify_theorem(4)
        for law in ("full-cover", "class-shape"):
            assert (rep.laws[law].violations, rep.laws[law].witnesses) == (2, (3,))
        assert rep.class_counts_by_shape["other"] == SHAPE_HIST_EXPECTED[4]["other"] + 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_iso_stats(self, n):
        rep = verify_theorem(n, mode="iso", checkers="none")
        assert rep.total_codes == ISO_CLASSES[n]

    @pytest.mark.parametrize("n", list(ISO_CLASSES))
    def test_iso_mode_counts_and_agreement(self, n):
        iso = verify_theorem(n, mode="iso")
        assert iso.total_codes == ISO_CLASSES[n]
        full = verify_theorem(n)
        assert iso.dbe_failures == full.dbe_failures == 0
        assert iso.min_lines_overall == full.min_lines_overall
        assert iso.min_lines_no_universal == full.min_lines_no_universal
        assert iso.argmin_overall == full.argmin_overall
        assert iso.argmin_no_universal == full.argmin_no_universal

    def test_partition_independence(self, monkeypatch):
        base = verify_theorem(5)
        assert verify_theorem(5, jobs=2) == base
        assert verify_theorem(5, jobs=5) == base
        monkeypatch.setattr(verify_mod, "CHUNK_CODES", 64)
        assert verify_theorem(5) == base

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_theorem(1)
        with pytest.raises(ValueError):
            verify_theorem(9)
        with pytest.raises(ValueError):
            verify_theorem(4, mode="fancy")
        with pytest.raises(ValueError):
            verify_theorem(8, mode="iso")
        with pytest.raises(ValueError):
            verify_theorem(4, checkers="sometimes")

    def test_progress_reporting(self):
        calls = []
        verify_theorem(4, progress=lambda done, total: calls.append((done, total)))
        assert calls == [(64, 64)]


class TestClaimsSweep:
    def test_exhaustive_matches_scalar_aggregation(self):
        n = 4
        rep = claims_sweep(n)
        assert rep.sampling is None and rep.skipped_laws == ()
        assert rep.total_codes == 64
        # recompute two law entries directly from the scalar checkers
        from dbelines import check_full_cover_classes, check_twin_free_shapes
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
            assert check_full_cover_classes(space) == []
            assert check_twin_free_shapes(space).violations == ()
        assert rep.twin_free_codes == tf_codes
        assert rep.laws["full-cover"].instances == cover_inst
        assert rep.laws["class-shape"].instances == shape_inst
        assert rep.total_violations == 0

    def test_exhaustive_n7_skips_python_laws(self):
        rep = claims_sweep(7, max_witnesses=5)
        assert rep.skipped_laws == ("full-cover", "class-shape")
        assert rep.total_violations == 0

    def test_sampled_runs_all_laws(self):
        rep = claims_sweep(7, trials=400, seed=11)
        assert rep.sampling == (400, 11)
        assert rep.total_codes == 400
        assert rep.skipped_laws == ()
        assert rep.total_violations == 0

    def test_sampling_deterministic(self):
        assert claims_sweep(6, trials=200, seed=5) == claims_sweep(6, trials=200, seed=5)

    def test_trials_zero(self):
        rep = claims_sweep(5, trials=0, seed=1)
        assert rep.total_codes == 0 and rep.total_violations == 0


class TestMinLinesTable:
    def test_frozen_values(self):
        rows = min_lines_table(2, 6)
        assert [r.n for r in rows] == [2, 3, 4, 5, 6]
        for r in rows:
            assert (r.min_lines_overall, r.argmin_overall,
                    r.min_lines_no_universal, r.argmin_no_universal) == \
                MIN_LINES_EXPECTED[r.n]

    def test_witnesses_reverify(self):
        for r in min_lines_table(2, 5):
            v = dbe_verdict(space_from_code(r.n, r.argmin_overall))
            assert v.line_count == r.min_lines_overall
            if r.argmin_no_universal is not None:
                v = dbe_verdict(space_from_code(r.n, r.argmin_no_universal))
                assert v.line_count == r.min_lines_no_universal
                assert not v.has_universal

    def test_bad_range(self):
        with pytest.raises(ValueError):
            min_lines_table(3, 2)
        with pytest.raises(ValueError):
            min_lines_table(2, 9)


class TestSixPointWitnesses:
    def test_line_counts(self):
        wits = six_point_witnesses()
        assert tuple(w.line_count for w in wits) == WITNESS_LINE_COUNTS
        assert all(w.line_count >= 6 for w in wits)

    def test_spaces_are_valid_one_two(self):
        for w in six_point_witnesses():
            # reconstructs and revalidates the matrix
            again = as_one_two(validate_metric(w.space.to_metric_space().matrix))
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
                space = random_rational_metric(rng, n)
                for i, j in iter_pairs(n):
                    d = Fraction(space.dist(i, j))
                    assert 0 < d <= 4
                    assert d.denominator <= 16

    def test_generator_deterministic(self):
        a = random_rational_metric(random.Random(23), 4)
        b = random_rational_metric(random.Random(23), 4)
        assert a.matrix.rows == b.matrix.rows

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
