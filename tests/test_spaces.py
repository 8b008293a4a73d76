"""Metric core: parsing, validation, 1-2 views, and label codes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbelines.bitset import pair_count
from dbelines.spaces import (DistanceMatrix, MatrixFormatError,
                             MetricAxiomError, MetricSpace, NotOneTwoError,
                             OneTwoSpace, as_one_two, code_from_space,
                             parse_distance_matrix, serialize_distance_matrix,
                             space_from_code, validate_metric)

from reference import random_metric

PATH3 = "3\n0 1 2\n1 0 1\n2 1 0\n"


class TestParse:
    def test_path_space(self):
        m = parse_distance_matrix(PATH3)
        assert m.n == 3
        assert m.rows == ((0, 1, 2), (1, 0, 1), (2, 1, 0))

    def test_two_points(self):
        m = parse_distance_matrix("2\n0 1\n1 0\n")
        assert m.n == 2
        assert m.rows[0][1] == 1

    def test_short_row_rejected(self):
        with pytest.raises(MatrixFormatError, match="row 0 has 2 entries"):
            parse_distance_matrix("3\n0 1\n1 0 1\n1 1 0\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# path space\n\n3\n0 1 2\n# middle row next\n1 0 1\n\n2 1 0\n"
        assert parse_distance_matrix(text).rows == parse_distance_matrix(PATH3).rows

    def test_exact_decimals_and_ratios(self):
        m = parse_distance_matrix("2\n0 1.5\n3/2 0\n")
        assert m.rows[0][1] == Fraction(3, 2)
        assert m.rows[1][0] == Fraction(3, 2)

    @pytest.mark.parametrize("text, hint", [
        ("", "empty"),
        ("x\n", "point count"),
        ("0\n", ">= 1"),
        ("2\n0 1\n", "expected 2 matrix rows"),
        ("2\n0 1\n1 0\n0 0\n", "expected 2 matrix rows"),
        ("2\n0 one\none 0\n", "non-numeric"),
        ("2\n0 -1\n-1 0\n", "negative"),
    ])
    def test_malformed_inputs(self, text, hint):
        with pytest.raises(MatrixFormatError, match=hint):
            parse_distance_matrix(text)

    def test_serialize_round_trip(self):
        m = parse_distance_matrix("2\n0 1.5\n3/2 0\n")
        again = parse_distance_matrix(serialize_distance_matrix(m))
        assert again.rows == m.rows

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60))
    def test_arbitrary_text_fails_cleanly(self, text):
        # junk must either parse or raise MatrixFormatError, nothing else
        try:
            parse_distance_matrix(text)
        except MatrixFormatError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10**9))
    def test_serialize_round_trip_random_metrics(self, n, seed):
        space = random_metric(random.Random(seed), n)
        again = parse_distance_matrix(serialize_distance_matrix(space.matrix))
        assert again.rows == space.matrix.rows


class TestValidate:
    def test_path_space_valid(self):
        space = validate_metric(parse_distance_matrix(PATH3))
        assert isinstance(space, MetricSpace)
        assert space.dist(0, 2) == 2

    def test_triangle_violation_witness(self):
        m = DistanceMatrix.from_rows([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
        with pytest.raises(MetricAxiomError) as exc:
            validate_metric(m)
        assert exc.value.axiom == "triangle"
        assert exc.value.witness == (0, 2, 1)

    def test_symmetry_violation_witness(self):
        with pytest.raises(MetricAxiomError) as exc:
            validate_metric(DistanceMatrix.from_rows([[0, 1], [2, 0]]))
        assert exc.value.axiom == "symmetry"
        assert exc.value.witness == (0, 1)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(MetricAxiomError) as exc:
            validate_metric(DistanceMatrix.from_rows([[1, 1], [1, 0]]))
        assert exc.value.axiom == "zero-diagonal"
        assert exc.value.witness == (0,)

    # a symmetric 1-2 matrix with a zero diagonal skips the triangle loop;
    # the axioms checked before it still reject the other 1-2 matrices, and
    # other distances still reach the loop
    def test_one_two_checks_before_the_triangles(self):
        with pytest.raises(MetricAxiomError) as exc:
            validate_metric(DistanceMatrix.from_rows([[0, 1, 2], [1, 0, 1], [1, 1, 0]]))
        assert (exc.value.axiom, exc.value.witness) == ("symmetry", (0, 2))
        with pytest.raises(MetricAxiomError) as exc:
            validate_metric(DistanceMatrix.from_rows([[0, 2, 1], [2, 2, 1], [1, 1, 0]]))
        assert (exc.value.axiom, exc.value.witness) == ("zero-diagonal", (1,))
        with pytest.raises(MetricAxiomError) as exc:
            validate_metric(DistanceMatrix.from_rows([[0, 1, 3], [1, 0, 1], [3, 1, 0]]))
        assert (exc.value.axiom, exc.value.witness) == ("triangle", (0, 1, 2))

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(MetricAxiomError) as exc:
            validate_metric(DistanceMatrix.from_rows([[0, 0], [0, 0]]))
        assert exc.value.axiom == "positivity"

    def test_from_rows_shape_errors(self):
        with pytest.raises(MatrixFormatError):
            DistanceMatrix.from_rows([[0, 1]])
        with pytest.raises(MatrixFormatError):
            DistanceMatrix.from_rows([])
        with pytest.raises(MatrixFormatError):
            DistanceMatrix.from_rows([[0, 0.5], [0.5, 0]])  # float is inexact


class TestAsOneTwo:
    def test_path_space_masks(self):
        ots = as_one_two(validate_metric(parse_distance_matrix(PATH3)))
        assert ots.adj == (0b010, 0b101, 0b010)

    def test_all_one_space(self):
        rows = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
        ots = as_one_two(MetricSpace.from_rows(rows))
        assert all(ots.adj[p] == 0b1111 ^ (1 << p) for p in range(4))

    def test_off_range_distance(self):
        space = MetricSpace.from_rows([[0, Fraction(3, 2)], [Fraction(3, 2), 0]])
        with pytest.raises(NotOneTwoError) as exc:
            as_one_two(space)
        assert exc.value.pair == (0, 1)
        assert exc.value.value == Fraction(3, 2)

    def test_dist_and_row(self):
        ots = space_from_code(3, 0b010)
        assert [ots.dist(0, j) for j in range(3)] == [0, 1, 2]
        assert ots.row(1) == [1, 0, 1]
        assert ots.row(0) == [0, 1, 2]


class TestLabelCodes:
    def test_code_zero_is_all_one(self):
        ots = space_from_code(4, 0)
        assert all(ots.dist(i, j) == 1 for i in range(4) for j in range(4) if i != j)

    def test_bit_order(self):
        # bits are (0,1), (0,2), (1,2); 0b010 sets only (0,2)
        ots = space_from_code(3, 0b010)
        assert ots.dist(0, 2) == 2
        assert ots.dist(0, 1) == 1
        assert ots.dist(1, 2) == 1

    def test_all_two(self):
        ots = space_from_code(3, 0b111)
        assert all(ots.dist(i, j) == 2 for i in range(3) for j in range(3) if i != j)

    def test_encode_examples(self):
        assert code_from_space(space_from_code(5, 0)) == 0
        assert code_from_space(space_from_code(3, 7)) == 7
        path = as_one_two(validate_metric(parse_distance_matrix(PATH3)))
        assert code_from_space(path) == 0b010

    @pytest.mark.parametrize("n", range(2, 9))
    def test_round_trip_1000_random_codes(self, n):
        rng = random.Random(10_000 + n)
        top = 1 << pair_count(n)
        for _ in range(1000):
            c = rng.randrange(top)
            assert code_from_space(space_from_code(n, c)) == c

    def test_code_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            space_from_code(3, 8)
        with pytest.raises(ValueError, match="out of range"):
            space_from_code(3, -1)
        with pytest.raises(ValueError):
            space_from_code(0, 0)
        with pytest.raises(ValueError):
            space_from_code(65, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_every_code_yields_a_metric(self, n, data):
        code = data.draw(st.integers(0, (1 << pair_count(n)) - 1))
        ots = space_from_code(n, code)
        MetricSpace.from_rows(ots.row(i) for i in range(n))  # must not raise


class TestOneTwoSpaceInvariants:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            OneTwoSpace(2, (0b10, 0b00))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            OneTwoSpace(2, (0b01, 0b10))

    def test_stray_bits_rejected(self):
        with pytest.raises(ValueError, match="bits >= n"):
            OneTwoSpace(2, (0b110, 0b01))

    def test_frozen(self):
        ots = space_from_code(3, 0)
        with pytest.raises(AttributeError):
            ots.n = 5
