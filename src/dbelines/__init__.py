"""Lines in finite metric spaces, with exhaustive 1-2 space verification.

The line of a point pair collects every point satisfying one of the three
exact betweenness equations of the pair; a space on n >= 2 points has the
De Bruijn-Erdos property when it has at least n distinct lines or a line
through all points.  This package computes lines exactly (rational
arithmetic, a word-parallel fast path for spaces with all distances 1 or 2),
decides the property, checks the structural laws of 1-2 spaces, and sweeps
every 1-2 space on up to 8 points to confirm that no counterexample exists.
"""

from .bitset import MAX_BITSET_POINTS, full_mask, mask_of, mask_to_points
from .lines import (DbeVerdict, LineFamily, all_lines, dbe_verdict,
                    is_between, is_universal, line_of, line_of_fast)
from .spaces import (DistanceMatrix, MatrixFormatError, MetricAxiomError,
                     MetricSpace, NotOneTwoError, OneTwoSpace, as_one_two,
                     code_from_space, parse_distance_matrix,
                     scale_matrix, serialize_distance_matrix,
                     space_from_code, validate_metric)
from .structure import (ClassShape, EdgePair, EquivClass, ShapeCheckResult,
                        Violation, are_twins, check_class_size_bound,
                        check_distinct_lines, check_full_cover_classes,
                        check_twin_free_shapes, check_twin_line_laws,
                        class_size_bound, classify_class, equiv_classes,
                        twin_pairs)
from .verify import (ClaimsReport, MinLinesRow, SixPointWitness,
                     SmallSpacesReport, TheoremReport, claims_sweep,
                     min_lines_table, random_rational_metric,
                     six_point_witnesses, verify_small_spaces, verify_theorem)

__version__ = "0.1.0"

__all__ = [
    "MAX_BITSET_POINTS", "full_mask", "mask_of", "mask_to_points",
    "DbeVerdict", "LineFamily", "all_lines", "dbe_verdict", "is_between",
    "is_universal", "line_of", "line_of_fast",
    "DistanceMatrix", "MatrixFormatError", "MetricAxiomError", "MetricSpace",
    "NotOneTwoError", "OneTwoSpace", "as_one_two", "code_from_space",
    "parse_distance_matrix", "scale_matrix", "serialize_distance_matrix",
    "space_from_code", "validate_metric",
    "ClassShape", "EdgePair", "EquivClass", "ShapeCheckResult", "Violation",
    "are_twins", "check_class_size_bound", "check_distinct_lines",
    "check_full_cover_classes", "check_twin_free_shapes",
    "check_twin_line_laws", "class_size_bound", "classify_class",
    "equiv_classes", "twin_pairs",
    "ClaimsReport", "MinLinesRow", "SixPointWitness", "SmallSpacesReport",
    "TheoremReport", "claims_sweep", "min_lines_table", "random_rational_metric",
    "six_point_witnesses", "verify_small_spaces", "verify_theorem",
]
