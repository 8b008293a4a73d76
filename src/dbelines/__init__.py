"""Lines in finite metric spaces, with exhaustive 1-2 space verification.

The line of a point pair collects every point satisfying one of the three
exact betweenness equations of the pair; a space on n >= 2 points has the
De Bruijn-Erdos property when it has at least n distinct lines or a line
through all points.  This package computes lines exactly (rational
arithmetic, a word-parallel fast path for spaces with all distances 1 or 2),
decides the property, checks the structural laws of 1-2 spaces, and sweeps
every 1-2 space on up to 8 points to confirm that no counterexample exists.
The names below are the ones README documents; everything else lives in the
submodules.
"""

from .bitset import mask_to_points
from .lines import all_lines, dbe_verdict, line_of, line_of_fast
from .spaces import (MetricSpace, OneTwoSpace, as_one_two, code_from_space,
                     parse_distance_matrix, space_from_code, validate_metric)
from .structure import equiv_classes, twin_pairs
from .verify import (claims_sweep, min_lines_table, six_point_witnesses,
                     verify_small_spaces, verify_theorem)

__version__ = "0.1.0"

__all__ = [
    "mask_to_points",
    "all_lines", "dbe_verdict", "line_of", "line_of_fast",
    "MetricSpace", "OneTwoSpace", "as_one_two", "code_from_space",
    "parse_distance_matrix", "space_from_code", "validate_metric",
    "equiv_classes", "twin_pairs",
    "claims_sweep", "min_lines_table", "six_point_witnesses",
    "verify_small_spaces", "verify_theorem",
]
