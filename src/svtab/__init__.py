"""Exact enumeration of two-rowed set-valued standard tableaux.

The package models the tableaux themselves, the two-coloured Motzkin paths
they biject to, an exact truncated power-series engine for the weight
generating functions, closed-form counting formulas, and a harness that
cross-checks all of those layers against each other at desk scale.
"""

from svtab.shapes import TwoRowShape, SetValuedTableau, cells, is_valid, enumerate_tableaux, count_tableaux
from svtab.paths import ColouredPath, is_admissible, weight, enumerate_paths, count_paths
from svtab.bijection import tableau_to_path, path_to_tableau
from svtab.series import MultiPoly, ZSeries, NonExactDivision, solve_M, solve_M0, check_reversion
from svtab.genfun import gf_straight, gf_skew, refined_coefficient, expected_downsteps_series
from svtab import formulas
from svtab import verify

__version__ = "0.1.0"

__all__ = [
    "TwoRowShape", "SetValuedTableau", "cells", "is_valid",
    "enumerate_tableaux", "count_tableaux",
    "ColouredPath", "is_admissible", "weight",
    "enumerate_paths", "count_paths",
    "tableau_to_path", "path_to_tableau",
    "MultiPoly", "ZSeries", "NonExactDivision",
    "solve_M", "solve_M0", "check_reversion",
    "gf_straight", "gf_skew", "refined_coefficient", "expected_downsteps_series",
    "formulas", "verify",
]
