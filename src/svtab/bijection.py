"""The scan bijection between tableaux and admissible paths.

Reading the entries 1..n in order: the minimum of a row-1 cell becomes
an up-step U, the minimum of a row-2 cell a down-step D, every other
row-1 entry an umber horizontal u and every other row-2 entry a denim
horizontal d; the path's step word is these tags in entry order.  The
path starts at height f and ends at height t.  The inverse scan opens a
new cell per up/down step and appends horizontal entries to the most
recently opened cell of the matching row.
"""

from __future__ import annotations

from collections import Counter

from svtab.paths import ColouredPath, is_admissible, weight
from svtab.shapes import (SetValuedTableau, TwoRowShape, enumerate_tableaux,
                          is_valid, shape_range)

# (minimum, every other entry) of a row-1 and of a row-2 cell
_ROW_STEPS = ("Uu", "Dd")


def tableau_to_path(tab: SetValuedTableau) -> ColouredPath:
    if not is_valid(tab):
        raise ValueError("tableau violates the ordering condition")
    r1 = tab.shape.row1_cells
    # every slot is overwritten: the cells partition 1..n (checked above)
    steps = ["U"] * tab.n
    for idx, s in enumerate(tab.content):
        opener, other = _ROW_STEPS[idx >= r1]
        for entry in s:
            steps[entry - 1] = other
        steps[min(s) - 1] = opener
    return ColouredPath(tab.shape.f, "".join(steps))


def path_to_tableau(path: ColouredPath) -> SetValuedTableau:
    if len(path) < 1:
        raise ValueError("the empty path corresponds to no tableau")
    if not is_admissible(path):
        raise ValueError("path violates the admissibility constraints")
    row1: list[list[int]] = []
    row2: list[list[int]] = []
    for i, s in enumerate(path.steps, start=1):
        if s == "U":
            row1.append([i])
        elif s == "D":
            row2.append([i])
        elif s == "u":
            row1[-1].append(i)
        else:
            row2[-1].append(i)
    f = path.start_height
    t = path.end_height
    e = len(row2)
    # up-steps open row-1 cells, so their count must close the books
    assert len(row1) == e - f + t
    shape = TwoRowShape(e=e, t=t, f=f)
    # SetValuedTableau freezes each cell's list
    return SetValuedTableau(shape, row1 + row2, len(path))


def tableau_weight_counts(n: int, f: int, t: int) -> Counter:
    """Counter mapping (c, d, e) to the number of tableaux with n entries.

    Sums over every shape of shapes.shape_range and keys each tableau by
    the weight of its path, so it is the tableau-side twin of
    paths.weight_counts.
    """
    # Every tableau goes through the validating tableau_to_path, not a
    # cheaper read of its weight: the traced verify_grid workload
    # (perfbench/test_perfbench.py) and
    # tests/test_verify.py::test_brute_force_layers_visit_every_object
    # count the scans.  Reading the weight straight off the tableau is
    # ROADMAP item 2, which has to change those checks with it.
    return Counter(weight(tableau_to_path(tab))
                   for shape in shape_range(n, f, t)
                   for tab in enumerate_tableaux(shape, n))
