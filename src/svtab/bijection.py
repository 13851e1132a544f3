"""The scan bijection between tableaux and admissible paths.

Reading the entries 1..n in order: the minimum of a row-1 cell becomes
an up-step U, the minimum of a row-2 cell a down-step D, every other
row-1 entry an umber horizontal u and every other row-2 entry a denim
horizontal d; the path's step word is these tags in entry order.  The
path starts at height f and ends at height t.  The inverse scan opens a
new cell per up/down step and appends horizontal entries to the most
recently opened cell of the matching row.

The forward scan checks the tableau in the same pass that writes the
word, so a valid tableau is read once; shapes.is_valid, which refuses
exactly what the scan refuses, runs only on a refused tableau, to raise
the error that names its fault.  Why tableau_weight_counts scans every
tableau is in its docstring.
"""

from __future__ import annotations

from collections import Counter

from svtab.paths import ColouredPath, is_admissible, weight
from svtab.shapes import (SetValuedTableau, TwoRowShape, enumerate_tableaux,
                          is_valid, shape_range)


def _scan(tab: SetValuedTableau) -> str | None:
    # The step word of a valid tableau, checked in the same pass that
    # writes it; None, or an exception, where the tableau breaks a rule.
    # In reading order each cell's minimum must lie above the maximum of
    # the cell before it in its row (above 0 for a row's first cell, which
    # is what refuses an entry of 0 or below) and, in row 2, above the
    # maximum of the row-1 cell in its column.  Slot i of steps holds the
    # tag of entry i, slot 0 the empty prefix: an entry above n fails its
    # store with IndexError and one that is no int (2.0) with TypeError,
    # an empty cell fails min(), a slot left unwritten fails the join, and
    # the sizes summing to n then rule out an entry in two cells.  These
    # are is_valid's structure rules and cover pairs.
    shape, content, n = tab.shape, tab.content, tab.n
    r1 = shape.row1_cells
    if len(content) != shape.cell_count:
        return None
    steps = [None] * (n + 1)
    steps[0] = ""
    # the maximum of the row-1 cell above each row-2 cell, 0 where the
    # first f row-2 cells have none
    above = [0] * shape.f
    top = 0
    for s in content[:r1]:
        low = min(s)
        if low <= top:
            return None
        for entry in s:
            steps[entry] = "u"
        steps[low] = "U"
        top = max(s)
        above.append(top)
    top = 0
    for s, cap in zip(content[r1:], above):
        low = min(s)
        if low <= top or low <= cap:
            return None
        for entry in s:
            steps[entry] = "d"
        steps[low] = "D"
        top = max(s)
    word = "".join(steps)
    return word if sum(map(len, content)) == n else None


def tableau_to_path(tab: SetValuedTableau) -> ColouredPath:
    try:
        word = _scan(tab)
    except Exception:  # is_valid below decides what is raised
        word = None
    if word is None:
        # is_valid raises on a structural fault and returns False on an
        # ordering one
        is_valid(tab)
        raise ValueError("tableau violates the ordering condition")
    return ColouredPath(tab.shape.f, word)


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
    paths.weight_counts.  Every tableau goes through tableau_to_path,
    whose scan checks it as it writes the word, rather than through a
    cheaper read of its weight off the cells: the traced verify_grid
    workload (perfbench's bijection.calls) and
    tests/test_verify.py::test_brute_force_layers_visit_every_object
    count the scans.  Reading the weight straight off the tableau is
    ROADMAP item 2, which waits on that perfbench check.
    """
    return Counter(weight(tableau_to_path(tab))
                   for shape in shape_range(n, f, t)
                   for tab in enumerate_tableaux(shape, n))
