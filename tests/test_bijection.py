"""Tests for the tableau/path correspondence."""

from collections import Counter

import pytest

from svtab.bijection import (path_to_tableau, tableau_to_path,
                             tableau_weight_counts)
from svtab.paths import (decode_path, encode_path, enumerate_paths, weight,
                         weight_counts)
from svtab.shapes import SetValuedTableau, TwoRowShape, enumerate_tableaux, is_valid


def build(e, t, f, n, *cells):
    return SetValuedTableau(TwoRowShape(e=e, t=t, f=f),
                            tuple(frozenset(c) for c in cells), n)


def test_worked_example_forward():
    """One fully written-out instance, checked against a hand trace.

    Shape (4,3)/(2,0), entries 1..9.  Row 1 holds {3,4},{8}; row 2 holds
    {1},{2,5,6,7},{9}.  Minima of row-1 cells (3 and 8) become up steps,
    minima of row-2 cells (1, 2, 9) become down steps, the leftover row-1
    entry 4 becomes umber and the leftover row-2 entries 5, 6, 7 denim.
    """
    tab = build(3, 1, 2, 9, {3, 4}, {8}, {1}, {2, 5, 6, 7}, {9})
    assert is_valid(tab)
    p = tableau_to_path(tab)
    assert encode_path(p) == "2:DDUudddUD"
    assert weight(p) == (1, 3, 3)
    assert p.start_height == 2
    assert p.end_height == 1


def test_worked_example_backward():
    tab = path_to_tableau(decode_path("2:DDUudddUD"))
    assert tab == build(3, 1, 2, 9, {3, 4}, {8}, {1}, {2, 5, 6, 7}, {9})


def test_round_trip_tableau_first():
    for (e, t, f) in [(1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 2, 1), (2, 1, 2)]:
        shape = TwoRowShape(e=e, t=t, f=f)
        for n in range(1, 7):
            for tab in enumerate_tableaux(shape, n):
                p = tableau_to_path(tab)
                assert path_to_tableau(p) == tab


def test_round_trip_path_first():
    for (f, t) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
        for n in range(1, 7):
            for p in enumerate_paths(n, f, t):
                tab = path_to_tableau(p)
                assert is_valid(tab)
                assert tableau_to_path(tab) == p


def test_step_statistics_transport():
    # weight (c, d, e) of the image path must equal (row-1 extras,
    # row-2 extras, second-row length) of the tableau
    shape = TwoRowShape(e=2, t=1, f=1)
    for n in range(4, 8):
        for tab in enumerate_tableaux(shape, n):
            c, d, e = weight(tableau_to_path(tab))
            r1, r2 = tab.row_entry_counts()
            assert e == shape.e
            assert c == r1 - shape.row1_cells
            assert d == r2 - shape.row2_cells


def test_endpoints_transport():
    shape = TwoRowShape(e=2, t=1, f=1)
    for tab in enumerate_tableaux(shape, 6):
        p = tableau_to_path(tab)
        assert p.start_height == shape.f
        assert p.end_height == shape.t
        assert len(p) == tab.n


def test_weight_multisets_agree():
    # the bijection matches the two oracles distribution-for-distribution
    for (f, t, n) in [(0, 0, 5), (1, 1, 5), (2, 0, 6), (0, 2, 6)]:
        from_paths = Counter(weight(p) for p in enumerate_paths(n, f, t))
        from_tabs: Counter = Counter()
        for e in range(max(0, f - t), n):
            shape = TwoRowShape(e=e, t=t, f=f)
            if shape.cell_count < 1 or shape.cell_count > n:
                continue
            for tab in enumerate_tableaux(shape, n):
                from_tabs[weight(tableau_to_path(tab))] += 1
        assert from_paths == from_tabs


def test_inadmissible_path_is_rejected():
    with pytest.raises(ValueError):
        path_to_tableau(decode_path("1:uU"))


@pytest.mark.parametrize("cells", [
    ({1}, {2, 3}, {3, 4}, {5}),   # two cells share the entry 3
    ({1}, {2}, {4}, {5}),         # the entry 3 is missing from 1..5
    ({1}, {2, 3}, set(), {4, 5}),  # an empty cell
    ({1}, {2, 3}, {4, 5}),        # three cells for a four-cell shape
    ({2}, {1, 3}, {4}, {5}),      # row 1 reads 2 before 1
    ({2}, {3}, {1}, {4, 5}),      # column 1 has 2 above 1
], ids=["overlap", "missing-entry", "empty-cell", "cell-count",
        "row-order", "column-order"])
def test_malformed_tableau_is_rejected(cells):
    # shape (2, 2) with entries 1..5; ({1}, {2, 3}, {4}, {5}) is valid
    assert tableau_to_path(build(2, 0, 0, 5, {1}, {2, 3}, {4}, {5}))
    with pytest.raises(ValueError):
        tableau_to_path(build(2, 0, 0, 5, *cells))


def test_empty_path_has_no_image():
    # tableaux need at least one entry, so length 0 is out of domain
    with pytest.raises(ValueError):
        path_to_tableau(decode_path("0:"))


def test_tableau_weight_counts_match_path_weight_counts():
    for n in range(1, 7):
        for f in range(3):
            for t in range(3):
                assert tableau_weight_counts(n, f, t) == \
                    weight_counts(n, f, t), (n, f, t)
