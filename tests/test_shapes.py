"""Tests for the tableau oracle: shapes, validity, enumeration."""

import gc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from svtab.bijection import tableau_weight_counts
from svtab.paths import enumerate_paths, unconstrained_weight_counts
from svtab.shapes import (
    SetValuedTableau,
    TwoRowShape,
    cells,
    count_tableaux,
    enumerate_tableaux,
    is_valid,
    is_valid_quantified,
    shape_range,
)

# Singleton fillings of the straight shape (e, e) are counted by the
# Catalan numbers, which pins the oracle to an independent reference.
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_shape_rejects_negative_parameters():
    with pytest.raises(ValueError):
        TwoRowShape(e=-1, t=0)
    with pytest.raises(ValueError):
        TwoRowShape(e=0, t=-2)
    with pytest.raises(ValueError):
        TwoRowShape(e=1, t=0, f=-1)


def test_shape_rejects_overlong_removal():
    # f cells are removed from a first row of length e+t.
    with pytest.raises(ValueError):
        TwoRowShape(e=1, t=1, f=3)
    TwoRowShape(e=1, t=1, f=2)  # boundary is allowed


def test_cells_reading_order():
    shape = TwoRowShape(e=3, t=1, f=2)
    assert cells(shape) == [(1, 3), (1, 4), (2, 1), (2, 2), (2, 3)]
    assert shape.row1_cells == 2
    assert shape.row2_cells == 3
    assert shape.cell_count == 5


def test_cells_of_straight_shape():
    shape = TwoRowShape(e=2, t=0)
    assert cells(shape) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_tableau_requires_partition_of_1_to_n():
    shape = TwoRowShape(e=1, t=0)
    good = SetValuedTableau(shape, (frozenset({1}), frozenset({2})), 2)
    assert is_valid(good)
    with pytest.raises(ValueError):
        is_valid(SetValuedTableau(shape, (frozenset({1}), frozenset({1})), 2))
    with pytest.raises(ValueError):
        is_valid(SetValuedTableau(shape, (frozenset({1}), frozenset()), 1))
    with pytest.raises(ValueError):
        is_valid(SetValuedTableau(shape, (frozenset({1}), frozenset({3})), 3))


def test_validity_straight_two_by_two():
    shape = TwoRowShape(e=2, t=0)
    ok = SetValuedTableau(
        shape, (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})), 4)
    assert is_valid(ok)
    also_ok = SetValuedTableau(
        shape, (frozenset({1}), frozenset({3}), frozenset({2}), frozenset({4})), 4)
    assert is_valid(also_ok)
    # 2 above 1 violates the column constraint
    bad = SetValuedTableau(
        shape, (frozenset({2}), frozenset({3}), frozenset({1}), frozenset({4})), 4)
    assert not is_valid(bad)


def test_validity_compares_whole_sets():
    # Max of the left cell must stay below min of the right cell.
    shape = TwoRowShape(e=0, t=2)
    assert is_valid(SetValuedTableau(
        shape, (frozenset({1, 2}), frozenset({3})), 3))
    assert not is_valid(SetValuedTableau(
        shape, (frozenset({1, 3}), frozenset({2})), 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=6),
       st.randoms(use_true_random=False))
def test_validity_agrees_with_quantified_form(e, t, n, rng):
    shape = TwoRowShape(e=e, t=t)
    if shape.cell_count == 0 or shape.cell_count > n:
        return
    # Random set partition of {1..n} into cell_count blocks, in order.
    entries = list(range(1, n + 1))
    rng.shuffle(entries)
    blocks = [[] for _ in range(shape.cell_count)]
    for i, v in enumerate(entries):
        blocks[i % shape.cell_count].append(v)
    tab = SetValuedTableau(shape, tuple(frozenset(b) for b in blocks), n)
    assert is_valid(tab) == is_valid_quantified(tab)


def test_singleton_catalan_row():
    for e in range(1, 7):
        shape = TwoRowShape(e=e, t=0)
        assert count_tableaux(shape, 2 * e) == CATALAN[e]


def test_set_valued_counts_small_straight_shape():
    shape = TwoRowShape(e=1, t=0)
    got = [count_tableaux(shape, n) for n in range(2, 6)]
    assert got == [1, 2, 3, 4]


def test_count_zero_when_too_few_entries():
    shape = TwoRowShape(e=2, t=1)
    assert count_tableaux(shape, 4) == 0
    # n = 5 fills every cell with a singleton; hook lengths give 5.
    assert count_tableaux(shape, 5) == 5


def test_enumeration_yields_valid_distinct_tableaux():
    shape = TwoRowShape(e=2, t=1, f=1)
    seen = set()
    for tab in enumerate_tableaux(shape, 6):
        assert is_valid(tab)
        assert tab.content not in seen
        seen.add(tab.content)
    assert len(seen) == count_tableaux(shape, 6)


def test_enumeration_is_deterministic():
    shape = TwoRowShape(e=2, t=1, f=1)
    a = [tab.content for tab in enumerate_tableaux(shape, 6)]
    b = [tab.content for tab in enumerate_tableaux(shape, 6)]
    assert a == b


def test_enumeration_equals_filtered_assignments():
    # Reference straight from the definition: every assignment of the
    # entries 1..n to cells, in lexicographic order of the vector (cell of
    # entry 1, cell of entry 2, ...), kept when no cell is empty and the
    # all-pairs check accepts it.  The enumerator must yield exactly these,
    # in this order.
    shapes = [TwoRowShape(e, t, f) for e in range(5) for t in range(5)
              for f in range(e + t + 1) if 2 * e + t - f <= 4]
    for shape in shapes:
        k = shape.cell_count
        for n in range(1, 7):
            ref = []
            for vector in product(range(k), repeat=n):
                content = [set() for _ in range(k)]
                for entry, cell in enumerate(vector, start=1):
                    content[cell].add(entry)
                if all(content):
                    tab = SetValuedTableau(shape, tuple(content), n)
                    if is_valid_quantified(tab):
                        ref.append(tab)
            assert list(enumerate_tableaux(shape, n)) == ref, (shape, n)


def test_shape_range_counts_and_row_split():
    assert [s.e for s in shape_range(6, 0, 1)] == [0, 1, 2]
    assert [s.e for s in shape_range(6, 2, 0)] == [2, 3, 4]
    # The weight map's e-marginal counts each shape, and its first-row
    # marginal (c umber entries plus the minima of e + t - f cells)
    # counts each row split.
    for n in range(1, 8):
        for f in range(4):
            for t in range(4):
                w = tableau_weight_counts(n, f, t)
                rows = Counter()
                for shape in shape_range(n, f, t):
                    by_rows = Counter(tab.row_entry_counts()
                                      for tab in enumerate_tableaux(shape, n))
                    assert sum(k for (_, _, e), k in w.items()
                               if e == shape.e) == \
                        sum(by_rows.values()), (n, shape)
                    rows += by_rows
                for m in range(n + 1):
                    assert sum(k for (c, _, e), k in w.items()
                               if c + e + t - f == m) == \
                        rows[m, n - m], (n, f, t, m)


def _drain_early(stream):
    next(stream)
    stream.close()


@pytest.mark.parametrize("run", [
    lambda: list(enumerate_tableaux(TwoRowShape(2, 1, 0), 6)),
    lambda: _drain_early(enumerate_tableaux(TwoRowShape(2, 1, 0), 6)),
    lambda: list(enumerate_paths(5, 0, 1)),
    lambda: _drain_early(enumerate_paths(5, 0, 1)),
    lambda: unconstrained_weight_counts(4),
], ids=["tableaux", "tableaux-closed-early", "paths", "paths-closed-early",
        "closed-walks"])
def test_enumerators_leave_no_garbage_cycles(run):
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
