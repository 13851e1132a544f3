"""Tests for the tableau/path correspondence."""

import dataclasses
import random
from collections import Counter
from itertools import islice

import pytest

from svtab import bijection
from svtab.bijection import (path_to_tableau, tableau_to_path,
                             tableau_weight_counts)
from svtab.paths import (ColouredPath, decode_path, encode_path,
                         enumerate_paths, weight, weight_counts)
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
    ({1}, {2.0, 3}, {4}, {5}),    # 2.0 equals the entry 2 but is no int
], ids=["overlap", "missing-entry", "empty-cell", "cell-count",
        "row-order", "column-order", "float-entry"])
def test_malformed_tableau_is_rejected(cells, monkeypatch):
    # shape (2, 2) with entries 1..5; ({1}, {2, 3}, {4}, {5}) is valid.
    # The scan checks the tableau itself and asks is_valid only to name
    # a fault it has found.
    calls = _count_calls(monkeypatch, "is_valid")
    assert tableau_to_path(build(2, 0, 0, 5, {1}, {2, 3}, {4}, {5}))
    assert calls == []
    with pytest.raises(ValueError):
        tableau_to_path(build(2, 0, 0, 5, *cells))
    assert len(calls) == 1


def _count_calls(monkeypatch, name):
    # the tableaux passed to bijection's function `name`
    calls = []
    real = getattr(bijection, name)

    def counted(tab):
        calls.append(tab)
        return real(tab)
    monkeypatch.setattr(bijection, name, counted)
    return calls


def test_valid_tableaux_skip_is_valid(monkeypatch):
    calls = _count_calls(monkeypatch, "is_valid")
    assert sum(tableau_weight_counts(7, 1, 0).values()) > 0
    assert calls == []


def _two_pass_reference(tab):
    # is_valid first, then a scan that trusts the cells to partition 1..n
    if not is_valid(tab):
        raise ValueError("tableau violates the ordering condition")
    r1 = tab.shape.row1_cells
    steps = ["U"] * tab.n
    for idx, s in enumerate(tab.content):
        opener, other = ("Uu", "Dd")[idx >= r1]
        for entry in s:
            steps[entry - 1] = other
        steps[min(s) - 1] = opener
    return ColouredPath(tab.shape.f, "".join(steps))


def _outcome(fn, tab):
    try:
        return fn(tab)
    except Exception as exc:
        return type(exc), str(exc)


def _mutate(rng, cells, n):
    # one fault of each kind the structure and ordering rules name
    kind = rng.randrange(7)
    full = [i for i, c in enumerate(cells) if c]
    if kind == 0 and len(full) > 0 and len(cells) > 1:    # overlap
        i = rng.choice(full)
        j = rng.choice([j for j in range(len(cells)) if j != i])
        cells[j].add(rng.choice(sorted(cells[i])))
    elif kind == 1 and full:                               # missing entry
        cells[rng.choice(full)].discard(rng.randint(1, n))
    elif kind == 2 and cells:                              # the entry n + 1
        rng.choice(cells).add(n + 1)
    elif kind == 3 and cells:                              # an empty cell
        cells[rng.randrange(len(cells))] = set()
    elif kind == 4:                                        # cell count
        if cells and rng.random() < 0.5:
            cells.pop(rng.randrange(len(cells)))
        else:
            cells.insert(rng.randint(0, len(cells)), {n + 1})
    elif kind == 5 and len(full) > 1:                      # order: swap
        i, j = rng.sample(full, 2)
        a, b = rng.choice(sorted(cells[i])), rng.choice(sorted(cells[j]))
        cells[i].symmetric_difference_update({a, b})
        cells[j].symmetric_difference_update({a, b})
    return cells


def _fillings(rng):
    # every shape with e, t <= 3 and f <= e + t, n from its cell count
    # minus 1 to plus 4: valid tableaux, some of them broken by one
    # fault, and fillings that put each entry in a random cell
    for e in range(4):
        for t in range(4):
            for f in range(e + t + 1):
                shape = TwoRowShape(e, t, f)
                k = shape.cell_count
                for n in range(max(1, k - 1), k + 5):
                    valid = list(islice(enumerate_tableaux(shape, n), 200))
                    for _ in range(24):
                        if valid and rng.random() < 0.5:
                            cells = [set(c) for c in rng.choice(valid).content]
                        else:
                            cells = [set() for _ in range(k)]
                            for entry in range(1, n + 1):
                                if k:
                                    cells[rng.randrange(k)].add(entry)
                        if rng.random() < 0.5:
                            cells = _mutate(rng, cells, n)
                        yield SetValuedTableau(shape, cells, n)


def test_scan_refuses_what_is_valid_refuses():
    rng = random.Random(27)
    accepted = refused = 0
    for tab in _fillings(rng):
        got = _outcome(tableau_to_path, tab)
        assert got == _outcome(_two_pass_reference, tab), tab
        if isinstance(got, ColouredPath):
            accepted += 1
            assert path_to_tableau(got) == tab
        else:
            refused += 1
            assert got[0] is ValueError
    assert accepted > 1000 and refused > 1000
    # an entry that equals an int but is none is refused by both sides
    tab = build(2, 0, 0, 5, {1}, {2.0, 3}, {4}, {5})
    for fn in (tableau_to_path, _two_pass_reference):
        assert _outcome(fn, tab) == (ValueError, "entries must be exactly 1..5")
    # True is the entry 1 on both sides, and comes back as the int 1
    tab = build(2, 0, 0, 5, {True}, {2, 3}, {4}, {5})
    got = tableau_to_path(tab)
    assert got == _two_pass_reference(tab)
    back = path_to_tableau(got)
    assert back == build(2, 0, 0, 5, {1}, {2, 3}, {4}, {5})
    assert all(type(entry) is int for cell in back.content for entry in cell)


def test_each_tableau_is_scanned_once(monkeypatch):
    # valid or refused, a tableau costs tableau_to_path one scan
    scans = _count_calls(monkeypatch, "_scan")
    tabs = [build(2, 0, 0, 5, {True}, {2, 3}, {4}, {5}),
            build(2, 0, 0, 5, {1}, {2.0, 3}, {4}, {5}),
            *islice(_fillings(random.Random(28)), 3000)]
    outcomes = Counter()
    for tab in tabs:
        before = len(scans)
        outcomes[type(_outcome(tableau_to_path, tab))] += 1
        assert len(scans) == before + 1, tab
    assert outcomes[ColouredPath] > 100 and outcomes[tuple] > 100


def test_oracle_records_match_the_constructors():
    # the oracles' records, whose fields go straight into the instance
    # dict, compare, hash, print and freeze as records built from copies
    # of their fields
    def same(a, b):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert vars(a) == vars(b)

    for p in enumerate_paths(6, 1, 0):
        same(p, ColouredPath(1, p.steps))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.steps = ""
    shape = TwoRowShape(2, 1, 1)
    for tab in enumerate_tableaux(shape, 6):
        assert all(type(cell) is frozenset for cell in tab.content)
        same(tab, SetValuedTableau(shape, [sorted(c) for c in tab.content], 6))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tab.n = 7
        p = tableau_to_path(tab)
        same(p, ColouredPath(shape.f, p.steps))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.start_height = 0


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
