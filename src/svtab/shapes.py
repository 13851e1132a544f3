"""Two-rowed skew shapes and set-valued standard tableaux.

A shape (e+t, e)/(f, 0) keeps e+t-f cells in the first row (columns f+1
through e+t) and e cells in the second row (columns 1 through e).  A
set-valued standard tableau assigns a nonempty set of integers to every
cell so that the sets partition {1..n} and every entry of a cell is
smaller than every entry of any cell weakly to the right and weakly
below (matrix convention).

Enumeration here is deliberately independent of the path bijection and
of every closed formula: it places the entries 1..n one at a time and
propagates only the ordering constraints, so it can serve as an oracle
for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class TwoRowShape:
    """The skew shape (e+t, e)/(f, 0).

    e is the second-row length, t the first-row excess, f the number of
    cells removed from the left end of the first row.  f=0 is a straight
    shape.
    """

    e: int
    t: int
    f: int = 0

    def __post_init__(self):
        for name in ("e", "t", "f"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        if self.f > self.e + self.t:
            raise ValueError(
                f"f={self.f} exceeds first-row length e+t={self.e + self.t}")

    @property
    def row1_cells(self) -> int:
        return self.e + self.t - self.f

    @property
    def row2_cells(self) -> int:
        return self.e

    @property
    def cell_count(self) -> int:
        return 2 * self.e + self.t - self.f


def cells(shape: TwoRowShape) -> list[tuple[int, int]]:
    """Cell coordinates in reading order: row 1 left to right, then row 2."""
    row1 = [(1, j) for j in range(shape.f + 1, shape.e + shape.t + 1)]
    row2 = [(2, j) for j in range(1, shape.e + 1)]
    return row1 + row2


@dataclass(frozen=True)
class SetValuedTableau:
    """A filling of a TwoRowShape with disjoint nonempty sets covering {1..n}.

    content holds one frozenset per cell, in the same reading order that
    cells() uses.
    """

    shape: TwoRowShape
    content: tuple[frozenset[int], ...]
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "content",
                           tuple(frozenset(s) for s in self.content))

    def row_entry_counts(self) -> tuple[int, int]:
        r1 = sum(len(s) for s in self.content[:self.shape.row1_cells])
        r2 = sum(len(s) for s in self.content[self.shape.row1_cells:])
        return r1, r2


def _check_structure(tab: SetValuedTableau) -> None:
    shape = tab.shape
    if len(tab.content) != shape.cell_count:
        raise ValueError(
            f"content has {len(tab.content)} cells, shape has {shape.cell_count}")
    seen: set[int] = set()
    for s in tab.content:
        if not s:
            raise ValueError("every cell must hold a nonempty set")
        if seen & s:
            raise ValueError("cell sets must be pairwise disjoint")
        seen |= s
    if seen != set(range(1, tab.n + 1)):
        raise ValueError(f"entries must be exactly 1..{tab.n}")


def _cover_pairs(shape: TwoRowShape) -> list[tuple[int, int]]:
    # index pairs (i, j) such that cell i must be entirely smaller than cell j;
    # right-adjacency within each row plus shared columns between the rows
    # generate the whole weakly-right-and-below order by transitivity.
    r1 = shape.row1_cells
    pairs = [(i, i + 1) for i in range(r1 - 1)]
    pairs += [(r1 + i, r1 + i + 1) for i in range(shape.row2_cells - 1)]
    # row-1 column f+1+i sits above row-2 column f+1+i when the latter exists
    for i in range(r1):
        col = shape.f + 1 + i
        if col <= shape.e:
            pairs.append((i, r1 + col - 1))
    return pairs


def is_valid(tab: SetValuedTableau) -> bool:
    """Ordering check via the adjacency pairs (equivalent to the full one)."""
    _check_structure(tab)
    for i, j in _cover_pairs(tab.shape):
        if max(tab.content[i]) >= min(tab.content[j]):
            return False
    return True


def is_valid_quantified(tab: SetValuedTableau) -> bool:
    """Ordering check over all cell pairs, straight from the definition.

    Kept as the oracle for the optimized check: a property test asserts the
    two always agree.
    """
    _check_structure(tab)
    coords = cells(tab.shape)
    for a, (i, j) in enumerate(coords):
        for b, (i2, j2) in enumerate(coords):
            if a == b:
                continue
            if i2 >= i and j2 >= j:
                if max(tab.content[a]) >= min(tab.content[b]):
                    return False
    return True


def enumerate_tableaux(shape: TwoRowShape, n: int,
                       row_filter: Optional[tuple[int, int]] = None
                       ) -> Iterator[SetValuedTableau]:
    """Yield every valid tableau of the shape with entries 1..n.

    The entries are placed in increasing order; a partial filling survives
    only while each placement keeps all ordering constraints satisfiable.
    The stream is ordered lexicographically by the cell-assignment vector
    (the cell index of entry 1, then of entry 2, and so on).  row_filter
    restricts to tableaux with exactly that many entries in row 1 and 2.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    k = shape.cell_count
    if k == 0 or n < k:
        return
    if row_filter is not None:
        r1_target, r2_target = row_filter
        if r1_target < 0 or r2_target < 0 or r1_target + r2_target != n:
            return
    else:
        r1_target = r2_target = None

    r1 = shape.row1_cells
    preds: list[list[int]] = [[] for _ in range(k)]
    succs: list[list[int]] = [[] for _ in range(k)]
    for i, j in _cover_pairs(shape):
        preds[j].append(i)
        succs[i].append(j)

    assignment = [0] * n
    contents: list[list[int]] = [[] for _ in range(k)]
    row_counts = [0, 0]

    def place(entry: int) -> Iterator[SetValuedTableau]:
        empty = sum(1 for c in contents if not c)
        remaining = n - entry + 1
        for cell in range(k):
            opened = bool(contents[cell])
            # a cell stops accepting entries once any later cell has opened
            if any(contents[s] for s in succs[cell]):
                continue
            if not opened and any(not contents[p] for p in preds[cell]):
                continue
            empty_after = empty - (0 if opened else 1)
            if remaining - 1 < empty_after:
                continue
            row = 0 if cell < r1 else 1
            if r1_target is not None:
                target = r1_target if row == 0 else r2_target
                if row_counts[row] + 1 > target:
                    continue
            contents[cell].append(entry)
            row_counts[row] += 1
            assignment[entry - 1] = cell
            if entry == n:
                if empty_after == 0 and (
                        r1_target is None or row_counts[0] == r1_target):
                    yield SetValuedTableau(
                        shape, tuple(frozenset(c) for c in contents), n)
            else:
                yield from place(entry + 1)
            contents[cell].pop()
            row_counts[row] -= 1

    yield from place(1)


def count_tableaux(shape: TwoRowShape, n: int,
                   row_filter: Optional[tuple[int, int]] = None) -> int:
    return sum(1 for _ in enumerate_tableaux(shape, n, row_filter))


def shape_range(n: int, f: int, t: int) -> Iterator[TwoRowShape]:
    """Every shape (e+t, e)/(f, 0) with at least one and at most n cells."""
    for e in range(max(0, f - t), (n + f - t) // 2 + 1):
        if 2 * e + t - f >= 1:
            yield TwoRowShape(e, t, f)


def shape_counts(n: int, f: int, t: int) -> dict[int, int]:
    """Tableau counts over shape_range, keyed by the second-row length e."""
    return {shape.e: count_tableaux(shape, n)
            for shape in shape_range(n, f, t)}


def count_by_rows(n: int, t: int, m: int) -> int:
    """Straight-shape tableaux of excess t with m of the n entries in row 1."""
    return sum(count_tableaux(shape, n, row_filter=(m, n - m))
               for shape in shape_range(n, 0, t))


def to_json(tab: SetValuedTableau) -> dict:
    coords = cells(tab.shape)
    return {
        "e": tab.shape.e,
        "t": tab.shape.t,
        "f": tab.shape.f,
        "n": tab.n,
        "cells": [
            {"row": r, "col": c, "entries": sorted(s)}
            for (r, c), s in zip(coords, tab.content)
        ],
    }


def from_json(data: dict) -> SetValuedTableau:
    shape = TwoRowShape(e=data["e"], t=data["t"], f=data["f"])
    coords = cells(shape)
    by_coord = {(c["row"], c["col"]): frozenset(c["entries"]) for c in data["cells"]}
    if set(by_coord) != set(coords):
        raise ValueError("cell coordinates do not match the shape")
    content = tuple(by_coord[rc] for rc in coords)
    return SetValuedTableau(shape, content, data["n"])
