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
from functools import lru_cache
from typing import Iterator

from svtab.paths import _check_count, _is_int


def _check_size(n) -> None:
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


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
            _check_count(name, getattr(self, name))
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


@dataclass(frozen=True, init=False)
class SetValuedTableau:
    """A filling of a TwoRowShape with disjoint nonempty sets covering {1..n}.

    content holds one frozenset per cell, in the same reading order that
    cells() uses.
    """

    shape: TwoRowShape
    content: tuple[frozenset[int], ...]
    n: int

    def __init__(self, shape: TwoRowShape, content, n: int) -> None:
        # written out rather than generated with a __post_init__, so a
        # tableau costs one check and three stores, made as in
        # ColouredPath.__init__
        if type(n) is not int or n < 1:
            _check_size(n)
        fields = self.__dict__
        fields["shape"] = shape
        fields["content"] = tuple(map(frozenset, content))
        fields["n"] = n

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
        if not seen.isdisjoint(s):
            raise ValueError("cell sets must be pairwise disjoint")
        seen |= s
    # an entry must be an int: 2.0 equals 2 but is none; True is 1
    if seen != set(range(1, tab.n + 1)) or not all(
            isinstance(entry, int) for entry in seen):
        raise ValueError(f"entries must be exactly 1..{tab.n}")


@lru_cache(maxsize=None)
def _cover_pairs(shape: TwoRowShape) -> tuple[tuple[int, int], ...]:
    # index pairs (i, j) such that cell i must be entirely smaller than cell j,
    # cached per shape: each cell after the cell just left of it and the
    # cell just above it, which generate the whole weakly-right-and-below
    # order by transitivity.
    where = {cell: j for j, cell in enumerate(cells(shape))}
    return tuple((where[before], j) for (row, col), j in where.items()
                 for before in ((row, col - 1), (row - 1, col))
                 if before in where)


def is_valid(tab: SetValuedTableau) -> bool:
    """Ordering check via the adjacency pairs (equivalent to the full one)."""
    _check_structure(tab)
    content = tab.content
    for i, j in _cover_pairs(tab.shape):
        if max(content[i]) >= min(content[j]):
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


def enumerate_tableaux(shape: TwoRowShape,
                       n: int) -> Iterator[SetValuedTableau]:
    """Yield every valid tableau of the shape with entries 1..n.

    The entries are placed in increasing order; a partial filling survives
    only while each placement keeps all ordering constraints satisfiable.
    The stream is ordered lexicographically by the cell-assignment vector
    (the cell index of entry 1, then of entry 2, and so on).
    """
    _check_size(n)
    k = shape.cell_count
    if k == 0 or n < k:
        return
    preds: list[list[int]] = [[] for _ in range(k)]
    succs: list[list[int]] = [[] for _ in range(k)]
    for i, j in _cover_pairs(shape):
        preds[j].append(i)
        succs[i].append(j)
    # The partial filling, one list per cell.  blocked[i] counts the
    # opened successors of cell i, missing[j] the unopened predecessors
    # of cell j and empty the unopened cells.  Entry `entry` goes into
    # the first cell at or after the cursor `cell` that can take it;
    # placed[e] is the cell that holds entry e < entry.
    contents: list[list[int]] = [[] for _ in range(k)]
    blocked = [0] * k
    missing = [len(p) for p in preds]
    empty = k
    placed = [0] * n
    entry, cell = 1, 0
    while True:
        # a cell stops accepting entries once any later cell has opened,
        # and the entries left must still fill every empty cell
        room = n - entry
        while cell < k:
            if not blocked[cell]:
                if contents[cell]:
                    if room >= empty:
                        break
                elif not missing[cell] and room >= empty - 1:
                    break
            cell += 1
        if cell < k:
            if entry == n:
                # the last entry closes a tableau; nothing below it reads
                # the bookkeeping, so only the cell list is touched
                contents[cell].append(entry)
                yield SetValuedTableau(shape, contents, n)
                contents[cell].pop()
                cell += 1
                continue
            if not contents[cell]:
                for p in preds[cell]:
                    blocked[p] += 1
                for s in succs[cell]:
                    missing[s] -= 1
                empty -= 1
            contents[cell].append(entry)
            placed[entry] = cell
            entry, cell = entry + 1, 0
            continue
        # every cell tried: undo the previous entry's placement and move
        # its cursor on
        entry -= 1
        if not entry:
            return
        cell = placed[entry]
        contents[cell].pop()
        if not contents[cell]:
            for p in preds[cell]:
                blocked[p] -= 1
            for s in succs[cell]:
                missing[s] += 1
            empty += 1
        cell += 1


def count_tableaux(shape: TwoRowShape, n: int) -> int:
    return sum(1 for _ in enumerate_tableaux(shape, n))


def shape_range(n: int, f: int, t: int) -> Iterator[TwoRowShape]:
    """Every shape (e+t, e)/(f, 0) with at least one and at most n cells."""
    _check_size(n)
    _check_count("f", f)
    _check_count("t", t)
    return (TwoRowShape(e, t, f)
            for e in range(max(0, f - t), (n + f - t) // 2 + 1)
            if 2 * e + t - f >= 1)
