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
                           tuple(map(frozenset, self.content)))

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
    if seen != set(range(1, tab.n + 1)):
        raise ValueError(f"entries must be exactly 1..{tab.n}")


@lru_cache(maxsize=None)
def _cover_pairs(shape: TwoRowShape) -> tuple[tuple[int, int], ...]:
    # index pairs (i, j) such that cell i must be entirely smaller than cell j,
    # cached per shape; right-adjacency within each row plus shared columns
    # between the rows generate the whole weakly-right-and-below order by
    # transitivity.
    r1 = shape.row1_cells
    pairs = [(i, i + 1) for i in range(r1 - 1)]
    pairs += [(r1 + i, r1 + i + 1) for i in range(shape.row2_cells - 1)]
    # row-1 column f+1+i sits above row-2 column f+1+i when the latter exists
    for i in range(r1):
        col = shape.f + 1 + i
        if col <= shape.e:
            pairs.append((i, r1 + col - 1))
    return tuple(pairs)


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
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    k = shape.cell_count
    if k == 0 or n < k:
        return
    preds: list[list[int]] = [[] for _ in range(k)]
    succs: list[list[int]] = [[] for _ in range(k)]
    for i, j in _cover_pairs(shape):
        preds[j].append(i)
        succs[i].append(j)
    yield from _place(1, n, shape, preds, succs, [[] for _ in range(k)],
                      [0] * k, [len(p) for p in preds], k)


def _place(entry: int, n: int, shape: TwoRowShape,
           preds: list[list[int]], succs: list[list[int]],
           contents: list[list[int]], blocked: list[int], missing: list[int],
           empty: int) -> Iterator[SetValuedTableau]:
    # Place entry..n into the partial filling contents, one list per cell,
    # undoing each placement after its subtree.  blocked[i] counts the
    # opened successors of cell i, missing[j] the unopened predecessors of
    # cell j and empty the unopened cells.  A module-level function, so
    # no closure refers to itself and a call leaves no garbage cycle.
    remaining = n - entry + 1
    for cell in range(len(contents)):
        # a cell stops accepting entries once any later cell has opened
        if blocked[cell]:
            continue
        opening = not contents[cell]
        if opening and missing[cell]:
            continue
        empty_after = empty - opening
        if remaining - 1 < empty_after:
            continue
        contents[cell].append(entry)
        if opening:
            for p in preds[cell]:
                blocked[p] += 1
            for s in succs[cell]:
                missing[s] -= 1
        if entry == n:
            if empty_after == 0:
                yield SetValuedTableau(shape, contents, n)
        else:
            yield from _place(entry + 1, n, shape, preds, succs, contents,
                              blocked, missing, empty_after)
        if opening:
            for p in preds[cell]:
                blocked[p] -= 1
            for s in succs[cell]:
                missing[s] += 1
        contents[cell].pop()


def count_tableaux(shape: TwoRowShape, n: int) -> int:
    return sum(1 for _ in enumerate_tableaux(shape, n))


def shape_range(n: int, f: int, t: int) -> Iterator[TwoRowShape]:
    """Every shape (e+t, e)/(f, 0) with at least one and at most n cells."""
    for e in range(max(0, f - t), (n + f - t) // 2 + 1):
        if 2 * e + t - f >= 1:
            yield TwoRowShape(e, t, f)
