"""Two-coloured Motzkin paths with the admissibility constraints.

Steps are Up (+1), Down (-1) and two colours of horizontal step, umber
and denim.  A path lives at nonnegative heights.  Admissibility: no
umber horizontal before the first up-step, no umber horizontal at
height 0, no denim horizontal before the first down-step.  "Before" is
strict sequence position.

The weight of a path is the triple (c, d, e) counting umber horizontals,
denim horizontals and down-steps; the length n satisfies
c + d + 2e - f + t = n for a path from height f to height t.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional


class Step(Enum):
    UP = "U"
    DOWN = "D"
    HOR_UMBER = "u"
    HOR_DENIM = "d"

    @property
    def rise(self) -> int:
        if self is Step.UP:
            return 1
        if self is Step.DOWN:
            return -1
        return 0


# enumeration tries step tags in lexicographic order: D < U < d < u
_TAG_ORDER = tuple(sorted(Step, key=lambda s: s.value))


@dataclass(frozen=True)
class ColouredPath:
    start_height: int
    steps: tuple[Step, ...]

    def __post_init__(self):
        if not isinstance(self.start_height, int) or self.start_height < 0:
            raise ValueError(
                f"start_height must be a nonnegative integer, got {self.start_height!r}")
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def end_height(self) -> int:
        return self.start_height + sum(s.rise for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def is_admissible(path: ColouredPath) -> bool:
    """Nonnegativity plus the three colour constraints of the bijection."""
    h = path.start_height
    seen_up = False
    seen_down = False
    for s in path.steps:
        if s is Step.UP:
            h += 1
            seen_up = True
        elif s is Step.DOWN:
            h -= 1
            if h < 0:
                return False
            seen_down = True
        elif s is Step.HOR_UMBER:
            if not seen_up or h == 0:
                return False
        else:
            if not seen_down:
                return False
    return True


def weight(path: ColouredPath) -> tuple[int, int, int]:
    """(c, d, e) = counts of umber, denim and down steps.

    Defined for any path, admissible or not.
    """
    c = d = e = 0
    for s in path.steps:
        if s is Step.HOR_UMBER:
            c += 1
        elif s is Step.HOR_DENIM:
            d += 1
        elif s is Step.DOWN:
            e += 1
    return c, d, e


def enumerate_paths(n: int, f: int, t: int,
                    cde_filter: Optional[tuple[int, int, int]] = None
                    ) -> Iterator[ColouredPath]:
    """All admissible length-n paths from height f to height t.

    Equivalent to filtering the 4^n step words; the search just abandons
    prefixes that already violate a constraint or cannot reach t.  Output
    order is lexicographic on the step tags (D < U < d < u).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    if f < 0 or t < 0:
        raise ValueError("heights must be nonnegative")
    if n == 0:
        if f == t and cde_filter in (None, (0, 0, 0)):
            yield ColouredPath(f, ())
        return

    yield from _walk([], n, f, t, cde_filter, f, False, False, 0, 0, 0)


def _walk(prefix: list[Step], n: int, f: int, t: int,
          cde_filter: Optional[tuple[int, int, int]], h: int, seen_up: bool,
          seen_down: bool, c: int, d: int, e: int) -> Iterator[ColouredPath]:
    # Extend prefix (at height h, weight c, d, e) in every admissible way.
    # A module-level function, so no closure refers to itself and a call
    # leaves no garbage cycle.
    i = len(prefix)
    if i == n:
        if h == t and (cde_filter is None or (c, d, e) == cde_filter):
            yield ColouredPath(f, tuple(prefix))
        return
    if abs(h - t) > n - i:
        return
    for s in _TAG_ORDER:
        if s is Step.DOWN:
            if h == 0:
                continue
            args = (h - 1, seen_up, True, c, d, e + 1)
        elif s is Step.UP:
            args = (h + 1, True, seen_down, c, d, e)
        elif s is Step.HOR_DENIM:
            if not seen_down:
                continue
            args = (h, seen_up, seen_down, c, d + 1, e)
        else:
            if not seen_up or h == 0:
                continue
            args = (h, seen_up, seen_down, c + 1, d, e)
        if cde_filter is not None:
            nc, nd, ne = args[3], args[4], args[5]
            if nc > cde_filter[0] or nd > cde_filter[1] or ne > cde_filter[2]:
                continue
        prefix.append(s)
        yield from _walk(prefix, n, f, t, cde_filter, *args)
        prefix.pop()


def count_paths(n: int, f: int, t: int,
                cde_filter: Optional[tuple[int, int, int]] = None) -> int:
    return sum(1 for _ in enumerate_paths(n, f, t, cde_filter))


def weight_counts(n: int, f: int, t: int) -> Counter:
    """Counter mapping (c, d, e) to the number of admissible paths."""
    out: Counter = Counter()
    for p in enumerate_paths(n, f, t):
        out[weight(p)] += 1
    return out


def encode_path(path: ColouredPath) -> str:
    return f"{path.start_height}:" + "".join(s.value for s in path.steps)


def decode_path(text: str) -> ColouredPath:
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"missing ':' in path encoding {text!r}")
    try:
        start = int(head)
    except ValueError:
        raise ValueError(f"bad start height in {text!r}") from None
    by_tag = {s.value: s for s in Step}
    try:
        steps = tuple(by_tag[ch] for ch in body)
    except KeyError as exc:
        raise ValueError(f"unknown step tag {exc.args[0]!r} in {text!r}") from None
    return ColouredPath(start, steps)


def _closed_walk_weights(n: int, umber_on_axis: bool) -> Counter:
    # all two-coloured Motzkin paths of length n from height 0 back to 0,
    # optionally banning umber at height 0; no other constraints
    out: Counter = Counter()
    _closed_walks(out, n, umber_on_axis, 0, 0, 0, 0, 0)
    return out


def _closed_walks(out: Counter, n: int, umber_on_axis: bool,
                  i: int, h: int, c: int, d: int, e: int) -> None:
    # Module level, so no closure refers to itself (no garbage cycle).
    if n - i < h:
        return
    if i == n:
        out[(c, d, e)] += 1
        return
    _closed_walks(out, n, umber_on_axis, i + 1, h + 1, c, d, e)
    if h > 0:
        _closed_walks(out, n, umber_on_axis, i + 1, h - 1, c, d, e + 1)
    if umber_on_axis or h > 0:
        _closed_walks(out, n, umber_on_axis, i + 1, h, c + 1, d, e)
    _closed_walks(out, n, umber_on_axis, i + 1, h, c, d + 1, e)


def unconstrained_weight_counts(n: int) -> Counter:
    """Weights of all closed two-coloured Motzkin walks, no colour rules.

    Independent oracle for the series solution of the height-0 weight
    generating function.
    """
    return _closed_walk_weights(n, umber_on_axis=True)


def no_axis_umber_weight_counts(n: int) -> Counter:
    """Same, but umber horizontals are banned at height 0."""
    return _closed_walk_weights(n, umber_on_axis=False)
