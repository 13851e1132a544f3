"""Two-coloured Motzkin paths with the admissibility constraints.

Steps are Up (+1), Down (-1) and two colours of horizontal step, umber
and denim.  A path lives at nonnegative heights.  Admissibility: no
umber horizontal before the first up-step, no umber horizontal at
height 0, no denim horizontal before the first down-step.  "Before" is
strict sequence position.

The weight of a path is the triple (c, d, e) counting umber horizontals,
denim horizontals and down-steps; the length n satisfies
c + d + 2e - f + t = n for a path from height f to height t.

One search over one step table yields the admissible paths and, started
with both colour gates open, the closed walks; weights are read off the
finished paths.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterator


class Step(Enum):
    UP = "U"
    DOWN = "D"
    HOR_UMBER = "u"
    HOR_DENIM = "d"


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
        return (self.start_height + self.steps.count(Step.UP)
                - self.steps.count(Step.DOWN))

    def __len__(self) -> int:
        return len(self.steps)


def _step_table(umber_on_axis: bool) -> dict:
    # The step rules, once: for each state (h > 0, seen_up, seen_down),
    # the allowed moves in tag order D < U < d < u, each a tuple
    # (step, rise, seen_up after, seen_down after).
    table = {}
    for above in (False, True):
        for seen_up in (False, True):
            for seen_down in (False, True):
                moves = []
                if above:
                    moves.append((Step.DOWN, -1, seen_up, True))
                moves.append((Step.UP, 1, True, seen_down))
                if seen_down:
                    moves.append((Step.HOR_DENIM, 0, seen_up, True))
                if seen_up and (above or umber_on_axis):
                    moves.append((Step.HOR_UMBER, 0, True, seen_down))
                table[above, seen_up, seen_down] = tuple(moves)
    return table


# admissible paths: no umber on the axis
_STEPS = _step_table(umber_on_axis=False)
# closed walks with umber allowed on the axis (colour gates left open)
_FREE_STEPS = _step_table(umber_on_axis=True)


def is_admissible(path: ColouredPath) -> bool:
    """Nonnegativity plus the three colour constraints of the bijection."""
    h = path.start_height
    seen_up = seen_down = False
    for s in path.steps:
        for move in _STEPS[h > 0, seen_up, seen_down]:
            if move[0] is s:
                break
        else:
            return False
        _, rise, seen_up, seen_down = move
        h += rise
    return True


_WEIGHT_STEPS = (Step.HOR_UMBER, Step.HOR_DENIM, Step.DOWN)


def weight(path: ColouredPath) -> tuple[int, int, int]:
    """(c, d, e) = counts of umber, denim and down steps.

    Defined for any path, admissible or not.
    """
    return tuple(map(path.steps.count, _WEIGHT_STEPS))


def enumerate_paths(n: int, f: int, t: int) -> Iterator[ColouredPath]:
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
        found = [ColouredPath(f, ())] if f == t else []
    else:
        found = _walk([], n, f, t, _STEPS, f, False, False)
    yield from found


def _walk(prefix: list[Step], n: int, f: int, t: int, table: dict, h: int,
          seen_up: bool, seen_down: bool) -> Iterator[ColouredPath]:
    # Extend prefix (at height h) by the moves of table in every way that
    # can still end at height t.  A module-level function, so no closure
    # refers to itself and a call leaves no garbage cycle.
    left = n - len(prefix) - 1
    for s, rise, up, down in table[h > 0, seen_up, seen_down]:
        if abs(h + rise - t) > left:
            continue
        if left:
            prefix.append(s)
            yield from _walk(prefix, n, f, t, table, h + rise, up, down)
            prefix.pop()
        else:
            yield ColouredPath(f, (*prefix, s))


def count_paths(n: int, f: int, t: int) -> int:
    return sum(1 for _ in enumerate_paths(n, f, t))


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


def _closed_walk_weights(n: int, table: dict) -> Counter:
    # All walks of length n from height 0 back to 0 under the height rules
    # of table: the search starts with both colour gates open, so no
    # colour rule applies.  The empty walk counts once.
    if n == 0:
        return Counter({(0, 0, 0): 1})
    return Counter(map(weight, _walk([], n, 0, 0, table, 0, True, True)))


def unconstrained_weight_counts(n: int) -> Counter:
    """Weights of all closed two-coloured Motzkin walks, no colour rules.

    Independent oracle for the series solution of the height-0 weight
    generating function.
    """
    return _closed_walk_weights(n, _FREE_STEPS)


def no_axis_umber_weight_counts(n: int) -> Counter:
    """Same, but umber horizontals are banned at height 0."""
    return _closed_walk_weights(n, _STEPS)
