"""Two-coloured Motzkin paths with the admissibility constraints.

A path is a start height and its step word, a str over the tags U (up,
+1), D (down, -1) and the two colours of horizontal step, u (umber) and
d (denim).  A path lives at nonnegative heights.  Admissibility: no
umber horizontal before the first up-step, no umber horizontal at
height 0, no denim horizontal before the first down-step.  "Before" is
strict sequence position.

The weight of a path is the triple (c, d, e) counting umber horizontals,
denim horizontals and down-steps; the length n satisfies
c + d + 2e - f + t = n for a path from height f to height t.

One search over one step table yields the admissible paths and, started
with both colour gates open, the closed walks; weights are read off the
finished paths.  The search walks each word's prefix on a stack and
finishes it from a cached table of the last few steps, keyed by the
state the prefix ends in and the target height (a completion table in
the sense of Nijenhuis and Wilf, Combinatorial Algorithms, 1978).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


def _is_int(value) -> bool:
    # True and False are ints, but no count or size: a path from height
    # True would encode as "True:..." and not decode
    return isinstance(value, int) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    if not _is_int(value) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True, init=False)
class ColouredPath:
    start_height: int
    steps: str

    def __init__(self, start_height: int, steps: str) -> None:
        # written out rather than generated with a __post_init__, so a
        # path costs two checks and two stores: a plain int height passes
        # inline and any other goes to _check_count, and the fields go
        # straight into the instance dict, where the frozen __setattr__
        # would put them.  A word of another type would not hash, encode
        # or compare as its str.
        if type(start_height) is not int or start_height < 0:
            _check_count("start_height", start_height)
        if not isinstance(steps, str):
            raise ValueError(f"steps must be a str, got {steps!r}")
        fields = self.__dict__
        fields["start_height"] = start_height
        fields["steps"] = steps

    @property
    def end_height(self) -> int:
        return (self.start_height + self.steps.count("U")
                - self.steps.count("D"))

    def __len__(self) -> int:
        return len(self.steps)


def _step_table(umber_on_axis: bool) -> dict:
    # The step rules, once: for each state (h > 0, seen_up, seen_down),
    # the allowed moves in tag order D < U < d < u, each a tuple
    # (tag, rise, seen_up after, seen_down after).
    table = {}
    for above in (False, True):
        for seen_up in (False, True):
            for seen_down in (False, True):
                moves = []
                if above:
                    moves.append(("D", -1, seen_up, True))
                moves.append(("U", 1, True, seen_down))
                if seen_down:
                    moves.append(("d", 0, seen_up, True))
                if seen_up and (above or umber_on_axis):
                    moves.append(("u", 0, True, seen_down))
                table[above, seen_up, seen_down] = tuple(moves)
    return table


# admissible paths: no umber on the axis
_STEPS = _step_table(umber_on_axis=False)
# the step tables by umber_on_axis; the closed walks that allow umber on
# the axis read the second with both colour gates open
_TABLES = (_STEPS, _step_table(umber_on_axis=True))


def is_admissible(path: ColouredPath) -> bool:
    """Nonnegativity plus the three colour constraints of the bijection."""
    h = path.start_height
    seen_up = seen_down = False
    for s in path.steps:
        for move in _STEPS[h > 0, seen_up, seen_down]:
            if move[0] == s:
                break
        else:
            return False
        _, rise, seen_up, seen_down = move
        h += rise
    return True


def _word_weight(steps: str) -> tuple[int, int, int]:
    return steps.count("u"), steps.count("d"), steps.count("D")


def weight(path: ColouredPath) -> tuple[int, int, int]:
    """(c, d, e) = counts of umber, denim and down steps.

    Defined for any path, admissible or not.
    """
    return _word_weight(path.steps)


def enumerate_paths(n: int, f: int, t: int) -> Iterator[ColouredPath]:
    """All admissible length-n paths from height f to height t.

    Equivalent to filtering the 4^n step words; the search just abandons
    prefixes that already violate a constraint or cannot reach t.  Output
    order is the plain string order of the step words (D < U < d < u).
    """
    for name, value in (("n", n), ("f", f), ("t", t)):
        _check_count(name, value)
    for word in _walk(n, f, t, False, False, False):
        yield ColouredPath(f, word)


# The last min(n, _TAIL) steps of every word come from the cached tail
# table.  A table key holds a height within _TAIL of its target, so the
# table does not grow with n or the start height.
_TAIL = 4


@lru_cache(maxsize=None)
def _tails(umber_on_axis: bool, h: int, seen_up: bool, seen_down: bool,
           r: int, t: int) -> tuple[str, ...]:
    # Every step word of length r that starts at height h with the given
    # colour gates and ends at height t, in table order.  A word's tail
    # depends on nothing else, so each state is searched once.
    if not r:
        return ("",) if h == t else ()
    words = []
    for s, rise, up, down in _TABLES[umber_on_axis][h > 0, seen_up, seen_down]:
        if abs(h + rise - t) < r:
            words += [s + w for w in _tails(umber_on_axis, h + rise, up,
                                            down, r - 1, t)]
    return tuple(words)


def _walk(n: int, h: int, t: int, umber_on_axis: bool, seen_up: bool,
          seen_down: bool) -> Iterator[str]:
    # Every step word of length n that starts at height h with the given
    # colour gates and ends at height t, in table order.  One explicit
    # stack of (prefix, height, gates) searches the first n - r steps: the
    # children of a node are pushed in reverse so that they pop in table
    # order, and a node at depth n - r yields its prefix followed by each
    # of its cached tails, r = min(n, _TAIL).  No word closes a gap wider
    # than its length, so such a frame asks the table for nothing.
    if abs(h - t) > n:
        return
    table = _TABLES[umber_on_axis]
    r = min(n, _TAIL)
    stack = [("", h, seen_up, seen_down)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, h, seen_up, seen_down = pop()
        left = n - len(prefix)
        if left == r:
            for tail in _tails(umber_on_axis, h, seen_up, seen_down, r, t):
                yield prefix + tail
        else:
            for s, rise, up, down in reversed(table[h > 0, seen_up, seen_down]):
                if abs(h + rise - t) < left:
                    push((prefix + s, h + rise, up, down))


def count_paths(n: int, f: int, t: int) -> int:
    return sum(1 for _ in enumerate_paths(n, f, t))


def weight_counts(n: int, f: int, t: int) -> Counter:
    """Counter mapping (c, d, e) to the number of admissible paths."""
    return Counter(map(weight, enumerate_paths(n, f, t)))


def encode_path(path: ColouredPath) -> str:
    return f"{path.start_height}:{path.steps}"


def decode_path(text: str) -> ColouredPath:
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"missing ':' in path encoding {text!r}")
    # Only what encode_path writes: ASCII digits, no sign, no leading zero.
    if not (head.isascii() and head.isdigit() and head == str(int(head))):
        raise ValueError(f"bad start height in {text!r}")
    for ch in body:
        if ch not in "DUdu":
            raise ValueError(f"unknown step tag {ch!r} in {text!r}")
    return ColouredPath(int(head), body)


def _closed_walk_weights(n: int, umber_on_axis: bool) -> Counter:
    # All walks of length n from height 0 back to 0 under the height rules
    # of one step table: the search starts with both colour gates open, so
    # no colour rule applies.  The empty walk counts once.
    _check_count("n", n)
    return Counter(map(_word_weight, _walk(n, 0, 0, umber_on_axis, True, True)))


def unconstrained_weight_counts(n: int) -> Counter:
    """Weights of all closed two-coloured Motzkin walks, no colour rules.

    Independent oracle for the series solution of the height-0 weight
    generating function.
    """
    return _closed_walk_weights(n, True)


def no_axis_umber_weight_counts(n: int) -> Counter:
    """Same, but umber horizontals are banned at height 0."""
    return _closed_walk_weights(n, False)
