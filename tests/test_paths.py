"""Tests for the coloured-path oracle."""

import dataclasses
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from svtab import paths
from svtab.paths import (
    ColouredPath,
    count_paths,
    decode_path,
    encode_path,
    enumerate_paths,
    is_admissible,
    no_axis_umber_weight_counts,
    unconstrained_weight_counts,
    weight,
    weight_counts,
)
from svtab.series import solve_M, solve_M0


def test_path_below_axis_is_inadmissible():
    assert not is_admissible(ColouredPath(0, "D"))
    assert not is_admissible(ColouredPath(1, "DD"))
    assert is_admissible(ColouredPath(1, "DU"))  # touching zero is fine
    with pytest.raises(ValueError):
        ColouredPath(-1, "")


def test_admissibility_umber_rules():
    # umber before the first up step is forbidden
    assert not is_admissible(ColouredPath(1, "uU"))
    assert is_admissible(ColouredPath(1, "Uu"))
    # umber on the axis is forbidden even after an up step
    assert not is_admissible(ColouredPath(1, "UDDu"))
    assert is_admissible(ColouredPath(1, "UDu"))


def test_admissibility_denim_rules():
    # denim before the first down step is forbidden
    assert not is_admissible(ColouredPath(2, "dD"))
    assert is_admissible(ColouredPath(2, "Dd"))
    # height zero does not block denim
    assert is_admissible(ColouredPath(1, "Dd"))


def test_empty_path_is_admissible():
    assert is_admissible(ColouredPath(0, ""))
    assert is_admissible(ColouredPath(3, ""))


def test_weight_counts_steps():
    p = ColouredPath(2, "DDUudddUD")
    assert weight(p) == (1, 3, 3)
    assert p.end_height == 1
    assert len(p) == 9


def test_enumerate_fixed_endpoints():
    # start f, end t, length n
    for p in enumerate_paths(5, 1, 2):
        assert p.start_height == 1
        assert p.end_height == 2
        assert len(p) == 5
        assert is_admissible(p)


def test_frozen_path_counts():
    assert count_paths(2, 1, 1) == 2
    assert count_paths(3, 1, 1) == 6
    assert count_paths(0, 0, 0) == 1
    assert count_paths(0, 1, 0) == 0
    # odd total rise change with no horizontal steps available
    assert count_paths(1, 0, 2) == 0
    assert count_paths(1, 0, 1) == 1


def test_weight_counts_totals():
    for (n, f, t) in [(4, 0, 0), (5, 1, 1), (6, 2, 1)]:
        wc = weight_counts(n, f, t)
        assert sum(wc.values()) == count_paths(n, f, t)
        for (c, d, e), k in wc.items():
            assert k > 0
            assert c + d + 2 * e - f + t == n


def test_enumeration_equals_filtered_step_words():
    # Reference straight from the definition: every one of the 4^n step
    # words in tag order D < U < d < u, kept when admissible and ending at
    # height t.  The enumerator must yield exactly these, in this order.
    for n in range(7):
        words = ["".join(w) for w in product("DUdu", repeat=n)]
        for f in range(4):
            for t in range(4):
                ref = [p for p in (ColouredPath(f, w) for w in words)
                       if is_admissible(p) and p.end_height == t]
                assert list(enumerate_paths(n, f, t)) == ref, (n, f, t)


def test_path_record_contract():
    # a path is its start height and its step word, and the record
    # compares, hashes and prints as the dataclass
    p = ColouredPath(1, "Ud")
    q = ColouredPath(start_height=1, steps="Ud")
    assert type(p.steps) is str and p.steps == "Ud"
    assert p == q and hash(p) == hash(q)
    assert p != ColouredPath(2, p.steps)
    assert repr(p) == "ColouredPath(start_height=1, steps='Ud')"
    assert dataclasses.replace(p, start_height=2) == ColouredPath(2, p.steps)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.steps = ""
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.start_height = 0
    # a bool is refused: True would encode as "True:", which no decode reads
    for bad in (-1, 1.0, "1", True, False):
        with pytest.raises(ValueError) as err:
            ColouredPath(bad, "")
        assert str(err.value) == \
            f"start_height must be a nonnegative integer, got {bad!r}"
    # a step word that is not a str would not hash, encode or compare as one
    for bad in (["U", "d"], ("U", "d"), None):
        with pytest.raises(ValueError) as err:
            ColouredPath(1, bad)
        assert str(err.value) == f"steps must be a str, got {bad!r}"


def test_enumeration_order_at_larger_n():
    # The filter reference above stops at n = 6.  At n = 7 and 8 the
    # stream must still be in plain string order of the step words
    # (D < U < d < u), without repeats, hold only admissible paths of the
    # frame, and have as many paths as its weight map counts.
    for n in (7, 8):
        for f in range(4):
            for t in range(4):
                words = []
                for p in enumerate_paths(n, f, t):
                    assert is_admissible(p) and p.end_height == t
                    assert p.start_height == f and len(p) == n
                    words.append(p.steps)
                assert words == sorted(set(words)), (n, f, t)
                assert len(words) == sum(weight_counts(n, f, t).values())


def test_encode_decode_round_trip():
    for p in enumerate_paths(5, 2, 1):
        assert decode_path(encode_path(p)) == p


def test_decode_rejects_malformed_text():
    for text, message in [
        ("UDU", "missing ':' in path encoding 'UDU'"),  # no start height
        ("x:UD", "bad start height in 'x:UD'"),
        # heights that int() reads but encode_path never writes
        ("+1:U", "bad start height in '+1:U'"),
        (" 1:U", "bad start height in ' 1:U'"),
        ("1 :U", "bad start height in '1 :U'"),
        ("01:U", "bad start height in '01:U'"),
        ("\u0661:U", "bad start height in '\u0661:U'"),
        ("1_0:U", "bad start height in '1_0:U'"),
        ("-0:U", "bad start height in '-0:U'"),
        ("-1:U", "bad start height in '-1:U'"),
        (":U", "bad start height in ':U'"),
        ("1:UQ", "unknown step tag 'Q' in '1:UQ'"),
        ("1:U\nD", "unknown step tag '\\n' in '1:U\\nD'"),
    ]:
        with pytest.raises(ValueError) as err:
            decode_path(text)
        assert str(err.value) == message


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2))
def test_enumeration_distinct_and_deterministic(n, f, t):
    a = [encode_path(p) for p in enumerate_paths(n, f, t)]
    b = [encode_path(p) for p in enumerate_paths(n, f, t)]
    assert a == b
    assert len(a) == len(set(a))


def test_unconstrained_walks_match_series():
    # closed walks with umber allowed on the axis follow the full
    # three-variable series
    m = solve_M(6)
    for n in range(7):
        wc = unconstrained_weight_counts(n)
        expect = {(c, d, e): k for (c, d, e), k in m[n].terms.items()}
        got = {key: k for key, k in wc.items()}
        # series exponents are (x, y, alpha) = (c, d, e)
        assert got == expect


def test_no_axis_umber_walks_match_series():
    m0 = solve_M0(6)
    for n in range(7):
        wc = no_axis_umber_weight_counts(n)
        expect = {key: k for key, k in m0[n].terms.items()}
        assert dict(wc) == expect


def _closed_word_weights(n, umber_on_axis):
    # Reference straight from the definition: the (c, d, e) Counter of the
    # 4^n step words that stay at height >= 0 and end at 0, without an
    # umber step at height 0 unless umber_on_axis.
    rise = {"U": 1, "D": -1, "u": 0, "d": 0}
    out = Counter()
    for word in product("DUdu", repeat=n):
        h = 0
        for s in word:
            if s == "u" and h == 0 and not umber_on_axis:
                break
            h += rise[s]
            if h < 0:
                break
        else:
            if h == 0:
                out[word.count("u"), word.count("d"), word.count("D")] += 1
    return out


def test_closed_walks_equal_filtered_step_words():
    for n in range(7):
        assert unconstrained_weight_counts(n) == \
            _closed_word_weights(n, umber_on_axis=True), n
        assert no_axis_umber_weight_counts(n) == \
            _closed_word_weights(n, umber_on_axis=False), n


@pytest.mark.parametrize("count", [
    lambda n: list(enumerate_paths(n, 0, 0)),
    lambda n: count_paths(n, 0, 0),
    lambda n: weight_counts(n, 0, 0),
    unconstrained_weight_counts,
    no_axis_umber_weight_counts,
], ids=["enumerate_paths", "count_paths", "weight_counts",
        "unconstrained_weight_counts", "no_axis_umber_weight_counts"])
@pytest.mark.parametrize("bad", [2.5, 2.0, -1, "2", True, False])
def test_path_oracles_reject_a_bad_length(count, bad):
    with pytest.raises(ValueError) as err:
        count(bad)
    assert str(err.value) == f"n must be a nonnegative integer, got {bad!r}"
    assert count(0)  # the empty path or walk


@pytest.mark.parametrize("frame, name, bad", [
    ((3, 0, 1.5), "t", 1.5),
    ((3, 0, "1"), "t", "1"),
    ((3, 1.5, 0), "f", 1.5),
    ((3, "1", 0), "f", "1"),
    ((3, 0, True), "t", True),
    ((3, False, 0), "f", False),
])
def test_enumerate_paths_rejects_a_bad_height(frame, name, bad):
    # rejected before the search, so the tail table gains no entry
    size = paths._tails.cache_info().currsize
    with pytest.raises(ValueError) as err:
        list(enumerate_paths(*frame))
    assert str(err.value) == f"{name} must be a nonnegative integer, got {bad!r}"
    assert paths._tails.cache_info().currsize == size


@pytest.fixture
def fresh_tails():
    tails = paths._tails
    tails.cache_clear()
    yield tails
    tails.cache_clear()


def test_output_does_not_depend_on_the_tail_length(monkeypatch, fresh_tails):
    # The last _TAIL steps of every word come from the cached table and the
    # rest from the stack search; where the cut falls must not show in the
    # stream, its order or the closed-walk weights, so n = 7..9 (past the
    # filter reference above) is pinned for every cut from 1 to 6.
    frames = [(n, f, t) for n in range(10) for f in range(4) for t in range(4)]

    def run():
        # the start height is the frame's, so the step words are the stream
        return ([[p.steps for p in enumerate_paths(*frame)]
                 for frame in frames],
                [(unconstrained_weight_counts(n),
                  no_axis_umber_weight_counts(n)) for n in range(9)])

    expect = run()
    for tail in range(1, 7):
        monkeypatch.setattr(paths, "_TAIL", tail)
        fresh_tails.cache_clear()
        assert run() == expect, tail


def test_tail_table_is_bounded(monkeypatch, fresh_tails):
    # A table key holds a height within r of its target, so walking the
    # grid once fills the table for every larger n on the same targets.
    keys = set()

    def recorded(*key):
        keys.add(key)
        return fresh_tails(*key)

    monkeypatch.setattr(paths, "_tails", recorded)
    for n in range(10):
        for f in range(4):
            for t in range(4):
                for _ in enumerate_paths(n, f, t):
                    pass
    size = len(keys)
    for frame in ((12, 3, 1), (12, 0, 2)):
        assert count_paths(*frame) > 0
    assert fresh_tails.cache_info().currsize == len(keys) == size
    assert all(abs(h - t) <= r for _, h, _, _, r, t in keys)
