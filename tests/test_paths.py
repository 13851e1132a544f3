"""Tests for the coloured-path oracle."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from svtab.paths import (
    ColouredPath,
    Step,
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


def path(start, tags):
    by_tag = {s.value: s for s in Step}
    return ColouredPath(start, tuple(by_tag[ch] for ch in tags))


def test_path_below_axis_is_inadmissible():
    assert not is_admissible(path(0, "D"))
    assert not is_admissible(path(1, "DD"))
    assert is_admissible(path(1, "DU"))  # touching zero is fine
    with pytest.raises(ValueError):
        ColouredPath(-1, ())


def test_admissibility_umber_rules():
    # umber before the first up step is forbidden
    assert not is_admissible(path(1, "uU"))
    assert is_admissible(path(1, "Uu"))
    # umber on the axis is forbidden even after an up step
    assert not is_admissible(path(1, "UDDu"))
    assert is_admissible(path(1, "UDu"))


def test_admissibility_denim_rules():
    # denim before the first down step is forbidden
    assert not is_admissible(path(2, "dD"))
    assert is_admissible(path(2, "Dd"))
    # height zero does not block denim
    assert is_admissible(path(1, "Dd"))


def test_empty_path_is_admissible():
    assert is_admissible(path(0, ""))
    assert is_admissible(path(3, ""))


def test_weight_counts_steps():
    p = path(2, "DDUudddUD")
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
    tags = sorted(Step, key=lambda s: s.value)
    for n in range(7):
        words = list(product(tags, repeat=n))
        for f in range(4):
            for t in range(4):
                ref = [p for p in (ColouredPath(f, w) for w in words)
                       if is_admissible(p) and p.end_height == t]
                assert list(enumerate_paths(n, f, t)) == ref, (n, f, t)


def test_encode_decode_round_trip():
    for p in enumerate_paths(5, 2, 1):
        assert decode_path(encode_path(p)) == p


def test_decode_rejects_malformed_text():
    with pytest.raises(ValueError):
        decode_path("UDU")  # no start height
    with pytest.raises(ValueError):
        decode_path("x:UD")
    with pytest.raises(ValueError):
        decode_path("1:UQ")


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
    rise = {Step.UP: 1, Step.DOWN: -1, Step.HOR_UMBER: 0, Step.HOR_DENIM: 0}
    out = Counter()
    for word in product(Step, repeat=n):
        h = 0
        for s in word:
            if s is Step.HOR_UMBER and h == 0 and not umber_on_axis:
                break
            h += rise[s]
            if h < 0:
                break
        else:
            if h == 0:
                out[word.count(Step.HOR_UMBER), word.count(Step.HOR_DENIM),
                    word.count(Step.DOWN)] += 1
    return out


def test_closed_walks_equal_filtered_step_words():
    for n in range(7):
        assert unconstrained_weight_counts(n) == \
            _closed_word_weights(n, umber_on_axis=True), n
        assert no_axis_umber_weight_counts(n) == \
            _closed_word_weights(n, umber_on_axis=False), n
