"""Tests for the assembled generating functions against the path oracle."""

from fractions import Fraction

import pytest

from svtab.genfun import (
    SeriesBlocks,
    expected_downsteps_series,
    gf_skew,
    gf_straight,
    refined_coefficient,
    series_blocks,
    skew_drop_terms,
    skew_rise_terms,
    straight_terms,
)
from svtab.paths import count_paths, weight_counts
from svtab.series import ONE, X


ORDER = 7


def oracle_poly_terms(n, f, t):
    return {key: k for key, k in weight_counts(n, f, t).items()}


def series_terms(series, n):
    return dict(series[n].terms)


def test_straight_series_matches_paths():
    for t in range(3):
        series = gf_straight(t, ORDER)
        for n in range(ORDER + 1):
            assert series_terms(series, n) == oracle_poly_terms(n, 0, t), (t, n)


def test_skew_drop_series_matches_paths():
    for (f, t) in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]:
        series = gf_skew(f, t, ORDER)
        for n in range(ORDER + 1):
            assert series_terms(series, n) == oracle_poly_terms(n, f, t), (f, t, n)


def test_skew_rise_series_matches_paths():
    for (f, t) in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)]:
        series = gf_skew(f, t, ORDER)
        for n in range(ORDER + 1):
            assert series_terms(series, n) == oracle_poly_terms(n, f, t), (f, t, n)


def _gf(f, t, order, *subs):
    return gf_skew(f, t, order, *subs) if f else gf_straight(t, order, *subs)


def test_specialized_build_agrees_with_symbolic():
    # Every harness frame at x = y = 1, with and without alpha = 1; the
    # harness reads only the symbolic series, so this keeps the
    # specialized pipeline checked against it.
    for f in range(4):
        for t in range(4):
            sym = _gf(f, t, 9)
            for alpha in (1, None):
                assert sym.substitute(x=1, y=1, alpha=alpha) == \
                    _gf(f, t, 9, 1, 1, alpha), (f, t, alpha)


def test_total_counts_at_unit_values():
    for (f, t) in [(0, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
        if f == 0:
            series = gf_straight(t, ORDER, x_val=1, y_val=1, alpha_val=1)
        else:
            series = gf_skew(f, t, ORDER, x_val=1, y_val=1, alpha_val=1)
        for n in range(ORDER + 1):
            assert series[n].constant_value() == count_paths(n, f, t), (f, t, n)


def test_straight_dump_small():
    assert gf_straight(0, 2).dump() == "0: 1\n1: 0\n2: alpha"
    assert gf_straight(1, 1).dump() == "0: 0\n1: 1"


def test_term_valuation_guards():
    with pytest.raises(ValueError):
        straight_terms(2, 1)
    with pytest.raises(ValueError):
        skew_drop_terms(3, 1, 1)
    with pytest.raises(ValueError):
        skew_rise_terms(1, 3, 1)
    with pytest.raises(ValueError):
        gf_skew(0, 1, 4)
    with pytest.raises(ValueError):
        straight_terms(-1, 4)


def test_term_counts():
    assert len(straight_terms(1, 4)) == 3
    assert len(skew_drop_terms(2, 1, 4)) == 7
    assert len(skew_rise_terms(1, 2, 4)) == 5


def test_refined_coefficient_reads_monomials():
    series = gf_straight(1, 5)
    # length 3, one down step: UUD, UDU give alpha; Uuu gives x^2
    assert refined_coefficient(series, 3, 0, 0, 1) == 2
    assert refined_coefficient(series, 3, 2, 0, 0) == 1
    assert refined_coefficient(series, 3, 9, 0, 0) == 0
    with pytest.raises(ValueError):
        refined_coefficient(series, 6, 0, 0, 0)
    with pytest.raises(ValueError):
        refined_coefficient(series, -1, 0, 0, 0)


def test_expected_downsteps_frozen_values():
    t0 = expected_downsteps_series(0, 6)
    assert t0 == (Fraction(0), None, Fraction(1), Fraction(1),
                  Fraction(7, 5), Fraction(12, 7), Fraction(2))
    t1 = expected_downsteps_series(1, 4)
    assert t1 == (None, Fraction(0), Fraction(0),
                  Fraction(2, 3), Fraction(8, 9))


def test_expected_downsteps_against_oracle():
    for t in range(3):
        got = expected_downsteps_series(t, 6)
        for n in range(7):
            wc = weight_counts(n, 0, t)
            total = sum(wc.values())
            if total == 0:
                assert got[n] is None
            else:
                downs = sum(e * k for (c, d, e), k in wc.items())
                assert got[n] == Fraction(downs, total)


def test_blocks_internal_consistency():
    b = SeriesBlocks(6)
    assert (b.geom_x * (b.one - b.z.scale(X))) == b.z
    # the quadratic identity that pins m also links the shared blocks
    assert b.one_minus_az2m2 + b.az2m2 == b.one
    assert b.zm == b.m.shift(1)


def test_blocks_power_tables_match_pow():
    b = SeriesBlocks(6)
    for k in (5, 0, 2, 7):
        assert b.zm_pow[k] == b.zm ** k
        assert b.geom_x_pow[k] == b.geom_x ** k
        assert b.geom_y_pow[k] == b.geom_y ** k


def test_series_blocks_are_shared():
    b = series_blocks(6, 1, None, 2)
    assert series_blocks(6, 1, None, 2) is b
    assert series_blocks(6, x_val=1, alpha_val=2) is b
    assert series_blocks(6) is series_blocks(6, None, None, None)
    assert series_blocks(6) is not b
