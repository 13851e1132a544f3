"""Tests for the closed-form counting functions and their conventions."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from svtab import formulas
from svtab.formulas import (
    Convention,
    count_cor2,
    count_cor3,
    count_cor4,
    count_thm1,
    count_thm6,
    count_thm7,
    expected_thm5,
    remark_1_10,
)
from svtab.paths import count_paths, weight_counts
from svtab.shapes import enumerate_tableaux, shape_range


def test_binom_outside_pascal_triangle_is_zero():
    b = Convention.binom
    assert b(5, 2) == 10
    assert b(5, -1) == 0
    assert b(5, 6) == 0
    assert b(-1, 0) == 0
    assert b(-3, -3) == 0
    assert b(0, 0) == 1


def test_chi():
    assert Convention.chi(True) == 1
    assert Convention.chi(False) == 0


def test_term_denominator_factorial_kills_first():
    t = Convention.term
    # a negative factorial below the line zeroes the whole term, even
    # when the numerator would have been ill-defined too
    assert t((), (-5,), (), (-1,)) == 0
    assert t((3,), (), (0,), (-2,)) == 0
    assert t((2,), (3,), (4,), (1,)) == Fraction(2 * 6, 4)


def test_term_is_an_int_when_exact_and_a_fraction_otherwise():
    t = Convention.term
    whole = t((2,), (3,), (4,), (1,))
    assert type(whole) is int and whole == 3
    part = t((1,), (3,), (4,), ())
    assert type(part) is Fraction and part == Fraction(3, 2)
    negative = t((-3,), (), (2,), ())
    assert type(negative) is Fraction and negative == Fraction(-3, 2)
    dead = t((3,), (5,), (2,), (-1,))
    assert type(dead) is int and dead == 0
    # an inexact term keeps a sum of terms exact: the t < f refined
    # expression still leaves the integers where it drifts
    drift = count_thm6(7, 2, 1, 2, 0, 3)
    assert type(drift) is Fraction and drift == Fraction(263, 3)
    assert type(count_thm6(7, 1, 2, 2, 0, 2)) is int
    assert type(count_thm1(7, 1, 2, 0, 2)) is int


def test_term_negative_numerator_factorial_raises():
    with pytest.raises(ArithmeticError):
        Convention.term((), (-1,), (), (0,))


def test_term_zero_integer_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        Convention.term((1,), (), (0,), ())


def test_thm1_validates_parameters():
    with pytest.raises(ValueError):
        count_thm1(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        count_thm1(4, 1, 1, 1, 1)  # sum is 5, not 4
    with pytest.raises(ValueError):
        count_thm1(4, -1, 1, 2, 1)


def test_thm1_catalan_diagonal():
    # c = d = t = 0 collapses to the Catalan numbers
    catalan = [1, 2, 5, 14, 42, 132, 429, 1430]
    for e in range(1, 9):
        assert count_thm1(2 * e, 0, 0, 0, e) == catalan[e - 1]


def test_thm1_against_oracle():
    # only realizable weights: umber needs an up step somewhere (c = 0 or
    # e + t >= 1), denim needs a down step (d = 0 or e >= 1)
    for n in range(1, 8):
        for t in range(3):
            wc = weight_counts(n, 0, t)
            for e in range(n):
                for c in range(n + 1):
                    d = n - c - 2 * e - t
                    if d < 0 or 2 * e + t < 1:
                        continue
                    if (c > 0 and e + t < 1) or (d > 0 and e < 1):
                        continue
                    want = wc.get((c, d, e), 0)
                    assert count_thm1(n, t, c, d, e) == want, (n, t, c, d, e)


def test_cor2_fixed_second_row_size():
    # summing the refinement over c must give the e-slice
    for n in range(1, 8):
        for t in range(3):
            for e in range(n):
                if 2 * e + t < 1:
                    continue
                want = sum(k for (c, d, ee), k in weight_counts(n, 0, t).items()
                           if ee == e)
                assert count_cor2(n, t, e) == want, (n, t, e)


def test_cor3_row_size_slice():
    # m entries in row 1 of a straight shape, any second row
    for n in range(2, 8):
        for t in range(3):
            rows = Counter()
            for shape in shape_range(n, 0, t):
                rows += Counter(tab.row_entry_counts()
                                for tab in enumerate_tableaux(shape, n))
            for m in range(1, n + 1):
                assert count_cor3(n, t, m) == rows[m, n - m], (n, t, m)


def test_cor3_rejects_n_equal_1():
    with pytest.raises(ValueError):
        count_cor3(1, 0, 1)


def test_cor4_totals_against_oracle_except_n1():
    for n in range(2, 9):
        for t in range(3):
            assert count_cor4(n, t) == count_paths(n, 0, t), (n, t)


def test_cor4_known_defect_at_n1():
    # measured: the closed form and the enumeration cross at n = 1
    assert count_cor4(1, 0) == 1
    assert count_paths(1, 0, 0) == 0
    assert count_cor4(1, 1) == 0
    assert count_paths(1, 0, 1) == 1


def test_cor4_anchors():
    assert count_cor4(3, 1) == 3
    assert count_cor4(4, 0) == 5


def test_expected_thm5_values():
    assert expected_thm5(4, 0) == Fraction(7, 5)
    assert expected_thm5(5, 0) == Fraction(12, 7)
    assert expected_thm5(3, 1) == Fraction(2, 3)
    assert expected_thm5(4, 1) == Fraction(8, 9)


def test_expected_thm5_edges():
    # measured: at n = 2 the formula disagrees with the oracle
    assert expected_thm5(2, 0) == 0       # oracle mean is 1
    assert expected_thm5(2, 1) == 1       # oracle mean is 0
    with pytest.raises(ValueError):
        expected_thm5(1, 0)


def test_expected_thm5_matches_oracle_from_n3():
    for n in range(3, 9):
        for t in range(3):
            wc = weight_counts(n, 0, t)
            total = sum(wc.values())
            got = expected_thm5(n, t)
            if total == 0:
                assert got is None, (n, t)
            else:
                downs = sum(e * k for (c, d, e), k in wc.items())
                assert got == Fraction(downs, total), (n, t)


def test_thm6_validates_parameters():
    with pytest.raises(ValueError):
        count_thm6(3, 0, 1, 0, 0, 1)  # f = 0 is the straight case
    with pytest.raises(ValueError):
        count_thm6(3, 1, 1, 1, 1, 1)  # sum mismatch


def test_thm6_matches_oracle_when_t_at_least_f():
    for n in range(1, 8):
        for f in range(1, 3):
            for t in range(f, 4):
                wc = weight_counts(n, f, t)
                for (c, d, e), want in sorted(wc.items()):
                    assert count_thm6(n, f, t, c, d, e) == want, (n, f, t, c, d, e)


def test_thm6_known_defect_region():
    # measured: for 0 < t < f the formula drifts from the enumeration,
    # and can even leave the integers
    assert count_thm6(7, 2, 1, 2, 0, 3) == Fraction(263, 3)
    assert weight_counts(7, 2, 1)[2, 0, 3] == 90


def test_thm7_totals_match_oracle_when_t_not_between_0_and_f():
    for n in range(1, 9):
        for f in range(1, 4):
            for t in [0] + list(range(f, 5)):
                assert count_thm7(n, f, t) == count_paths(n, f, t), (n, f, t)


def test_thm7_anchors_and_defects():
    assert count_thm7(3, 1, 1) == 6
    assert count_thm7(2, 1, 1) == 2
    # measured drift on 0 < t < f
    assert count_thm7(1, 2, 1) == 0 and count_paths(1, 2, 1) == 1
    assert count_thm7(2, 2, 1) == 0 and count_paths(2, 2, 1) == 1
    assert count_thm7(3, 2, 1) == 3 and count_paths(3, 2, 1) == 4


def test_remark_matches_balanced_total():
    for n in range(1, 9):
        for t in range(1, 4):
            assert remark_1_10(n, t) == count_thm7(n, t, t), (n, t)
    with pytest.raises(ValueError):
        remark_1_10(3, 0)


def _thm7_term_by_term(n, f, t):
    # the displayed k-sum with every binomial evaluated afresh
    b = Convention.binom

    def sign(exponent):
        return -1 if exponent % 2 else 1

    if t < f:
        total = ((t == 0) * b(n - 1, f - 1)
                 + b(2 * n - 2, n - f + t - 1) - b(2 * n - 3, n - f - 1)
                 - b(2 * n - 2, n - f - t - 2) + b(2 * n - 3, n - f - t - 1))
        for k in range(f - t, n + 1):
            top = 2 * n + k - f + t - 3
            total += sign(k - f + t) * b(k - 1, f - t - 1) * (
                -b(top, n - k - 1) + b(top, n - k - 2)
                + b(top, n - k - t - 1) - b(top, n - k - 2 * t - 1))
        return total
    total = (b(n - 1, t - f - 1) + 2 * b(2 * n - 3, n + f - t - 2)
             - b(2 * n - 2, n - f - t - 2))
    for k in range(t - f + 1, n + 1):
        top = 2 * n + k + f - t - 3
        total += sign(k - t - f - 1) * b(k - 1, t - f - 1) * (
            b(top, n - k - 1) - b(top, n - k - 2))
    return total


def test_thm7_matches_term_by_term_reference():
    for f in range(1, 7):
        for t in range(9):
            for n in range(1, 81):
                assert count_thm7(n, f, t) == _thm7_term_by_term(n, f, t), (
                    n, f, t)
    for f in range(1, 4):
        for t in range(4):
            for n in (150, 200, 257):
                assert count_thm7(n, f, t) == _thm7_term_by_term(n, f, t), (
                    n, f, t)
    for t in range(1, 4):
        for n in range(1, 201):
            assert remark_1_10(n, t) == count_thm7(n, t, t), (n, t)


def test_thm7_evaluates_only_the_prefix_and_the_first_summand(monkeypatch):
    # the displayed prefix (at most five binomials) plus C(k0-1, m) and
    # C(a, low) that start the product; the k-sum makes no fresh comb
    calls = []
    real = formulas.comb

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(formulas, "comb", counting)
    for f, t in ((1, 1), (1, 0), (3, 0), (2, 1), (3, 1), (3, 2), (5, 3),
                 (1, 2), (2, 3)):
        for n in (1, 7, 40, 200):
            calls.clear()
            count_thm7(n, f, t)
            assert len(calls) <= 7, (n, f, t, calls)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=10))
def test_thm7_matches_term_by_term_reference_anywhere(n, f, t):
    assert count_thm7(n, f, t) == _thm7_term_by_term(n, f, t)
