"""Closed-form counting expressions for two-rowed set-valued standard tableaux.

Each evaluator computes one printed formula exactly as displayed, term by
term, under a shared convention: a term whose denominator contains the
factorial of a negative number is zero outright, binomials vanish outside
0 <= b <= a, and chi(S) is the 0/1 truth indicator.  The negative-factorial
test runs before any other factor of a term is formed, so companion
factors like 1/(d+e) are never evaluated for a term that is already dead.
The summands of a k-sum are still the displayed terms, but where every
binomial index moves by one from k to k + 1 (count_thm7), each binomial is
reached along its diagonal with one exact multiply and divide instead of
being evaluated afresh.  Only the binomials that can change the sum are
stepped: a k-sum whose summands the convention makes zero for every k
(count_thm7 at t = f) is not run, a binomial that a summand displays
twice (count_thm7 at t = 0 and t = 1) is stepped once, and a diagonal
that is 1 all along is not stepped.

All arithmetic is exact.  Where an evaluator's expression fails to match
the exhaustive oracles (the verification harness measures this on desk
scale grids), the mismatch is reported, never patched here; one expression
(count_thm6 with t < f) can even return a non-integral rational, which is
passed through unchanged as evidence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, factorial
from typing import Iterator, Optional, Union

Count = Union[int, Fraction]


class Convention:
    """Evaluation rules shared by every closed-form term."""

    @staticmethod
    def binom(a: int, b: int) -> int:
        if b < 0 or a < 0 or b > a:
            return 0
        return comb(a, b)

    @staticmethod
    def binom_diagonal(a: int, b: int, db: int) -> Iterator[int]:
        """binom(a + i, b + i * db) for i = 0, 1, 2, ..., with db 0 or -1.

        A nonzero value gives the next by one exact integer step,
        C(a+1, b) = C(a, b) (a+1) / (a+1-b) and
        C(a+1, b-1) = C(a, b) (a+1) b / ((a-b+1) (a-b+2)).
        A zero value (outside 0 <= b <= a) is taken from binom again, so
        the convention's zeros hold all along the diagonal.  The column
        b = 0 with a >= 0 is 1 all along and is not stepped at all.
        """
        if b == 0 and db == 0 and a >= 0:
            return repeat(1)
        return _walk_diagonal(a, b, db)

    @staticmethod
    def chi(condition: bool) -> int:
        return 1 if condition else 0

    @staticmethod
    def term(num_ints: tuple[int, ...], num_facts: tuple[int, ...],
             den_ints: tuple[int, ...], den_facts: tuple[int, ...]) -> Fraction:
        """One product term: (prod num_ints * prod num_facts!) / (...).

        The denominator-factorial test comes first; only a surviving term
        gets its integer denominator factors checked (a zero there would
        be a genuine singularity, which the surrounding formulas never
        produce once the factorial test has passed).
        """
        for m in den_facts:
            if m < 0:
                return Fraction(0)
        numerator = 1
        for k in num_ints:
            numerator *= k
        for m in num_facts:
            if m < 0:
                raise ArithmeticError(
                    f"negative factorial {m}! in a numerator; "
                    "the convention only zeroes denominators")
            numerator *= factorial(m)
        denominator = 1
        for k in den_ints:
            if k == 0:
                raise ZeroDivisionError(
                    "zero integer factor in a surviving denominator")
            denominator *= k
        for m in den_facts:
            denominator *= factorial(m)
        return Fraction(numerator, denominator)


_binom = Convention.binom
_diagonal = Convention.binom_diagonal
_chi = Convention.chi
_term = Convention.term


def _walk_diagonal(a: int, b: int, db: int) -> Iterator[int]:
    value = _binom(a, b)
    while True:
        yield value
        if value and db:
            value = value * (a + 1) * b // ((a - b + 1) * (a - b + 2))
        elif value:
            value = value * (a + 1) // (a + 1 - b)
        a += 1
        b += db
        if not value:
            value = _binom(a, b)


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _as_count(value: Fraction) -> Count:
    if value.denominator == 1:
        return int(value)
    return value


def count_thm1(n: int, t: int, c: int, d: int, e: int) -> Count:
    """Tableaux of shape (e+t, e) with c+e+t entries in row 1 and d+e in row 2.

    n is the total number of entries; c + d + 2e + t = n is required.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if min(t, c, d, e) < 0:
        raise ValueError("t, c, d, e must be nonnegative")
    if c + d + 2 * e + t != n:
        raise ValueError(
            f"parameter sum c+d+2e+t = {c + d + 2 * e + t} must equal n = {n}")
    total = Fraction(_chi(e == 0) * _binom(n - 1, t - 1))
    total += _term((), (n - 1,), (d + e,), (c, d, e - 1, e + t - 1))
    for b in range(n - c - e + 1, n - e + 2):
        total -= _sign(n - b - c - e - 1) * _term(
            (n - b,), (n - 1,), (b,), (d, b - 1 - d, e - 1, n - b - e + 1))
    return _as_count(total)


def count_cor2(n: int, t: int, e: int) -> Count:
    """Tableaux of shape (e+t, e) with n entries in total."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if t < 0 or e < 0:
        raise ValueError("t and e must be nonnegative")
    total = Fraction(_chi(e == 0) * _binom(n - 1, t - 1))
    for d in range(0, n - 2 * e - t + 1):
        base = _term((), (n - 1,), (),
                     (n - d - 2 * e - t, d, e - 1, e + t - 1))
        if base:
            total += base * (Fraction(1, d + e)
                             - Fraction(n - d - e - t - 1,
                                        (d + e + t + 1) * (d + e + t)))
    return _as_count(total)


def count_cor3(n: int, t: int, m: int) -> Count:
    """Tableaux with m entries in the first row and n entries in total.

    The shape runs over (e+t, e) for all e >= 0.  n = 1 is outside this
    expression's domain (it divides by n - 1) and is rejected.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if m > n:
        raise ValueError("the first row cannot hold more than n entries")
    if n == 1:
        raise ValueError(
            "n = 1 is outside this expression's domain (division by n - 1)")
    total = Fraction(_chi(m == n) * _binom(n - 1, t - 1))
    if m < n:
        total += Fraction(t, n - 1) * _binom(n, m) * _binom(n - 1, m - t - 1)
    total += Fraction(1, n - 1) * _binom(n - 1, m) * _binom(n - 1, m - t - 1)
    return _as_count(total)


def count_cor4(n: int, t: int) -> int:
    """Tableaux with n entries, first row longer by t, over all shapes.

    Stated for n >= 2; n = 1 is still evaluated (the harness records the
    one tuple where the expression and the true count part ways).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return (_binom(2 * n - 2, n - t - 1) - _binom(2 * n - 2, n - t - 2)
            + _binom(n - 2, t - 2))


def expected_thm5(n: int, t: int) -> Optional[Fraction]:
    """Mean second-row length among the tableaux counted by count_cor4.

    Returns None when the denominator count is zero (no tableaux at all
    for these parameters).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if t < 0:
        raise ValueError("t must be nonnegative")
    denominator = count_cor4(n, t)
    if denominator == 0:
        return None
    numerator = (_binom(2 * n - 4, n - t - 1)
                 + (n - 2) * _binom(2 * n - 4, n - t - 3)
                 - (n + 1) * _binom(2 * n - 4, n - t - 4)
                 - _binom(n - 3, t - 2))
    return Fraction(numerator, denominator)


def count_thm6(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    """Tableaux of skew shape (e+t, e)/(f, 0) with given row entry counts.

    Row 1 holds c+e-f+t entries, row 2 holds d+e; the total must satisfy
    c + d + 2e - f + t = n.  For t >= f the expression agrees with the
    exhaustive oracles everywhere tested; for t < f it does not (and can
    even be non-integral), which the harness documents per tuple.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if f < 1:
        raise ValueError("f must be at least 1 for a genuinely skew shape")
    if min(t, c, d, e) < 0:
        raise ValueError("t, c, d, e must be nonnegative")
    if c + d + 2 * e - f + t != n:
        raise ValueError(
            f"parameter sum c+d+2e-f+t = {c + d + 2 * e - f + t} "
            f"must equal n = {n}")
    total = Fraction(0)
    if t < f:
        total += _chi(t == 0 and e == f) * _binom(n - 1, f - 1)
        total -= _term((c + e - f + t,), (n - 1,),
                       (c + e - f, c + e + t), (c, d, e - f - 1, e + t - 1))
        total += _term((), (n,), (c + e - f + t, d + e),
                       (c, d, e - 1, e - f + t - 1))
        total += _term((t,), (n - 1, n - d - f - 1), (n - d - e, c + e - f),
                       (c, d, n - d - 1, e - f - 1, e - f + t - 1))
    else:
        total += _chi(d == 0 and e == 0) * _binom(n - 1, t - f - 1)
        total += _term((), (n,), (c + e - f + t, d + e),
                       (c, d, e - 1, e - f + t - 1))
        total -= _term((), (n - 1,), (c + e + t,),
                       (c, d, e - f - 1, e + t - 1))
    for b in range(n - c - e + f + 1, n - e + f + 2):
        total += _sign(n - b - c - e + f) * _term(
            (n - b,), (n - 1,), (b,),
            (d, b - 1 - d, e - f - 1, n - b - e + f + 1))
    return _as_count(total)


def count_thm7(n: int, f: int, t: int) -> int:
    """Tableaux of skew shape (e+t, e)/(f, 0), any e, with n entries in total.

    The k-sum's summands are the displayed terms.  From one k to the next
    the upper index 2n+k+f-t-3 (or 2n+k-f+t-3) of every bracket binomial
    rises by one while its lower index falls by one, and the leading
    binomial's upper index k-1 rises by one, so each binomial is read off
    its diagonal (Convention.binom_diagonal) rather than evaluated anew.
    Only binomials that can change the sum are stepped: at t = f the
    leading binomial C(k-1, -1) is zero for every k, so the k-sum is not
    run; at t = 0 the bracket's third and fourth binomials equal its
    first, and at t = 1 its third equals its second, so each distinct
    binomial is stepped once and counted with its multiplicity.

    For 0 < t < f the expression disagrees with the exhaustive oracles
    (measured by the harness); t = 0 and t >= f agree everywhere tested.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if f < 1:
        raise ValueError("f must be at least 1 for a genuinely skew shape")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t < f:
        total = (_chi(t == 0) * _binom(n - 1, f - 1)
                 + _binom(2 * n - 2, n - f + t - 1)
                 - _binom(2 * n - 3, n - f - 1)
                 - _binom(2 * n - 2, n - f - t - 2)
                 + _binom(2 * n - 3, n - f - t - 1))
        # every binomial in the k-sum has a negative lower index once k > n
        k0 = f - t
        top = 2 * n - 3  # 2n+k-f+t-3 at k = k0
        steps = (range(k0, n + 1), _diagonal(k0 - 1, f - t - 1, 0),
                 _diagonal(top, n - k0 - 1, -1),
                 _diagonal(top, n - k0 - 2, -1))
        # the bracket -b1 + b2 + b3 - b4 with b3 = b4 = b1 at t = 0
        if t == 0:
            for k, lead, b1, b2 in zip(*steps):
                total += _sign(k - f) * lead * (b2 - b1)
            return total
        # and with b3 = b2 at t = 1
        if t == 1:
            for k, lead, b1, b2, b4 in zip(
                    *steps, _diagonal(top, n - k0 - 3, -1)):
                total += _sign(k - f + 1) * lead * (2 * b2 - b1 - b4)
            return total
        for k, lead, b1, b2, b3, b4 in zip(
                *steps, _diagonal(top, n - k0 - t - 1, -1),
                _diagonal(top, n - k0 - 2 * t - 1, -1)):
            total += _sign(k - f + t) * lead * (-b1 + b2 + b3 - b4)
        return total
    total = (_binom(n - 1, t - f - 1)
             + 2 * _binom(2 * n - 3, n + f - t - 2)
             - _binom(2 * n - 2, n - f - t - 2))
    if t == f:
        # the leading binomial C(k-1, -1) is zero for every k
        return total
    k0 = t - f + 1
    top = 2 * n - 2  # 2n+k+f-t-3 at k = k0
    for k, lead, b1, b2 in zip(
            range(k0, n + 1), _diagonal(k0 - 1, t - f - 1, 0),
            _diagonal(top, n - k0 - 1, -1), _diagonal(top, n - k0 - 2, -1)):
        total += _sign(k - t - f - 1) * lead * (b1 - b2)
    return total


def remark_1_10(n: int, t: int) -> int:
    """Simplification of count_thm7 on the diagonal f = t >= 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if t < 1:
        raise ValueError("t must be at least 1 (it plays both roles)")
    return 2 * _binom(2 * n - 3, n - 2) - _binom(2 * n - 2, n - 2 * t - 2)
