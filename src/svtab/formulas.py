"""Closed-form counting expressions for two-rowed set-valued standard tableaux.

Each evaluator computes one printed formula exactly as displayed, term by
term, under a shared convention: a term whose denominator contains the
factorial of a negative number is zero outright, binomials vanish outside
0 <= b <= a, and chi(S) is the 0/1 truth indicator.  The negative-factorial
test runs before any other factor of a term is formed, so companion
factors like 1/(d+e) are never evaluated for a term that is already dead.
count_thm7's k-sum is the exception to "term by term": its summand is a
hypergeometric term in k, the leading binomial times C(a, low) times a
ratio of small integers, so one exact multiply and divide steps it from
k to k + 1 (see its docstring for why every quotient is exact).  Its
sum ends where the convention makes every later summand zero.

All arithmetic is exact.  A term is an int when its denominator divides
its numerator and a Fraction only when it does not, so a sum of whole
terms runs in int arithmetic, and every count_* evaluator returns an int
whenever its value is whole.  Where an evaluator's expression fails to
match the exhaustive oracles (the verification harness measures this on
desk scale grids), the mismatch is reported, never patched here; one
expression (count_thm6 with t < f) can even return a non-integral
rational, which is passed through unchanged as evidence.
"""

from __future__ import annotations

from fractions import Fraction
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
    def sign(exponent: int) -> int:
        return -1 if exponent % 2 else 1

    @staticmethod
    def chi(condition: bool) -> int:
        return 1 if condition else 0

    @staticmethod
    def term(num_ints: tuple[int, ...], num_facts: tuple[int, ...],
             den_ints: tuple[int, ...], den_facts: tuple[int, ...]) -> Count:
        """One product term: (prod num_ints * prod num_facts!) / (...).

        The denominator-factorial test comes first and a term it kills is
        a plain 0; only a surviving term gets its integer denominator
        factors checked (a zero there would be a genuine singularity,
        which the surrounding formulas never produce once the factorial
        test has passed).  The value is the exact int quotient when the
        denominator divides the numerator and a Fraction otherwise, so
        sums of terms stay in int arithmetic until a term is not whole.
        """
        for m in den_facts:
            if m < 0:
                return 0
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
        quotient, rest = divmod(numerator, denominator)
        return Fraction(numerator, denominator) if rest else quotient


_binom = Convention.binom
_chi = Convention.chi
_term = Convention.term
_sign = Convention.sign


def _as_count(value: Count) -> Count:
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
    total = _chi(e == 0) * _binom(n - 1, t - 1)
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
    total = _chi(e == 0) * _binom(n - 1, t - 1)
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
    total = 0
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

    Each summand of the k-sum is the leading binomial C(k-1, m), with
    m = |f-t| - 1, times a bracket of binomials C(a, low - j), where
    low = n-k-1 and a = 2n+k-f+t-3 (t < f) or 2n+k+f-t-3 (t > f).  With
    d = a - low, a bracket binomial is b1 = C(a, low) times
    low (low-1) ... (low-j+1) / ((d+1) ... (d+j)), so the summand is
    h = +-C(k-1, m) C(a, low) times a ratio of small integers.  From k to
    k + 1, a rises and low falls by one, so h steps by one exact multiply
    and divide, h k (a+1) low / ((k-m) (d+1) (d+2)), and flips sign.
    Every quotient is exact: each is +-C(k-1, m) times a binomial or a
    sum of them.  h starts nonzero, as the lead C(k0-1, m) is 1 (t < f)
    or t - f (t > f), and the k-sum ends at low = 0: every later bracket
    binomial has a negative lower index, which the convention makes zero.
    At t = f the lead C(k-1, -1) is zero for every k, so the k-sum is not
    run.

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
        k, m, a = f - t, f - t - 1, 2 * n - 3
    else:
        total = (_binom(n - 1, t - f - 1)
                 + 2 * _binom(2 * n - 3, n + f - t - 2)
                 - _binom(2 * n - 2, n - f - t - 2))
        if t == f:
            return total
        k, m, a = t - f + 1, t - f - 1, 2 * n - 2
    low = n - k - 1
    h = _binom(k - 1, m) * _binom(a, low)
    brackets = _brackets(low, a - low, t) if 1 < t < f else None
    while low >= 0:
        d = a - low
        if t > f:  # b1 - b2
            total += h * (d + 1 - low) // (d + 1)
        elif t == 0:  # -b1 + b2 + b3 - b4 with b3 = b4 = b1 is b2 - b1
            total -= h * (d + 1 - low) // (d + 1)
        elif t == 1:  # and with b3 = b2 it is 2 b2 - b1 - b4
            total += (h * (low * (2 * d + 5 - low) - (d + 1) * (d + 2))
                      // ((d + 1) * (d + 2)))
        else:
            num, den = next(brackets)
            total += h * num // den
        h = -h * (k * (a + 1) * low) // ((k - m) * (d + 1) * (d + 2))
        k, a, low = k + 1, a + 1, low - 1
    return total


def _brackets(low: int, d: int, t: int) -> Iterator[tuple[int, int]]:
    """(num, den) with -b1 + b2 + b3 - b4 = b1 num / den, for t >= 2.

    b2, b3 and b4 are C(a, low - j) at j = 1, t and 2t, each b1 times the
    ratio low (low-1) ... (low-j+1) / ((d+1) ... (d+j)) with d = a - low.
    One pair is yielded per k, from the given low down to 0.  The ratios
    are formed once and then stepped as h is: from k to k + 1, low falls
    by one and d rises by two, so a numerator gains (low-j) / low and a
    denominator (d+j+1) (d+j+2) / ((d+1) (d+2)), both exact quotients.
    """
    numt = dent = 1
    for j in range(t):
        numt *= low - j
        dent *= d + 1 + j
    num2t, den2t = numt, dent
    for j in range(t, 2 * t):
        num2t *= low - j
        den2t *= d + 1 + j
    while True:
        # the j = 1 ratio is low / (d + 1) itself
        yield (low * (den2t // (d + 1)) + numt * (den2t // dent)
               - den2t - num2t), den2t
        if not low:
            return
        base = (d + 1) * (d + 2)
        numt = numt * (low - t) // low
        dent = dent * ((d + t + 1) * (d + t + 2)) // base
        num2t = num2t * (low - 2 * t) // low
        den2t = den2t * ((d + 2 * t + 1) * (d + 2 * t + 2)) // base
        low, d = low - 1, d + 2


def remark_1_10(n: int, t: int) -> int:
    """Simplification of count_thm7 on the diagonal f = t >= 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if t < 1:
        raise ValueError("t must be at least 1 (it plays both roles)")
    return 2 * _binom(2 * n - 3, n - 2) - _binom(2 * n - 2, n - 2 * t - 2)
