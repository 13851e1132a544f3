"""Tests for exact polynomial and truncated-series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from svtab.series import (
    ALPHA,
    MultiPoly,
    NonExactDivision,
    ONE,
    X,
    Y,
    ZSeries,
    check_reversion,
    solve_M,
    solve_M0,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def poly_strategy():
    monos = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    return st.dictionaries(monos, st.integers(-9, 9), max_size=5).map(MultiPoly)


def test_poly_basics():
    assert MultiPoly.zero().is_zero()
    assert ONE.is_one()
    assert (X - X).is_zero()
    assert MultiPoly.const(7).constant_value() == 7
    assert X.constant_value() is None
    assert X + Y == Y + X
    assert X * (Y + ALPHA) == X * Y + X * ALPHA
    with pytest.raises(ValueError):
        MultiPoly.var("q")


def test_poly_str():
    assert str(MultiPoly.zero()) == "0"
    assert str(MultiPoly.const(-2)) == "-2"
    assert str(X * X * 3 - Y + ALPHA) == "3*x^2 - y + alpha"


def test_poly_pow():
    assert (X + Y) ** 0 == ONE
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    with pytest.raises(ValueError):
        (X + Y) ** -1


def test_divexact_recovers_factor():
    p = (X + Y) * (ALPHA * 2 + ONE)
    assert p.divexact(X + Y) == ALPHA * 2 + ONE
    assert p.divexact(ALPHA * 2 + ONE) == X + Y


def test_divexact_rejects_inexact():
    with pytest.raises(NonExactDivision):
        (X + ONE).divexact(Y)
    with pytest.raises(NonExactDivision):
        (X * 3).divexact(X * 2)
    with pytest.raises(NonExactDivision):
        X.divexact(MultiPoly.zero())


@settings(max_examples=120, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_divexact_inverts_product(a, b):
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a


# The general division loop, as it runs for divisors of several terms; a
# one-term divisor must give the same quotient and the same failure.
def _general_divexact(p, d):
    lead = max(d.terms)
    lead_coeff = d.terms[lead]
    rem = p.terms
    quot = {}
    while rem:
        e = max(rem)
        k = rem[e]
        diff = (e[0] - lead[0], e[1] - lead[1], e[2] - lead[2])
        if min(diff) < 0 or k % lead_coeff != 0:
            raise NonExactDivision(f"{d} does not divide {p} exactly")
        q = k // lead_coeff
        quot[diff] = quot.get(diff, 0) + q
        for e2, k2 in d.terms.items():
            tgt = (diff[0] + e2[0], diff[1] + e2[1], diff[2] + e2[2])
            nv = rem.get(tgt, 0) - q * k2
            if nv:
                rem[tgt] = nv
            else:
                rem.pop(tgt, None)
    return MultiPoly(quot)


def monomial_strategy():
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    coeff = st.integers(1, 6).flatmap(lambda k: st.sampled_from((k, -k)))
    return st.builds(lambda e, k: MultiPoly({e: k}), exps, coeff)


def _poly_outcome(build):
    try:
        return "value", build()
    except NonExactDivision as exc:
        return "raises", str(exc)


@settings(max_examples=150, deadline=None)
@given(poly_strategy(), monomial_strategy())
def test_monomial_divexact_inverts_product(p, m):
    assert (p * m).divexact(m) == p


@settings(max_examples=150, deadline=None)
@given(poly_strategy(), poly_strategy(), monomial_strategy())
def test_monomial_divexact_matches_the_general_loop(p, q, m):
    # q added to a multiple of m makes it a non-multiple unless m divides q
    for num in (p, p * m + q):
        assert _poly_outcome(lambda: num.divexact(m)) == _poly_outcome(
            lambda: _general_divexact(num, m))


# Tuple-keyed references for the packed representation: the term map as
# (a, b, c) -> coefficient, read through the public ``terms``.

_WIDE = 2 ** 20 - 1  # the largest exponent a key holds


def wide_poly_strategy():
    # exponents near zero and near the field width, zero coefficients kept
    exp = st.one_of(st.integers(0, 3), st.integers(_WIDE - 3, _WIDE))
    return st.dictionaries(st.tuples(exp, exp, exp), st.integers(-9, 9),
                           max_size=6)


def _tuple_str(terms):
    names = ("x", "y", "alpha")
    parts = []
    for exps in sorted(terms, reverse=True):
        k = terms[exps]
        mono = "*".join(n if p == 1 else f"{n}^{p}"
                        for n, p in zip(names, exps) if p)
        body = str(abs(k)) if not mono else (
            mono if abs(k) == 1 else f"{abs(k)}*{mono}")
        if not parts:
            parts.append(("-" if k < 0 else "") + body)
        else:
            parts.append(f"{'-' if k < 0 else '+'} {body}")
    return " ".join(parts) or "0"


def _tuple_substitute(terms, x, y, alpha):
    values = (x, y, alpha)
    out = {}
    for exps, k in terms.items():
        for v, p in zip(values, exps):
            if v is not None:
                k *= v ** p
        key = tuple(p if v is None else 0 for v, p in zip(values, exps))
        out[key] = out.get(key, 0) + k
    return {e: k for e, k in out.items() if k}


@settings(max_examples=150, deadline=None)
@given(wide_poly_strategy())
def test_packed_keys_round_trip_and_print_in_triple_order(d):
    p = MultiPoly(d)
    want = {k: v for k, v in d.items() if v}
    assert p.terms == want
    assert str(p) == _tuple_str(want)
    for exps, k in want.items():
        assert p.coefficient(*exps) == k


_SUB_VALUES = st.sampled_from((None, None, 0, 1, -1, 2))


@settings(max_examples=150, deadline=None)
@given(poly_strategy(), _SUB_VALUES, _SUB_VALUES, _SUB_VALUES)
def test_substitute_and_derivatives_match_a_tuple_reference(p, x, y, alpha):
    terms = p.terms
    assert p.substitute(x=x, y=y, alpha=alpha).terms == _tuple_substitute(
        terms, x, y, alpha)
    assert p.alpha_derivative().terms == {
        (a, b, c - 1): k * c for (a, b, c), k in terms.items() if c}
    point = (Fraction(1, 2), Fraction(-3), Fraction(2, 5))
    assert p.specialize(*point) == sum(
        k * point[0] ** a * point[1] ** b * point[2] ** c
        for (a, b, c), k in terms.items())


def _tuple_difference(left, right):
    out = dict(left)
    for exps, k in right.items():
        out[exps] = out.get(exps, 0) - k
    return {e: k for e, k in out.items() if k}


@settings(max_examples=150, deadline=None)
@given(poly_strategy(), poly_strategy(), st.integers(-9, 9))
def test_differences_match_a_tuple_reference(p, q, k):
    # one pass over a copy of the left side's map, zero coefficients dropped
    want = _tuple_difference(p.terms, q.terms)
    assert (p - q).terms == want
    assert str(p - q) == _tuple_str(want)
    assert (p - k).terms == _tuple_difference(p.terms, {(0, 0, 0): k})
    assert (k - p).terms == _tuple_difference({(0, 0, 0): k}, p.terms)
    assert (p - p).is_zero()


def test_coefficient_reads_one_term():
    p = X * X * Y * 3 - ALPHA + 5
    assert p.coefficient(2, 1, 0) == 3
    assert p.coefficient(0, 0, 1) == -1
    assert p.coefficient(0, 0, 0) == 5
    assert p.coefficient(1, 1, 0) == 0
    assert p.coefficient(-1, 0, 0) == 0
    assert p.coefficient(2 ** 20, 0, 0) == 0


def test_constructor_rejects_malformed_exponents():
    for exps in [(-1, 0, 0), (0, 0, -2), (1.5, 0, 0), (0, "1", 0),
                 (True, 0, 0), (1, 2), (1, 2, 3, 4)]:
        with pytest.raises(ValueError) as info:
            MultiPoly({exps: 1})
        assert repr(exps) in str(info.value)
    # a malformed key is rejected even with a zero coefficient
    with pytest.raises(ValueError):
        MultiPoly({(-1, 0, 0): 0})
    for exps in [(2 ** 20, 0, 0), (0, 2 ** 20, 0), (0, 0, 2 ** 40)]:
        with pytest.raises(OverflowError) as info:
            MultiPoly({exps: 1})
        assert repr(exps) in str(info.value)
    top = MultiPoly({(_WIDE, _WIDE, _WIDE): 1})
    assert top.terms == {(_WIDE, _WIDE, _WIDE): 1}


def _exps(i, p, rest):
    # exponent p in variable i (x, y, alpha = 0, 1, 2), rest elsewhere
    return tuple(p if j == i else rest for j in range(3))


def test_products_past_the_field_width_raise():
    half = 2 ** 19
    for i in range(3):
        lo = MultiPoly({_exps(i, half - 1, 1): 1})
        hi = MultiPoly({_exps(i, half, 1): 1})
        # the largest exponent still fits
        assert (hi * lo).terms == {_exps(i, _WIDE, 2): 1}
        with pytest.raises(OverflowError):
            hi * hi
        with pytest.raises(OverflowError):
            MultiPoly.sum_of_products(
                [(ONE, ONE), (MultiPoly({_exps(i, _WIDE, 0): 1}), X * Y * ALPHA)])
    # the general division loop would carry a remainder term past the width
    with pytest.raises(OverflowError):
        (X * X).divexact(X + MultiPoly({(0, _WIDE, 0): 1}))


def test_divexact_rejects_borrows_on_both_paths():
    # every field of the leading term borrows in turn: x^2 y over x y^2,
    # y alpha over x and x^2 over x alpha, as a monomial and with a tail
    for num, den in [(X * X * Y, X * Y * Y), (Y * ALPHA, X),
                     (X * X, X * ALPHA), (X * Y * ALPHA, Y * Y)]:
        for d in (den, den + ONE, den * 3 - ALPHA * ALPHA):
            with pytest.raises(NonExactDivision):
                num.divexact(d)
            with pytest.raises(NonExactDivision):
                _general_divexact(num, d)


def test_substitute_partial():
    p = X * Y + ALPHA * X
    assert p.substitute(x=2) == Y * 2 + ALPHA * 2
    assert p.substitute(x=1, y=1, alpha=1).constant_value() == 2


def test_specialize_fraction():
    p = X * 6 + Y
    assert p.specialize(Fraction(1, 2), Fraction(1, 3), 0) == Fraction(10, 3)


def test_alpha_derivative():
    p = ALPHA * ALPHA * X + ALPHA * 3 + Y
    assert p.alpha_derivative() == ALPHA * X * 2 + MultiPoly.const(3)


def test_zseries_arithmetic():
    z = ZSeries.z(5)
    one = ZSeries.one(5)
    geom = (one - z).unit_inverse()
    assert all(geom[n] == ONE for n in range(6))
    assert (geom * (one - z)) == one
    assert (z * z) == z.shift(1)
    assert z.scale(X)[1] == X
    assert (geom - geom).is_zero()


def test_zseries_mismatched_orders():
    with pytest.raises(ValueError):
        ZSeries.z(3) + ZSeries.z(4)


def test_unit_inverse_needs_unit():
    with pytest.raises(ValueError):
        ZSeries.z(3).unit_inverse()


def test_exact_divide_cancels_valuation():
    z = ZSeries.z(6)
    num = z * z * (ZSeries.one(6) + z)
    got = num.exact_divide(z)
    assert got == z * (ZSeries.one(6) + z)
    assert num.valuation() == 2
    assert ZSeries.zero(6).valuation() is None


def test_exact_divide_rejects_lower_valuation():
    z = ZSeries.z(4)
    with pytest.raises(NonExactDivision):
        ZSeries.one(4).exact_divide(z)


# Schoolbook references for the multiply-accumulate kernel: every partial
# sum is its own MultiPoly, as in a + b * c written out term by term.

def _schoolbook_product(a, b):
    n = a.order
    out = [MultiPoly.zero()] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return ZSeries(n, out)


def _schoolbook_inverse(a):
    out = [ONE]
    for k in range(1, a.order + 1):
        acc = MultiPoly.zero()
        for j in range(1, k + 1):
            acc = acc + a[j] * out[k - j]
        out.append(-acc)
    return ZSeries(a.order, out)


def _schoolbook_divide(num, den):
    n = num.order
    v = den.valuation()
    if v is None:
        raise NonExactDivision("division by the zero series")
    for i in range(min(v, n + 1)):
        if not num[i].is_zero():
            raise NonExactDivision(
                f"numerator has a z^{i} term below the denominator valuation {v}")
    out = [MultiPoly.zero()] * (n + 1)
    for k in range(n + 1 - v):
        acc = num[v + k]
        for j in range(k):
            acc = acc - out[j] * den[v + k - j]
        out[k] = acc.divexact(den[v])
    return ZSeries(n, out)


def _outcome(build):
    try:
        return "value", build()
    except NonExactDivision as exc:
        return "raises", str(exc)


@st.composite
def sparse_series(draw, order, valuation=0):
    # mostly zero coefficients, and exactly zero below the valuation
    coeff = st.one_of(st.just(MultiPoly.zero()), st.just(MultiPoly.zero()),
                      poly_strategy())
    coeffs = [MultiPoly.zero()] * min(valuation, order + 1)
    coeffs += draw(st.lists(coeff, min_size=order + 1 - len(coeffs),
                            max_size=order + 1 - len(coeffs)))
    return ZSeries(order, coeffs)


@st.composite
def division_cases(draw):
    order = draw(st.integers(0, 7))
    den = draw(sparse_series(order, valuation=draw(st.integers(0, 3))))
    if draw(st.booleans()):
        # an exact quotient times the denominator, shifted or not
        num = _schoolbook_product(draw(sparse_series(order)), den)
    else:
        num = draw(sparse_series(order, valuation=draw(st.integers(0, 3))))
    return num, den


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(poly_strategy(), poly_strategy()), max_size=6))
def test_sum_of_products_is_the_sum_of_the_products(pairs):
    want = MultiPoly.zero()
    for a, b in pairs:
        want = want + a * b
    assert MultiPoly.sum_of_products(pairs) == want


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda n: st.tuples(sparse_series(n), sparse_series(n))))
def test_series_product_matches_schoolbook(pair):
    a, b = pair
    assert a * b == _schoolbook_product(a, b)
    assert a * a == _schoolbook_product(a, a)


def test_square_equals_the_product_of_two_equal_series():
    # F * F takes the pair-once square; F * G with G == F a distinct
    # object takes the general product
    for order in (0, 1, 2, 12, 24):
        for subs in ((), (1, 1, 1), (0, 0, None)):
            m = solve_M(order, *subs)
            for f in (m, m.shift(1), m.shift(3)):
                g = ZSeries(f.order, f.coeffs)
                assert g is not f
                assert f * f == f * g == _schoolbook_product(f, g), (order, subs)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7).flatmap(sparse_series))
def test_unit_inverse_matches_schoolbook(a):
    unit = ZSeries(a.order, (ONE,) + a.coeffs[1:])
    assert unit.unit_inverse() == _schoolbook_inverse(unit)


@settings(max_examples=150, deadline=None)
@given(division_cases())
def test_exact_divide_matches_schoolbook_and_its_messages(case):
    num, den = case
    assert _outcome(lambda: num.exact_divide(den)) == _outcome(
        lambda: _schoolbook_divide(num, den))


def test_exact_divide_failure_messages():
    z = ZSeries.z(3)
    one = ZSeries.one(3)
    cases = [
        (one, ZSeries.zero(3), "division by the zero series"),
        (one + z, z, "numerator has a z^0 term below the denominator "
                     "valuation 1"),
        ((z * z).scale(X + ONE), z.scale(Y),
         "y does not divide x + 1 exactly"),
    ]
    for num, den, message in cases:
        with pytest.raises(NonExactDivision) as info:
            num.exact_divide(den)
        assert str(info.value) == message
        with pytest.raises(NonExactDivision) as info:
            _schoolbook_divide(num, den)
        assert str(info.value) == message


def test_solve_M_satisfies_its_equation():
    order = 30
    m = solve_M(order)
    one = ZSeries.one(order)
    rhs = one + m.shift(1).scale(X + Y) + (m * m).shift(2).scale(ALPHA)
    assert m == rhs
    assert m[0] == ONE


def _fixed_point_M(order, x_val=None, y_val=None, alpha_val=None):
    # Reference: `order` rounds of M <- 1 + (x+y) z M + alpha z^2 M^2 from
    # M = 1; round k settles the z^k coefficient.
    xy = (X + Y).substitute(x=x_val, y=y_val)
    al = ALPHA.substitute(alpha=alpha_val)
    one = ZSeries.one(order)
    m = one
    for _ in range(order):
        m = one + m.shift(1).scale(xy) + (m * m).shift(2).scale(al)
    return m


@pytest.mark.parametrize("subs", [(), (1, 1, 1), (2, None, 3)])
def test_solve_M_matches_the_fixed_point_reference(subs):
    for order in range(17):
        assert solve_M(order, *subs) == _fixed_point_M(order, *subs)


def _convolution_M(order, x_val=None, y_val=None, alpha_val=None):
    # Reference: one pass over the coefficients, M_0 = 1 and
    # M_k = (x+y) M_(k-1) + alpha sum_(i+j=k-2) M_i M_j, each unordered
    # pair of the symmetric convolution summed once.
    xy = (X + Y).substitute(x=x_val, y=y_val)
    al = ALPHA.substitute(alpha=alpha_val)
    m = [ONE]
    for k in range(1, order + 1):
        s = k - 2
        conv = MultiPoly.sum_of_products(
            (m[i], m[s - i]) for i in range((s + 1) // 2)) * 2
        if s >= 0 and s % 2 == 0:
            conv = conv + m[s // 2] * m[s // 2]
        m.append(MultiPoly.sum_of_products(((xy, m[k - 1]), (al, conv))))
    return ZSeries(order, m)


# x, y and alpha each unset, 0, 1, -1 or 2: the symbolic case, the
# all-given cases and a fixed sample of the mixed ones
_M_SUBS = [(None, None, None), (0, 0, 0), (1, 1, 1), (-1, -1, -1), (2, 2, 2),
           (0, None, None), (None, 0, None), (None, None, 0),
           (1, None, -1), (None, 2, 1), (-1, 2, None), (2, -1, 0),
           (0, 1, None), (None, -1, 2), (1, -1, 2), (2, 0, -1)]


@pytest.mark.parametrize("subs", _M_SUBS)
def test_solve_M_matches_the_convolution_reference(subs):
    for order in range(31):
        assert solve_M(order, *subs) == _convolution_M(order, *subs), order


def test_solve_M_has_one_cache_entry_per_truncation():
    solve_M.cache_clear()
    first = solve_M(9)
    assert solve_M(9, None, None, None) is first
    assert solve_M(9, x_val=None, alpha_val=None) is first
    info = solve_M.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_pow_equals_repeated_products():
    poly = X + Y * 2 - ALPHA
    prod = ONE
    for k in range(10):
        assert poly ** k == prod
        prod = prod * poly


def test_solve_M_catalan_at_unit_values():
    m = solve_M(8, x_val=1, y_val=1, alpha_val=1)
    got = [m[n].constant_value() for n in range(9)]
    assert got == CATALAN[1:10]


def test_solve_M0_satisfies_its_equation():
    order = 10
    m = solve_M(order)
    m0 = solve_M0(order)
    one = ZSeries.one(order)
    denom = one - ZSeries.z(order).scale(Y) - (m.shift(2)).scale(ALPHA)
    assert m0 * denom == one


def test_reversion_check_passes():
    r = check_reversion(12)
    assert r.ok
    assert bool(r)
    assert r.first_mismatch is None


def test_reversion_check_catches_corruption():
    m = solve_M(8)
    coeffs = list(m.coeffs)
    coeffs[5] = coeffs[5] + ONE
    bad = ZSeries(8, coeffs)
    r = check_reversion(8, m=bad)
    assert not r.ok
    assert r.first_mismatch is not None


def test_series_substitute_and_specialize():
    m = solve_M(5)
    at_111 = m.substitute(x=1, y=1, alpha=1)
    assert [at_111[n].constant_value() for n in range(6)] == CATALAN[1:7]
    vals = m.specialize(1, 1, 1)
    assert list(vals) == [Fraction(c) for c in CATALAN[1:7]]


def test_dump_format():
    m = solve_M(3)
    assert m.dump() == ("0: 1\n"
                        "1: x + y\n"
                        "2: x^2 + 2*x*y + y^2 + alpha\n"
                        "3: x^3 + 3*x^2*y + 3*x*y^2 + 3*x*alpha"
                        " + y^3 + 3*y*alpha")
