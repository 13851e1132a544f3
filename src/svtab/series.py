"""Exact truncated power series over sparse integer polynomials.

Coefficients are polynomials in x, y and alpha with arbitrary-precision
integer coefficients; z is the series variable.  Everything is exact:
there is no fraction field, and division of series is only allowed when
every step of the coefficient recursion divides exactly.  The divisor
must be a unit: its constant coefficient a single nonzero term, which
each step divides term by term; every divisor the generating functions
use meets this.  A failed division raises NonExactDivision, which in
this package always means a generating-function expression was
transcribed wrongly.

A polynomial keys each term x^a y^b alpha^c by one int,
a << 42 | b << 21 | c: three 21-bit fields whose top bits are guard
bits, clear in every stored key, so an exponent runs from 0 to 2^20 - 1.
The key of a product term is the sum of its factors' keys; a product
that sets a guard bit raises OverflowError instead of wrapping.  Packed
keys order as the triples they encode, and the public constructor,
``terms`` and the printed forms speak of triples.  A series squared
(``F * F`` with one object on both sides) forms each unordered pair of
coefficients once.

The module also gives the powers of u = zM, where M(z) is the height-0
weight series, in closed form by Lagrange inversion (M is the first
power shifted down by one), and the reversion self-check, which tests
that closed form against M's functional equation with series products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb
from operator import mul, or_
from typing import Iterable, Optional


class NonExactDivision(ArithmeticError):
    """A series or polynomial division failed to be exact."""


_VAR_NAMES = ("x", "y", "alpha")

# Term keys a << 2S | b << S | c (module docstring); _GUARD holds the top
# bit of each S-bit field and _FIELDS the exponent bits below it.
_SHIFT = 21
_LIMIT = 1 << (_SHIFT - 1)
_MASK = _LIMIT - 1
_GUARD = _LIMIT << 2 * _SHIFT | _LIMIT << _SHIFT | _LIMIT
_FIELDS = (_MASK << 2 * _SHIFT, _MASK << _SHIFT, _MASK)


def _pack(exps: tuple[int, int, int]) -> int:
    """The key of an exponent triple, or ValueError / OverflowError."""
    if len(exps) != 3 or any(type(p) is not int or p < 0 for p in exps):
        raise ValueError(
            f"exponents must be three nonnegative ints, got {exps!r}")
    if max(exps) >= _LIMIT:
        raise OverflowError(f"exponent past {_MASK} in {exps!r}")
    a, b, c = exps
    return a << 2 * _SHIFT | b << _SHIFT | c


def _unpack(key: int) -> tuple[int, int, int]:
    return key >> 2 * _SHIFT, key >> _SHIFT & _MASK, key & _MASK


@lru_cache(maxsize=None)
def _monomial_text(key: int) -> str:
    return "*".join(name if p == 1 else f"{name}^{p}"
                    for name, p in zip(_VAR_NAMES, _unpack(key)) if p)


class MultiPoly:
    """Sparse polynomial in x, y, alpha over the integers.

    Immutable.  The constructor and ``terms`` speak of exponent triples
    (a, b, c); inside, each term is keyed by its packed int (see _pack)
    and maps to a nonzero integer coefficient.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[tuple[int, int, int], int]] = None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                key = _pack(exps)
                if coeff:
                    clean[key] = coeff
        self._terms = clean

    @staticmethod
    def zero() -> "MultiPoly":
        return _wrap({})

    @staticmethod
    def const(k: int) -> "MultiPoly":
        return _wrap({0: k})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        i = _VAR_NAMES.index(name)
        return _wrap({1 << (2 - i) * _SHIFT: 1})

    @property
    def terms(self) -> dict[tuple[int, int, int], int]:
        """A fresh map from exponent triples to coefficients."""
        return {_unpack(e): k for e, k in self._terms.items()}

    def coefficient(self, a: int, b: int, c: int) -> int:
        """The coefficient of x^a y^b alpha^c; 0 where there is no term."""
        if min(a, b, c) < 0 or max(a, b, c) >= _LIMIT:
            return 0
        return self._terms.get(a << 2 * _SHIFT | b << _SHIFT | c, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_value(self) -> Optional[int]:
        if not self._terms:
            return 0
        if len(self._terms) == 1 and 0 in self._terms:
            return self._terms[0]
        return None

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "MultiPoly":
        return _wrap({e: -k for e, k in self._terms.items()})

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other)
        out = dict(self._terms)
        get = out.get
        for e, k in other._terms.items():
            out[e] = get(e, 0) + k
        return _wrap(out)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other)
        out = dict(self._terms)
        get = out.get
        for e, k in other._terms.items():
            out[e] = get(e, 0) - k
        return _wrap(out)

    def __rsub__(self, other) -> "MultiPoly":
        return MultiPoly.const(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return _wrap({e: k * other for e, k in self._terms.items()})
        return MultiPoly.sum_of_products(((self, other),))

    @staticmethod
    def sum_of_products(
            pairs: Iterable[tuple["MultiPoly", "MultiPoly"]]) -> "MultiPoly":
        """The sum of a * b over the pairs, gathered in one term map.

        The partial sums never become polynomials of their own: only the
        finished map is cleaned of zero coefficients and wrapped.  An
        exponent past the field width raises OverflowError.
        """
        out: dict[int, int] = {}
        get = out.get
        for p, q in pairs:
            q_terms = q._terms.items()
            for e1, k1 in p._terms.items():
                for e2, k2 in q_terms:
                    e = e1 + e2
                    out[e] = get(e, 0) + k1 * k2
        if out and reduce(or_, out) & _GUARD:
            raise OverflowError(f"a product has an exponent past {_MASK}")
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def divexact(self, other: "MultiPoly") -> "MultiPoly":
        """Exact quotient by a one-term divisor, or NonExactDivision.

        Each term is divided on its own.  A term e is divisible by the
        divisor's term when (e | GUARD) - lead keeps every guard bit: a
        field that would borrow clears its own.  A divisor of two or more
        terms raises ValueError.
        """
        if other.is_zero():
            raise NonExactDivision("division by the zero polynomial")
        if len(other._terms) > 1:
            raise ValueError(f"divexact needs a one-term divisor, got {other}")
        (lead, lead_coeff), = other._terms.items()
        quot = {}
        for e, k in self._terms.items():
            d = (e | _GUARD) - lead
            if d & _GUARD != _GUARD or k % lead_coeff:
                raise NonExactDivision(
                    f"{other} does not divide {self} exactly")
            quot[d ^ _GUARD] = k // lead_coeff
        return _wrap(quot)

    def alpha_derivative(self) -> "MultiPoly":
        return _wrap({e - 1: k * c for e, k in self._terms.items()
                      if (c := e & _MASK)})

    def substitute(self, x: Optional[int] = None, y: Optional[int] = None,
                   alpha: Optional[int] = None) -> "MultiPoly":
        """Substitute integer values for some of the variables."""
        keep = sum(field for field, v in zip(_FIELDS, (x, y, alpha))
                   if v is None)
        out: dict[int, int] = {}
        get = out.get
        for e, k in self._terms.items():
            if x is not None:
                k *= x ** (e >> 2 * _SHIFT)
            if y is not None:
                k *= y ** (e >> _SHIFT & _MASK)
            if alpha is not None:
                k *= alpha ** (e & _MASK)
            e &= keep
            out[e] = get(e, 0) + k
        return _wrap(out)

    def specialize(self, x, y, alpha) -> Fraction:
        total = Fraction(0)
        x, y, alpha = Fraction(x), Fraction(y), Fraction(alpha)
        for e, k in self._terms.items():
            a, b, c = _unpack(e)
            total += k * x ** a * y ** b * alpha ** c
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            k = self._terms[e]
            vars_part = _monomial_text(e)
            mag = abs(k)
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            parts.append(("-" if k < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _wrap(terms: dict[int, int]) -> MultiPoly:
    """A MultiPoly over a packed term map, which it takes over.

    The map is copied only when it holds a zero coefficient.
    """
    if not all(terms.values()):
        terms = {e: k for e, k in terms.items() if k}
    poly = object.__new__(MultiPoly)
    poly._terms = terms
    return poly


ZERO = MultiPoly.zero()
ONE = MultiPoly.const(1)
X = MultiPoly.var("x")
Y = MultiPoly.var("y")
ALPHA = MultiPoly.var("alpha")


class ZSeries:
    """Power series in z truncated at z^order, with MultiPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[MultiPoly]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need {order + 1} coefficients for order {order}, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("ZSeries is immutable")

    @staticmethod
    def zero(order: int) -> "ZSeries":
        return ZSeries(order, [ZERO] * (order + 1))

    @staticmethod
    def one(order: int) -> "ZSeries":
        return ZSeries.constant(ONE, order)

    @staticmethod
    def constant(poly: MultiPoly, order: int) -> "ZSeries":
        return ZSeries(order, [poly] + [ZERO] * order)

    @staticmethod
    def z(order: int) -> "ZSeries":
        if order == 0:
            return ZSeries.zero(0)
        return ZSeries(order, [ZERO, ONE] + [ZERO] * (order - 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __getitem__(self, n: int) -> MultiPoly:
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        return ZSeries(self.order,
                       [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        return ZSeries(self.order,
                       [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "ZSeries":
        return ZSeries(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        if other is self:
            return self._square()
        a, b = self.coeffs, other.coeffs
        # only pairs of nonzero coefficients enter the kernel
        left = [i for i, c in enumerate(a) if c]
        right = {j for j, c in enumerate(b) if c}
        return ZSeries(self.order, [
            MultiPoly.sum_of_products((a[i], b[k - i]) for i in left
                                      if k - i in right)
            for k in range(self.order + 1)])

    def _square(self) -> "ZSeries":
        # each unordered pair of coefficients once: a_i (2 a_j) for i < j,
        # plus a_h^2 at k = 2h
        a = self.coeffs
        left = [i for i, c in enumerate(a) if c]
        twice = {j: a[j] * 2 for j in left}
        out = []
        for k in range(self.order + 1):
            pairs = [(a[i], twice[k - i]) for i in left
                     if 2 * i < k and k - i in twice]
            if k % 2 == 0 and k // 2 in twice:
                pairs.append((a[k // 2], a[k // 2]))
            out.append(MultiPoly.sum_of_products(pairs))
        return ZSeries(self.order, out)

    def scale(self, poly: MultiPoly | int) -> "ZSeries":
        if isinstance(poly, int):
            poly = MultiPoly.const(poly)
        return ZSeries(self.order, [poly * a for a in self.coeffs])

    def shift(self, k: int) -> "ZSeries":
        """Multiply by z^k (truncating at the order)."""
        if k < 0:
            raise ValueError("negative shift")
        return ZSeries(self.order,
                       ([ZERO] * k + list(self.coeffs))[:self.order + 1])

    def _check(self, other: "ZSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}")

    def exact_divide(self, other: "ZSeries") -> "ZSeries":
        """Quotient Q with Q*other = self modulo z^(order+1).

        The divisor must be a unit, its constant coefficient one nonzero
        term: every step divides by it with MultiPoly.divexact, so a
        longer one raises ValueError.  Raises NonExactDivision when the
        constant coefficient is 0 or a coefficient step fails to divide
        exactly.
        """
        self._check(other)
        b = other.coeffs
        lead = b[0]
        if not lead:
            raise NonExactDivision("the divisor's constant coefficient is 0")
        # the divisor's nonzero positions past 0
        tail = [j for j in range(1, self.order + 1) if b[j]]
        out: list[MultiPoly] = []
        for k, c in enumerate(self.coeffs):
            acc = c - MultiPoly.sum_of_products(
                (out[k - j], b[j]) for j in tail if j <= k)
            out.append(acc.divexact(lead))
        return ZSeries(self.order, out)

    def z_derivative(self) -> "ZSeries":
        """Formal d/dz; the result is truncated one order lower."""
        if self.order == 0:
            return ZSeries.zero(0)
        return ZSeries(self.order - 1,
                       [self.coeffs[k] * k for k in range(1, self.order + 1)])

    def alpha_derivative(self) -> "ZSeries":
        return ZSeries(self.order, [a.alpha_derivative() for a in self.coeffs])

    def substitute(self, x: Optional[int] = None, y: Optional[int] = None,
                   alpha: Optional[int] = None) -> "ZSeries":
        return ZSeries(self.order,
                       [a.substitute(x=x, y=y, alpha=alpha) for a in self.coeffs])

    def specialize(self, x, y, alpha) -> tuple[Fraction, ...]:
        return tuple(a.specialize(x, y, alpha) for a in self.coeffs)

    def truncate(self, order: int) -> "ZSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return ZSeries(order, self.coeffs[:order + 1])

    def dump(self) -> str:
        return "\n".join(f"{i}: {poly}" for i, poly in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"ZSeries(order={self.order})"


def zm_power(k: int, order: int, x_val: Optional[int] = None,
             y_val: Optional[int] = None,
             alpha_val: Optional[int] = None) -> ZSeries:
    """u^k for u = zM, truncated at z^order, in closed form.

    u solves u = z phi(u) with phi(w) = 1 + (x+y) w + alpha w^2, so
    Lagrange inversion gives [z^n] u^k = (k/n) [w^(n-k)] phi(w)^n
    (Flajolet and Sedgewick, Analytic Combinatorics, 2009, Thm A.2;
    Gessel, "Lagrange inversion", JCTA 144, 2016).  With h = a + b and
    h + 2e = n - k, the coefficient of x^a y^b alpha^e is
    k (n-1)! / (e! h! (n-h-e)!) C(h, a), multiplied by k before the
    division, which alone need not be exact.  Integer substitutions are
    folded into the sum: alpha^e, and (x+y)^h at once when x and y are
    both given.
    """
    if k < 0:
        raise ValueError("negative series power")
    if k == 0:
        return ZSeries.one(order)
    if order >= _LIMIT:
        raise OverflowError(f"order {order} is past exponent {_MASK}")
    fact = list(accumulate(range(1, order + 1), mul, initial=1))
    xy_val = None if x_val is None or y_val is None else x_val + y_val
    coeffs = [ZERO] * min(k, order + 1)
    for n in range(k, order + 1):
        top = k * fact[n - 1]
        out: dict[int, int] = {}
        for e in range((n - k) // 2 + 1):
            h = n - k - 2 * e
            c = top // (fact[e] * fact[h] * fact[n - h - e])
            if alpha_val is not None:
                c, e = c * alpha_val ** e, 0
            if xy_val is not None:
                out[e] = out.get(e, 0) + c * xy_val ** h
                continue
            for a in range(h + 1):
                ca, b = c * comb(h, a), h - a
                if x_val is not None:
                    ca, a = ca * x_val ** a, 0
                if y_val is not None:
                    ca, b = ca * y_val ** b, 0
                key = a << 2 * _SHIFT | b << _SHIFT | e
                out[key] = out.get(key, 0) + ca
        coeffs.append(_wrap(out))
    return ZSeries(order, coeffs)


@lru_cache(maxsize=128)
def solve_M(order: int, x_val: Optional[int] = None, y_val: Optional[int] = None,
            alpha_val: Optional[int] = None) -> ZSeries:
    """M with M = 1 + (x+y) z M + alpha z^2 M^2, truncated at z^order.

    zM is zm_power(1, ...): M is that closed form shifted down by one.
    """
    return ZSeries(order, zm_power(1, order + 1, x_val, y_val,
                                   alpha_val).coeffs[1:])


def solve_M0(order: int, x_val: Optional[int] = None, y_val: Optional[int] = None,
             alpha_val: Optional[int] = None) -> ZSeries:
    """M0 = 1/(1 - y z - alpha z^2 M): no umber horizontal on the x-axis."""
    m = solve_M(order, x_val, y_val, alpha_val)
    y = Y.substitute(y=y_val)
    al = ALPHA.substitute(alpha=alpha_val)
    one = ZSeries.one(order)
    denom = one - ZSeries.z(order).scale(y) - m.shift(2).scale(al)
    return one.exact_divide(denom)


class ReversionCheck:
    """Outcome of the Lagrange-inversion self-check; truthy iff it passed."""

    __slots__ = ("ok", "first_mismatch", "part")

    def __init__(self, ok: bool, first_mismatch: Optional[int] = None,
                 part: Optional[str] = None):
        self.ok = ok
        self.first_mismatch = first_mismatch
        self.part = part

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        if self.ok:
            return "ReversionCheck(ok)"
        return f"ReversionCheck(failed at z^{self.first_mismatch} in {self.part})"


def check_reversion(order: int, m: Optional[ZSeries] = None) -> ReversionCheck:
    """Verify that z M(z) is the compositional inverse of z/(1+(x+y)z+alpha z^2).

    Substituting F = z M into that rational function must give back z, and
    the derivative of the function must satisfy
    f'(z) * (1+(x+y)z+alpha z^2)^2 = 1 - alpha z^2 (checked by
    cross-multiplication, one order lower because of the derivative).
    Passing a corrupted series for m is the intended negative control.
    """
    if m is None:
        m = solve_M(order)
    one = ZSeries.one(order)
    f_series = m.shift(1)  # F = z M
    denom_at_f = one + f_series.scale(X + Y) + (f_series * f_series).scale(ALPHA)
    composed = f_series.exact_divide(denom_at_f)
    target = ZSeries.z(order)
    for i in range(order + 1):
        if composed[i] != target[i]:
            return ReversionCheck(False, i, "inverse")
    denom = one + ZSeries.z(order).scale(X + Y) + ZSeries.z(order).shift(1).scale(ALPHA)
    q = ZSeries.z(order).exact_divide(denom)
    if order >= 1:
        qprime = q.z_derivative()
        low = order - 1
        denom_low = denom.truncate(low)
        lhs = qprime * denom_low * denom_low
        rhs = ZSeries.one(low) - ZSeries.z(low).shift(1).scale(ALPHA)
        for i in range(low + 1):
            if lhs[i] != rhs[i]:
                return ReversionCheck(False, i, "derivative")
    return ReversionCheck(True)
