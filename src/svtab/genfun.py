"""Closed generating functions for the constrained two-coloured Motzkin paths.

Everything here is expressed in the weight series M(z) of unrestricted
nonnegative paths, mirroring the displayed term-by-term shape of the
closed expressions so that each term can also be checked on its own.
x marks umber horizontals, y denim horizontals, alpha down-steps, and z
the length.

Write u = zM and g_w = z/(1 - wz) for w in {x, y}.  Every numerator is a
short signed sum of entries u^i g_w^j of one shared table per w, times
powers of alpha, and every denominator a sum of powers of u, so the
only full series products are the powers of u.  Each term is then one
exact series division.  Straight term 3, skew-drop term 2 and skew-rise
term 4 divide by (w + alpha u)(1 + w u), which M's equation
M = 1 + (x+y) u + alpha u^2 turns into M (w + (alpha - xy) z): those
numerators are multiplied by 1/M = 1 - (x+y) z - alpha z u and divided
by the two-term line w + (alpha - xy) z.

frame_terms picks the term builder of a frame (f, t): straight for
f = 0, drop for t < f, rise for t >= f.  The entry points sum its terms:
gf_straight (paths from height 0 to height t), gf_skew (paths from
height f >= 1 to height t) and expected_downsteps_series, the mean
number of down-steps among all paths counted by gf_straight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from svtab.series import (ALPHA, ONE, X, Y, MultiPoly, ZSeries, solve_M,
                          substitution_cache)


class Chain:
    """A sequence grown on demand, each entry one step from the last.

    Every entry up to the largest asked for is built once.
    """

    __slots__ = ("_table", "_step")

    def __init__(self, start: list[ZSeries],
                 step: Callable[[ZSeries], ZSeries]):
        self._table = start
        self._step = step

    def __getitem__(self, k: int) -> ZSeries:
        if k < 0:
            raise ValueError("negative series power")
        table = self._table
        while len(table) <= k:
            table.append(self._step(table[-1]))
        return table[k]


class GeomTable:
    """The products u^i g^j for u = zM and g = z/(1 - wz), one w per table.

    table[i][j] is u^i g^j.  Row i starts at u^i, taken from the shared
    powers of u, and each step along it multiplies by g as one shift and
    one division by the two-term series 1 - wz: O(order) coefficient
    steps instead of a series product.
    """

    __slots__ = ("_zm_pow", "_step", "_rows")

    def __init__(self, zm_pow: Chain, one_minus_wz: ZSeries):
        self._zm_pow = zm_pow
        self._step = lambda s: s.shift(1).exact_divide(one_minus_wz)
        self._rows: dict[int, Chain] = {}

    def __getitem__(self, i: int) -> Chain:
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = Chain([self._zm_pow[i]], self._step)
        return row

    def gap(self, i: int, j: int) -> ZSeries:
        """u^i (u^j - g^j), the difference that several numerators share."""
        return self._zm_pow[i + j] - self[i][j]


class SeriesBlocks:
    """Shared sub-expressions for one (order, substitution) pair.

    The optional integer substitutions replace a variable everywhere,
    which keeps coefficients small in specialized pipelines.  The term
    builders get them from series_blocks, so repeated calls with one
    (order, substitution) share one object, tables included.
    """

    def __init__(self, order: int, x_val: Optional[int] = None,
                 y_val: Optional[int] = None, alpha_val: Optional[int] = None):
        self.order = order
        self.x_poly = X.substitute(x=x_val)
        self.y_poly = Y.substitute(y=y_val)
        self.alpha_poly = ALPHA.substitute(alpha=alpha_val)
        self.one = ZSeries.one(order)
        self.z = ZSeries.z(order)
        self.m = solve_M(order, x_val, y_val, alpha_val)
        zm = self.zm = self.m.shift(1)
        self.zm_pow = Chain([self.one, zm], lambda s: s * zm)
        self.table_x = GeomTable(self.zm_pow,
                                 self.one - self.z.scale(self.x_poly))
        self.table_y = GeomTable(self.zm_pow,
                                 self.one - self.z.scale(self.y_poly))
        self.geom_x_pow = self.table_x[0]
        self.geom_y_pow = self.table_y[0]
        self.geom_x = self.geom_x_pow[1]   # z/(1-xz)
        self.geom_y = self.geom_y_pow[1]   # z/(1-yz)
        self.az2m2 = self.zm_pow[2].scale(self.alpha_poly)
        self.one_minus_az2m2 = self.one - self.az2m2
        # (w + alpha u)(1 + w u) = M line_w: the two-term lines
        slope = self.z.scale(self.alpha_poly - self.x_poly * self.y_poly)
        self.line_x = ZSeries.constant(self.x_poly, order) + slope
        self.line_y = ZSeries.constant(self.y_poly, order) + slope

    def _zm_sum(self, *coeffs: MultiPoly) -> ZSeries:
        """coeffs[0] + coeffs[1] u + coeffs[2] u^2 + ... for u = zM."""
        total = ZSeries.constant(coeffs[0], self.order)
        for i, c in enumerate(coeffs[1:], 1):
            total = total + self.zm_pow[i].scale(c)
        return total

    def gap_over_m(self, table: GeomTable, i: int, j: int) -> ZSeries:
        """u^i (u^j - g^j) / M from table entries alone.

        1/M = 1 - (x+y) z - alpha z u, and the numerator times u is the
        same difference one row further down.
        """
        p, pu = table.gap(i, j), table.gap(i + 1, j)
        return p - (p.scale(self.x_poly + self.y_poly)
                    + pu.scale(self.alpha_poly)).shift(1)

    # The dense denominators the term builders divide by, each built on
    # first use.

    @cached_property
    def den_yzm_xzm(self) -> ZSeries:
        x, y = self.x_poly, self.y_poly
        return self._zm_sum(ONE, x + y, x * y)

    @cached_property
    def den_xazm_az2m2(self) -> ZSeries:
        x, a = self.x_poly, self.alpha_poly
        return self._zm_sum(x, a, -(x * a), -(a * a))

    @cached_property
    def den_xzm_az2m2(self) -> ZSeries:
        x, a = self.x_poly, self.alpha_poly
        return self._zm_sum(ONE, x, -a, -(x * a))

    @cached_property
    def den_yzm_az2m2(self) -> ZSeries:
        y, a = self.y_poly, self.alpha_poly
        return self._zm_sum(ONE, y, -a, -(y * a))


# One entry: callers ask for the same (order, substitution) many times in
# a row and seldom come back to an older one (verify --max-n 12 builds 12
# blocks for 189 requests, 7 of them distinct), while an order-24 symbolic
# set holds about 3.6 MB once its tables serve the straight frames t <= 3
# and three skew frames (tracemalloc).
@substitution_cache(maxsize=1)
def series_blocks(order: int, x_val: Optional[int] = None,
                  y_val: Optional[int] = None,
                  alpha_val: Optional[int] = None) -> SeriesBlocks:
    """The SeriesBlocks of the last (order, substitution) asked for."""
    return SeriesBlocks(order, x_val, y_val, alpha_val)


# At x = 0 or y = 0 some denominators have valuation 1, so an exact division
# leaves its top quotient coefficient unknown: the term builders read blocks
# one order further there and _cut their terms back to order.
def _blocks(order: int, *subs: Optional[int]) -> SeriesBlocks:
    return series_blocks(order + (0 in subs[:2]), *subs)


def _cut(order: int, *terms: ZSeries) -> tuple[ZSeries, ...]:
    if terms[0].order == order:
        return terms
    return tuple(term.truncate(order) for term in terms)


def straight_terms(t: int, order: int, x_val: Optional[int] = None,
                   y_val: Optional[int] = None,
                   alpha_val: Optional[int] = None) -> tuple[ZSeries, ...]:
    """The three terms of the height-0-to-t generating function."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if order < t:
        raise ValueError(f"order {order} is below the valuation t={t}")
    b = _blocks(order, x_val, y_val, alpha_val)
    a = b.alpha_poly
    term1 = b.geom_x_pow[t]
    term2 = b.zm_pow[t + 2].scale(a).exact_divide(b.den_yzm_xzm)
    term3 = b.gap_over_m(b.table_x, 1, t).scale(a).exact_divide(b.line_y)
    return _cut(order, term1, term2, term3)


def skew_drop_terms(f: int, t: int, order: int, x_val: Optional[int] = None,
                    y_val: Optional[int] = None,
                    alpha_val: Optional[int] = None) -> tuple[ZSeries, ...]:
    """The seven terms of the height-f-to-t generating function for t < f.

    Signs are folded in, so the generating function is the plain sum.
    """
    if not 0 <= t < f:
        raise ValueError("need 0 <= t < f")
    if order < f - t:
        raise ValueError(f"order {order} is below the valuation f-t={f - t}")
    b = _blocks(order, x_val, y_val, alpha_val)
    a = b.alpha_poly
    ty, zm_pow = b.table_y, b.zm_pow
    term1 = b.geom_y_pow[f - t].scale(a ** (f - t))
    term2 = b.gap_over_m(ty, t + 1, f).scale(a ** (f + 1)).exact_divide(
        b.line_x)
    term3 = (ty.gap(1, f - t) - ty.gap(2 * t + 1, f - t).scale(a ** t)
             ).scale(a ** (f - t + 1)).exact_divide(b.den_xazm_az2m2)
    term4 = (ty[2][f - t] - ty[t + 2][f].scale(a ** t)
             ).scale(a ** (f - t + 1)).exact_divide(b.den_xzm_az2m2)
    term5 = (ty[t + 1][f] - ty[2 * t + 1][f - t]).scale(
        a ** (f + 1)).exact_divide(b.den_xazm_az2m2)
    term6 = zm_pow[f + t + 2].scale(a ** (f + 1)).exact_divide(
        b.den_yzm_xzm)
    term7 = (zm_pow[f - t + 2] - zm_pow[f + t + 2].scale(a ** t)
             ).scale(a ** (f - t + 1)).exact_divide(b.den_yzm_az2m2)
    return _cut(order, term1, term2, term3, term4, term5, term6, term7)


def skew_rise_terms(f: int, t: int, order: int, x_val: Optional[int] = None,
                    y_val: Optional[int] = None,
                    alpha_val: Optional[int] = None) -> tuple[ZSeries, ...]:
    """The five terms of the height-f-to-t generating function for t >= f."""
    if not 1 <= f <= t:
        raise ValueError("need 1 <= f <= t")
    if order < t - f:
        raise ValueError(f"order {order} is below the valuation t-f={t - f}")
    b = _blocks(order, x_val, y_val, alpha_val)
    a = b.alpha_poly
    zm_pow = b.zm_pow
    term1 = b.geom_x_pow[t - f]
    term2 = (zm_pow[t - f + 2].scale(a)
             - zm_pow[f + t + 2].scale(a ** (f + 1))
             ).exact_divide(b.den_xzm_az2m2)
    term3 = zm_pow[f + t + 2].scale(a ** (f + 1)).exact_divide(
        b.den_yzm_xzm)
    term4 = b.gap_over_m(b.table_x, 1, t - f).scale(a).exact_divide(
        b.line_y)
    term5 = (zm_pow[t - f + 2] - zm_pow[t + f + 2].scale(a ** f)
             ).scale(a).exact_divide(b.den_yzm_az2m2)
    return _cut(order, term1, term2, term3, term4, term5)


def frame_terms(f: int, t: int, order: int, x_val: Optional[int] = None,
                y_val: Optional[int] = None,
                alpha_val: Optional[int] = None) -> tuple[ZSeries, ...]:
    """The displayed terms of the height-f-to-t generating function.

    f = 0 gives the straight terms, t < f the skew-drop terms and t >= f
    the skew-rise terms.
    """
    if f == 0:
        return straight_terms(t, order, x_val, y_val, alpha_val)
    if t < f:
        return skew_drop_terms(f, t, order, x_val, y_val, alpha_val)
    return skew_rise_terms(f, t, order, x_val, y_val, alpha_val)


def _sum(terms: tuple[ZSeries, ...]) -> ZSeries:
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def gf_straight(t: int, order: int, x_val: Optional[int] = None,
                y_val: Optional[int] = None,
                alpha_val: Optional[int] = None) -> ZSeries:
    """Weight generating function of admissible paths from height 0 to t."""
    return _sum(frame_terms(0, t, order, x_val, y_val, alpha_val))


def gf_skew(f: int, t: int, order: int, x_val: Optional[int] = None,
            y_val: Optional[int] = None,
            alpha_val: Optional[int] = None) -> ZSeries:
    """Weight generating function of admissible paths from height f >= 1 to t."""
    if f < 1:
        raise ValueError("f must be at least 1; use gf_straight for f = 0")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _sum(frame_terms(f, t, order, x_val, y_val, alpha_val))


def refined_coefficient(series: ZSeries, n: int, c: int, d: int, e: int) -> int:
    """Coefficient of x^c y^d alpha^e in [z^n] of a symbolic series."""
    if n < 0 or n > series.order:
        raise ValueError(
            f"z-exponent {n} outside the computed range 0..{series.order}")
    coeff = series[n].terms.get((c, d, e), 0)
    return coeff


def expected_downsteps_series(t: int, order: int) -> tuple[Optional[Fraction], ...]:
    """Mean down-step count per path length, for paths from height 0 to t.

    Entry n is the ratio (sum of down-step counts over all admissible
    length-n paths ending at height t) / (number of such paths), computed
    by differentiating the x = y = 1 series in alpha and setting alpha to
    1 afterwards.  Lengths with no paths at all get None.
    """
    series = _sum(frame_terms(0, t, order, x_val=1, y_val=1))
    weighted = series.alpha_derivative().substitute(alpha=1)
    counts = series.substitute(alpha=1)
    out: list[Optional[Fraction]] = []
    for n in range(order + 1):
        total = counts[n].constant_value()
        num = weighted[n].constant_value()
        if total is None or num is None:
            raise ArithmeticError("specialized series is not constant")
        if total == 0:
            out.append(None)
        else:
            out.append(Fraction(num, total))
    return tuple(out)
