"""Closed generating functions for the constrained two-coloured Motzkin paths.

Everything here is expressed in the weight series M(z) of unrestricted
nonnegative paths and assembled with exact series division, mirroring the
displayed term-by-term shape of the closed expressions so that each term
can also be checked on its own.  x marks umber horizontals, y denim
horizontals, alpha down-steps, and z the length.

The three entry points are gf_straight (paths from height 0 to height t),
gf_skew (paths from height f >= 1 to height t, split by whether the path
ends below or at-or-above its start) and expected_downsteps_series, the
mean number of down-steps among all paths counted by gf_straight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from svtab.series import (ALPHA, X, Y, ZSeries, solve_M,
                          substitution_cache)


class Powers:
    """The powers of one series; powers[k] is base**k.

    The table grows on demand, each new entry one product from the last,
    so every power up to the largest asked for is built once.
    """

    __slots__ = ("_table",)

    def __init__(self, base: ZSeries):
        self._table = [ZSeries.one(base.order), base]

    def __getitem__(self, k: int) -> ZSeries:
        if k < 0:
            raise ValueError("negative series power")
        table = self._table
        while len(table) <= k:
            table.append(table[-1] * table[1])
        return table[k]


class SeriesBlocks:
    """Shared sub-expressions for one (order, substitution) pair.

    The optional integer substitutions replace a variable everywhere,
    which keeps coefficients small in specialized pipelines.  The term
    builders get them from series_blocks, so repeated calls with one
    (order, substitution) share one object, power tables included.
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
        self.zm = self.m.shift(1)
        self.inv_one_minus_xz = (self.one - self.z.scale(self.x_poly)).unit_inverse()
        self.inv_one_minus_yz = (self.one - self.z.scale(self.y_poly)).unit_inverse()
        self.geom_x = self.inv_one_minus_xz.shift(1)   # z/(1-xz)
        self.geom_y = self.inv_one_minus_yz.shift(1)   # z/(1-yz)
        self.one_plus_xzm = self.one + self.zm.scale(self.x_poly)
        self.one_plus_yzm = self.one + self.zm.scale(self.y_poly)
        self.x_plus_azm = (ZSeries.constant(self.x_poly, order)
                           + self.zm.scale(self.alpha_poly))
        self.y_plus_azm = (ZSeries.constant(self.y_poly, order)
                           + self.zm.scale(self.alpha_poly))
        self.zm_pow = Powers(self.zm)
        self.geom_x_pow = Powers(self.geom_x)
        self.geom_y_pow = Powers(self.geom_y)
        self.az2m2 = self.zm_pow[2].scale(self.alpha_poly)
        self.one_minus_az2m2 = self.one - self.az2m2

    # The denominators the term builders divide by, each built on first use.

    @cached_property
    def den_yzm_xzm(self) -> ZSeries:
        return self.one_plus_yzm * self.one_plus_xzm

    @cached_property
    def den_xazm_az2m2(self) -> ZSeries:
        return self.x_plus_azm * self.one_minus_az2m2

    @cached_property
    def den_xzm_az2m2(self) -> ZSeries:
        return self.one_plus_xzm * self.one_minus_az2m2

    @cached_property
    def den_yazm_yzm(self) -> ZSeries:
        return self.y_plus_azm * self.one_plus_yzm

    @cached_property
    def den_yzm_az2m2(self) -> ZSeries:
        return self.one_plus_yzm * self.one_minus_az2m2

    @cached_property
    def den_xzm_xazm(self) -> ZSeries:
        return self.one_plus_xzm * self.x_plus_azm


# One entry: callers ask for the same (order, substitution) many times in
# a row and seldom come back to an older one (verify --max-n 12 builds 12
# blocks for 189 requests, 7 of them distinct), while an order-24 symbolic
# set with its power tables holds about 1 MB.
@substitution_cache(maxsize=1)
def series_blocks(order: int, x_val: Optional[int] = None,
                  y_val: Optional[int] = None,
                  alpha_val: Optional[int] = None) -> SeriesBlocks:
    """The SeriesBlocks of the last (order, substitution) asked for."""
    return SeriesBlocks(order, x_val, y_val, alpha_val)


def straight_terms(t: int, order: int, x_val: Optional[int] = None,
                   y_val: Optional[int] = None,
                   alpha_val: Optional[int] = None) -> tuple[ZSeries, ...]:
    """The three terms of the height-0-to-t generating function."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if order < t:
        raise ValueError(f"order {order} is below the valuation t={t}")
    b = series_blocks(order, x_val, y_val, alpha_val)
    a = b.alpha_poly
    term1 = b.geom_x_pow[t]
    term2 = b.zm_pow[t + 2].scale(a).exact_divide(b.den_yzm_xzm)
    term3 = (b.zm.scale(a) * (b.zm_pow[t] - b.geom_x_pow[t])).exact_divide(
        b.den_yazm_yzm)
    return term1, term2, term3


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
    b = series_blocks(order, x_val, y_val, alpha_val)
    a = b.alpha_poly
    one_minus_az2m2_t = b.one - b.zm_pow[2 * t].scale(a ** t)
    term1 = b.geom_y_pow[f - t].scale(a ** (f - t))
    term2 = (b.zm_pow[t + 1] * (b.zm_pow[f] - b.geom_y_pow[f])).scale(
        a ** (f + 1)).exact_divide(b.den_xzm_xazm)
    term3 = (b.zm.scale(a ** (f - t + 1))
             * (b.zm_pow[f - t] - b.geom_y_pow[f - t])
             * one_minus_az2m2_t).exact_divide(b.den_xazm_az2m2)
    ratio_y = b.zm.shift(1).scale(a) * b.inv_one_minus_yz  # alpha z^2 M/(1-yz)
    term4 = (term1 * (b.one - ratio_y ** t) * b.az2m2).exact_divide(
        b.den_xzm_az2m2)
    term5 = -(b.geom_y_pow[f - t].scale(a ** (f + 1))
              * (b.zm_pow[t] - b.geom_y_pow[t])
              * b.zm_pow[t + 1]).exact_divide(b.den_xazm_az2m2)
    term6 = b.zm_pow[f + t + 2].scale(a ** (f + 1)).exact_divide(
        b.den_yzm_xzm)
    term7 = (one_minus_az2m2_t
             * b.zm_pow[f - t + 2].scale(a ** (f - t + 1))
             ).exact_divide(b.den_yzm_az2m2)
    return term1, term2, term3, term4, term5, term6, term7


def skew_rise_terms(f: int, t: int, order: int, x_val: Optional[int] = None,
                    y_val: Optional[int] = None,
                    alpha_val: Optional[int] = None) -> tuple[ZSeries, ...]:
    """The five terms of the height-f-to-t generating function for t >= f."""
    if not 1 <= f <= t:
        raise ValueError("need 1 <= f <= t")
    if order < t - f:
        raise ValueError(f"order {order} is below the valuation t-f={t - f}")
    b = series_blocks(order, x_val, y_val, alpha_val)
    a = b.alpha_poly
    term1 = b.geom_x_pow[t - f]
    term2 = (b.zm_pow[t - f + 2].scale(a)
             - b.zm_pow[f + t + 2].scale(a ** (f + 1))
             ).exact_divide(b.den_xzm_az2m2)
    term3 = b.zm_pow[f + t + 2].scale(a ** (f + 1)).exact_divide(
        b.den_yzm_xzm)
    term4 = (b.zm.scale(a)
             * (b.zm_pow[t - f] - b.geom_x_pow[t - f])
             ).exact_divide(b.den_yazm_yzm)
    term5 = (b.zm_pow[t - f + 2].scale(a)
             * (b.one - b.zm_pow[2 * f].scale(a ** f))
             ).exact_divide(b.den_yzm_az2m2)
    return term1, term2, term3, term4, term5


def _sum(terms: tuple[ZSeries, ...]) -> ZSeries:
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def gf_straight(t: int, order: int, x_val: Optional[int] = None,
                y_val: Optional[int] = None,
                alpha_val: Optional[int] = None) -> ZSeries:
    """Weight generating function of admissible paths from height 0 to t."""
    return _sum(straight_terms(t, order, x_val, y_val, alpha_val))


def gf_skew(f: int, t: int, order: int, x_val: Optional[int] = None,
            y_val: Optional[int] = None,
            alpha_val: Optional[int] = None) -> ZSeries:
    """Weight generating function of admissible paths from height f >= 1 to t."""
    if f < 1:
        raise ValueError("f must be at least 1; use gf_straight for f = 0")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t < f:
        return _sum(skew_drop_terms(f, t, order, x_val, y_val, alpha_val))
    return _sum(skew_rise_terms(f, t, order, x_val, y_val, alpha_val))


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
    series = _sum(straight_terms(t, order, x_val=1, y_val=1))
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
