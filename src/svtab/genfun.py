"""Closed generating functions for the constrained two-coloured Motzkin paths.

Everything here is expressed in the weight series M(z) of unrestricted
nonnegative paths, mirroring the displayed term-by-term shape of the
closed expressions so that each term can also be checked on its own.
x marks umber horizontals, y denim horizontals, alpha down-steps, and z
the length.

Write u = zM and g_w = z/(1 - wz) for w in {x, y}.  The powers of u come
in closed form by Lagrange inversion (series.zm_power), and every
numerator is a short signed sum of entries u^i g_w^j of one shared table
per w, times powers of alpha, so no term multiplies two series: each
numerator is built in one multiply-accumulate pass per coefficient.
M's equation M = 1 + (x+y) u + alpha u^2 turns every denominator into
lines: (w + alpha u)(1 + w u) = M line_w with the two-term
line_w = w + (alpha - xy) z, u / M = z, 1 - alpha u^2 = M S with
S = 1 - (x+y) z - 2 alpha z u, and u' = M / S.  So a term over
(w + alpha u)(1 + w u) or (1 + xu)(1 + yu) is one division by line_w or
by the three-term line_x line_y (SeriesBlocks.gap_over_m and
over_xu_yu), and one over L (1 - alpha u^2) is one division by line_w
of entries P_k g_y^j, P_k = u^k / (1 - alpha u^2), weighted (w, alpha)
for L = 1 + w u and (1, w) for L = w + alpha u (SeriesBlocks.over_ms).

frame_terms picks the term builder of a frame (f, t): straight for
f = 0, drop for t < f, rise for t >= f.  The entry points sum its terms:
gf_straight (paths from height 0 to height t), gf_skew (paths from
height f >= 1 to height t) and expected_downsteps_series, the mean
number of down-steps among all paths counted by gf_straight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional

from svtab.series import ALPHA, ONE, X, Y, ZERO, MultiPoly, ZSeries, zm_power


class Table(dict):
    """Entries k >= 0, each built once on first use as build(table, k)."""

    def __init__(self, build: Callable[["Table", int], object]):
        super().__init__()
        self._build = build

    def __missing__(self, k: int):
        if k < 0:
            raise ValueError("negative series power")
        entry = self[k] = self._build(self, k)
        return entry


class SeriesBlocks:
    """Shared sub-expressions for one (order, substitution) pair.

    The optional integer substitutions replace a variable everywhere,
    which keeps coefficients small in specialized pipelines.  The line
    quotients (gap_over_m's terms over a line, over_ms and over_xu_yu)
    need nonzero x and y: a zero leaves a line without its constant term,
    and exact_divide refuses it.  The term builders get the blocks from
    series_blocks, so repeated calls with one (order, substitution) share
    one object, tables included.
    """

    def __init__(self, order: int, x_val: Optional[int] = None,
                 y_val: Optional[int] = None, alpha_val: Optional[int] = None):
        self.order = order
        self.x_poly = X.substitute(x=x_val)
        self.y_poly = Y.substitute(y=y_val)
        self.alpha_poly = ALPHA.substitute(alpha=alpha_val)
        self.one = ZSeries.one(order)
        self.z = ZSeries.z(order)
        subs = (x_val, y_val, alpha_val)
        self.zm_pow = Table(lambda _, k: zm_power(k, order, *subs))
        # the tables hold no reference to self, so a dropped blocks object
        # is freed at once, not by the cycle collector
        zm_pow, one_minus_yz = self.zm_pow, self.one - self.z.scale(self.y_poly)
        self.table_x = _geom_rows(lambda _, i: zm_pow[i],
                                  self.one - self.z.scale(self.x_poly))
        self.table_y = _geom_rows(lambda _, i: zm_pow[i], one_minus_yz)
        self.table_ms = _geom_rows(partial(_over_ms, zm_pow, self.alpha_poly),
                                   one_minus_yz)
        self.geom_x_pow = self.table_x[0]
        self.geom_y_pow = self.table_y[0]
        # (w + alpha u)(1 + w u) = M line_w: the two-term lines
        self.slope_poly = self.alpha_poly - self.x_poly * self.y_poly
        slope = self.z.scale(self.slope_poly)
        self.line_x = ZSeries.constant(self.x_poly, order) + slope
        self.line_y = ZSeries.constant(self.y_poly, order) + slope

    def combine(self, *parts: tuple[MultiPoly, int, ZSeries]) -> ZSeries:
        """The sum of c z^j s over the parts (c, j, s).

        Each coefficient is one multiply-accumulate pass, with no partial
        series in between.
        """
        parts = [(c, j, s.coeffs) for c, j, s in parts if c]
        return ZSeries(self.order, [
            MultiPoly.sum_of_products((c, s[k - j]) for c, j, s in parts
                                      if k >= j)
            for k in range(self.order + 1)])

    def gap_over_m(self, table: Table, i: int, j: int,
                   c: MultiPoly) -> ZSeries:
        """c u^i (u^j - g^j) / M for i >= 1, which is c z u^(i-1) (u^j - g^j)."""
        return self.combine((c, 1, self.zm_pow[i - 1 + j]),
                            (-c, 1, table[i - 1][j]))

    def over_ms(self, weights: tuple[MultiPoly, MultiPoly], line: ZSeries,
                *pieces: tuple[MultiPoly, int, int]) -> ZSeries:
        """The sum of c u^k g_y^j / (L (1 - alpha u^2)) over (c, k, j), k >= 1.

        The weights (a, b) are (w, alpha) for L = 1 + w u and (1, w) for
        L = w + alpha u, and line is line_w.  By
        (w + alpha u)(1 + w u) = M line_w and u^k / M = z u^(k-1), each
        piece is c z (a P_(k-1) + b P_k) g_y^j / line_w with
        P_k = u^k / (1 - alpha u^2): one division by the line.
        """
        a, b = weights
        rows = self.table_ms
        parts = []
        for c, k, j in pieces:
            parts += [(c * a, 1, rows[k - 1][j]), (c * b, 1, rows[k][j])]
        return self.combine(*parts).exact_divide(line)

    @cached_property
    def lines_xy(self) -> ZSeries:
        """line_x line_y = xy + (x+y) s z + s^2 z^2 for s = alpha - xy."""
        x, y, s = self.x_poly, self.y_poly, self.slope_poly
        coeffs = [x * y, (x + y) * s, s * s] + [ZERO] * self.order
        return ZSeries(self.order, coeffs[:self.order + 1])

    def over_xu_yu(self, c: MultiPoly, k: int) -> ZSeries:
        """c u^k / ((1 + x u)(1 + y u)) for k >= 2.

        By M's equation (x + alpha u)(y + alpha u) = alpha M - s, so the
        term is c z^2 (alpha M - s) u^(k-2) / (line_x line_y)
        = c z (alpha u^(k-1) - s z u^(k-2)) / (line_x line_y).  One
        division by the product, not two by the lines in turn: for seven
        symbolic quotients at order 24 the two took 1.2x as long (10.4 ->
        12.2 ms, best of 20, on a 2-core Xeon VM).
        """
        zm_pow = self.zm_pow
        num = self.combine((c * self.alpha_poly, 1, zm_pow[k - 1]),
                           (-(c * self.slope_poly), 2, zm_pow[k - 2]))
        return num.exact_divide(self.lines_xy)


def _geom_rows(first: Callable[[Table, int], ZSeries],
               one_minus_wz: ZSeries) -> Table:
    """The products first(table, i) g^j for g = z/(1 - wz): table[i][j].

    Each step along a row multiplies by g as one shift and one division
    by the two-term series 1 - wz: O(order) coefficient steps instead of
    a series product.  A row holds its first entry, not the table.
    """
    def build_row(table: Table, i: int) -> Table:
        start = first(table, i)
        return Table(lambda row, j: start if j == 0 else
                     row[j - 1].shift(1).exact_divide(one_minus_wz))
    return Table(build_row)


def _over_ms(zm_pow: Table, alpha: MultiPoly, table: Table, k: int) -> ZSeries:
    """P_k = u^k / (1 - alpha u^2), the first entry of table_ms's row k.

    1 - alpha u^2 = M S with S = 1 - (x+y) z - 2 alpha z u, and
    differentiating u = z M in z gives u' = M / S, so
    P_k = z^2 u^(k-2) u' = z^2 (u^(k-1))' / (k-1) for k >= 2: its z^n
    coefficient is (n-1)/(k-1) times that of u^(k-1), an exact division.
    P_k = u^k + alpha P_(k+2) gives P_0 and P_1.
    """
    if k < 2:
        return zm_pow[k] + table[k + 2][0].scale(alpha)
    m, power = MultiPoly.const(k - 1), zm_pow[k - 1]
    return ZSeries(power.order, [ZERO] + [
        (c * n).divexact(m) for n, c in enumerate(power.coeffs[:-1])])


# One entry: callers ask for the same (order, substitution) many times in
# a row and seldom come back to an older one (traced, the perfbench
# workloads build 1 block for 16 term builds on verify_grid, 2 for 10 on
# series_symbolic and 1 for 16 on totals_specialised), while an order-24
# symbolic set holds about 2.8 MB once its tables serve the straight
# frames t <= 3 and the skew frames (1, 3), (2, 0) and (3, 1)
# (tracemalloc's traced total after those builds, less the total once
# this cache is cleared).  The key is the argument list as spelled, so
# series_blocks(6) and series_blocks(6, None, None, None) are two
# entries; _blocks always passes all four arguments positionally.
@lru_cache(maxsize=1)
def series_blocks(order: int, x_val: Optional[int] = None,
                  y_val: Optional[int] = None,
                  alpha_val: Optional[int] = None) -> SeriesBlocks:
    """The SeriesBlocks of the last (order, substitution) asked for."""
    return SeriesBlocks(order, x_val, y_val, alpha_val)


# A zero x or y would leave line_x, line_y or their product without a
# constant term, so the term builders keep it a variable in their blocks
# and _set_zeros puts it into their finished terms.
def _blocks(order: int, x_val: Optional[int], y_val: Optional[int],
            alpha_val: Optional[int]) -> SeriesBlocks:
    return series_blocks(order, x_val or None, y_val or None, alpha_val)


def _set_zeros(x_val: Optional[int], y_val: Optional[int],
               *terms: ZSeries) -> tuple[ZSeries, ...]:
    x, y = (0 if v == 0 else None for v in (x_val, y_val))
    if x is None and y is None:
        return terms
    return tuple(term.substitute(x=x, y=y) for term in terms)


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
    term2 = b.over_xu_yu(a, t + 2)
    term3 = b.gap_over_m(b.table_x, 1, t, a).exact_divide(b.line_y)
    return _set_zeros(x_val, y_val, term1, term2, term3)


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
    x, y, ty = b.x_poly, b.y_poly, b.table_y
    c, ct = a ** (f - t + 1), a ** (f + 1)   # ct = c alpha^t
    term1 = b.geom_y_pow[f - t].scale(a ** (f - t))
    term2 = b.gap_over_m(ty, t + 1, f, ct).exact_divide(b.line_x)
    term3 = b.over_ms((ONE, x), b.line_x, (c, f - t + 1, 0), (-c, 1, f - t),
                      (-ct, f + t + 1, 0), (ct, 2 * t + 1, f - t))
    term4 = b.over_ms((x, a), b.line_x, (c, 2, f - t), (-ct, t + 2, f))
    term5 = b.over_ms((ONE, x), b.line_x, (ct, t + 1, f),
                      (-ct, 2 * t + 1, f - t))
    term6 = b.over_xu_yu(ct, f + t + 2)
    term7 = b.over_ms((y, a), b.line_y, (c, f - t + 2, 0),
                      (-ct, f + t + 2, 0))
    return _set_zeros(x_val, y_val, term1, term2, term3, term4, term5, term6,
                      term7)


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
    ct = a ** (f + 1)
    term1 = b.geom_x_pow[t - f]
    term2 = b.over_ms((b.x_poly, a), b.line_x, (a, t - f + 2, 0),
                      (-ct, f + t + 2, 0))
    term3 = b.over_xu_yu(ct, f + t + 2)
    term4 = b.gap_over_m(b.table_x, 1, t - f, a).exact_divide(b.line_y)
    term5 = b.over_ms((b.y_poly, a), b.line_y, (a, t - f + 2, 0),
                      (-ct, f + t + 2, 0))
    return _set_zeros(x_val, y_val, term1, term2, term3, term4, term5)


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
    return series[n].coefficient(c, d, e)


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
