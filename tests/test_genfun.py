"""Tests for the assembled generating functions against the path oracle."""

import gc
import hashlib
import itertools
import weakref
from fractions import Fraction

import pytest

from svtab.genfun import (
    SeriesBlocks,
    expected_downsteps_series,
    frame_terms,
    gf_skew,
    gf_straight,
    refined_coefficient,
    series_blocks,
    skew_drop_terms,
    skew_rise_terms,
    straight_terms,
)
from svtab.paths import count_paths, weight_counts
from svtab.series import ALPHA, ONE, X, Y, ZSeries, solve_M


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


def test_specialized_build_agrees_with_symbolic():
    # Every frame f, t <= 3 at every order up to 9, under every
    # substitution of x, y and alpha in {unset, 0, 1, -1}: each
    # displayed term, whose sum gf_straight and gf_skew return, equals the
    # substituted symbolic one.  The harness reads only the symbolic
    # series, so this keeps the specialized pipeline checked against it.
    # At x = 0 or y = 0 some divisors have valuation 1 or 2, and the top
    # coefficient must still be right; where alpha = 0 as well some vanish,
    # and every term over one of them is 0.
    frames = [(f, t, order) for order in range(10) for f in range(4)
              for t in range(4) if abs(t - f) <= order]
    symbolic = {frame: frame_terms(*frame) for frame in frames}
    for subs in itertools.product((None, 0, 1, -1), repeat=3):
        for frame in frames:
            got = frame_terms(*frame, *subs)
            want = tuple(term.substitute(*subs) for term in symbolic[frame])
            assert got == want, (frame, subs)


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


def _power(series, k):
    # k-fold repeated product, the reference for the power tables
    out = ZSeries.one(series.order)
    for _ in range(k):
        out = out * series
    return out


def test_blocks_internal_consistency():
    b = SeriesBlocks(6)
    assert (b.geom_x * (b.one - b.z.scale(X))) == b.z
    assert b.zm == solve_M(6).shift(1)


def test_blocks_power_tables_match_pow():
    # zm_pow reads the closed form of the powers of zM, geom_*_pow steps
    # by divisions by 1 - wz; both against repeated series products
    for subs in ((None, None, None), (1, 1, 1), (0, None, None),
                 (2, -1, 1)):
        for order in (12, 24, 36):
            b = SeriesBlocks(order, *subs)
            zm = solve_M(order, *subs).shift(1)
            assert b.zm == zm, (subs, order)
            power = ZSeries.one(order)
            for k in range(10):
                assert b.zm_pow[k] == power, (subs, order, k)
                power = power * zm
    b = SeriesBlocks(6)
    for k in (5, 0, 2, 7):
        assert b.geom_x_pow[k] == _power(b.geom_x, k)
        assert b.geom_y_pow[k] == _power(b.geom_y, k)
    with pytest.raises(ValueError, match="negative series power"):
        b.zm_pow[-1]


def test_series_blocks_are_shared():
    b = series_blocks(6, 1, None, 2)
    assert series_blocks(6, 1, None, 2) is b
    assert series_blocks(6, x_val=1, alpha_val=2) is b
    assert series_blocks(6) is series_blocks(6, None, None, None)
    assert series_blocks(6) is not b


def test_dropped_blocks_are_freed_without_the_cycle_collector():
    # no table refers back to its blocks object or to a table holding it,
    # so reference counting alone frees them all
    b = SeriesBlocks(8)
    b.table_ms[1][2], b.table_y[2][1], b.table_x[1][1], b.lines_xy
    refs = [weakref.ref(obj) for obj in (b, b.zm_pow, b.table_x, b.table_y,
                                         b.table_ms, b.table_ms[1])]
    gc.disable()
    try:
        del b
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# sha256 of ZSeries.dump() above the verify grid's order 12: symbolic
# gf_straight(t, 24) and gf_skew(f, t, 18), and both at x = y = alpha = 1
# to order 48, taken from the term-by-term series products; and symbolic
# gf_straight(0, 40) and gf_skew(1, 3, 30), taken while the term builders
# still divided by the dense (1 + x zM)(1 + y zM) and
# (1 + w zM)(1 - alpha (zM)^2); and symbolic gf_straight(0, 60) and
# gf_skew(1, 3, 36), taken at commit 2a29348, while the powers of zM were
# still series products and M was solved by its convolution recurrence;
# and symbolic gf_skew(3, 1, 30) and gf_skew(2, 0, 30), taken at commit
# 3095dc1, while skew-drop terms 3, 4 and 5 still divided by dense sums of
# powers of zM
DUMP_SHA256 = {
    ("straight", 0, 0, 60, None): "b23d8d49fe52b9f7eb3c0fdef384e3041fb87ec56c11aaeb662f19b80a19b17a",
    ("skew", 1, 3, 36, None): "09a8aa3737c972a94c506b0ee3964d6c8fe2d7b57fce2bf19fa33ac8a543c59c",
    ("straight", 0, 0, 40, None): "cbf2ca581f4f378e7b227eb3d71c1f91d40dfba4bea54e01ef7edbfe9e9d9a13",
    ("skew", 1, 3, 30, None): "c0cd5641e17acede1c325ab7a48cea32cc7d1ccc50fec4027cdf3ddce5bc6572",
    ("skew", 3, 1, 30, None): "6b544b86e47058f306b6cac72f627ae5a532e00b126139177a70c786993b5b21",
    ("skew", 2, 0, 30, None): "5ca3116c10c1c6c67bdef46ad8a23648dce91643a653357e49315d5d4524ed36",
    ("straight", 0, 0, 24, None): "f00d265342113afaa810679430ba990861ab32358395c0ef5523422540cae424",
    ("straight", 0, 1, 24, None): "eda8a2bd0aeccdfe5ff8be261aaf01ceb89010498ece488a20d4a18f63b2b2e3",
    ("straight", 0, 2, 24, None): "ac57ba11c35b05f7b16cd74e42999f6ecc2a5a718ca72cba18f6702482e29813",
    ("straight", 0, 3, 24, None): "d4b06647157a0d62387aff3374510a4ad0d60f083ce0184c7af49020f06455a1",
    ("skew", 1, 0, 18, None): "040aab242331c8b5bbfb7409e200a13cdf41c789642313a3eee8fb29e1d4cc2d",
    ("skew", 1, 1, 18, None): "e90e6fe71bec4acbf387e9ca22141c85a923199071a903abb771450bb41a701f",
    ("skew", 1, 2, 18, None): "d0fbc92a5036e46583ac3f764397ec96d30ed7d7fb8cf2fce5e70df70691644e",
    ("skew", 1, 3, 18, None): "95d11c5fbd49b47698e21570de97aaf6189d79bb148460c96d827096d8dbed4c",
    ("skew", 2, 0, 18, None): "7916816050f2827afb89796b64823e3ccd93704099515949da6a4b8af3943aed",
    ("skew", 2, 1, 18, None): "80bd6f13ee5ced4f131b60c9783d80623dc7464784cd2003108df7c880dd8bea",
    ("skew", 2, 2, 18, None): "57fc70d61770c0658594c599ef946d0add89ab66820d10f7362be8c0baac43a0",
    ("skew", 2, 3, 18, None): "60d12904183a0e4fff0a5f422dcc678ee30b7f49c4f5c9383a61a1530e99ab77",
    ("skew", 3, 0, 18, None): "1bd8ae33fa8484b110ba389391b4f637c292d3e35e042ff2e67138b138e28e4c",
    ("skew", 3, 1, 18, None): "f19b2a711efa35379d5b2984242ca05c0d9760f90c0b2c5ffa4f4c8c7901ac17",
    ("skew", 3, 2, 18, None): "0cbe7a220f0a8e6c26a9150ba273146cdc85fbe30f11c993a2e7dab59b07bb0d",
    ("skew", 3, 3, 18, None): "ee7b88f750961dd031b08443b3f1978482b96de57eadfbfc945e7c96922eb5c3",
    ("straight", 0, 0, 48, 1): "3d6e780136f0440f7d7f093d58fb0d250d01ab157c92dbffddc7473a8b626087",
    ("straight", 0, 1, 48, 1): "1bdae90246ab90e6668a011324febe83f2d238e2d113bf662809b89d967381f2",
    ("straight", 0, 2, 48, 1): "cacf433cabcb54f2c4174b232c5f587bd72a6c59d513d64520308c140d5d4dfc",
    ("straight", 0, 3, 48, 1): "9cc4d76b2aed2eb5562db67e2bae61f754a8839e287954fc46d2379dd1ce7a95",
    ("skew", 1, 0, 48, 1): "1bdae90246ab90e6668a011324febe83f2d238e2d113bf662809b89d967381f2",
    ("skew", 1, 1, 48, 1): "c9c337b2558f3e905875b65320cee2c030cf10df4e7e886c42056f292432914f",
    ("skew", 1, 2, 48, 1): "eaa9192e5934abb6cb9ee8519caa1a22cad169243ddcd8a0c1e1e18ed79caf53",
    ("skew", 1, 3, 48, 1): "abc7b6617ba634a155c5767a4e00911845a114d6bcb42b646d3dac85b3c90ff3",
    ("skew", 2, 0, 48, 1): "cacf433cabcb54f2c4174b232c5f587bd72a6c59d513d64520308c140d5d4dfc",
    ("skew", 2, 1, 48, 1): "eaa9192e5934abb6cb9ee8519caa1a22cad169243ddcd8a0c1e1e18ed79caf53",
    ("skew", 2, 2, 48, 1): "a7b5df1bf997d48131da944610371c04610048de486cb58934c4da9e48fab88c",
    ("skew", 2, 3, 48, 1): "d0eb4ef5a9a39165a85f470dfc6028f22cf06171d4a5da5a200620d415962971",
    ("skew", 3, 0, 48, 1): "9cc4d76b2aed2eb5562db67e2bae61f754a8839e287954fc46d2379dd1ce7a95",
    ("skew", 3, 1, 48, 1): "abc7b6617ba634a155c5767a4e00911845a114d6bcb42b646d3dac85b3c90ff3",
    ("skew", 3, 2, 48, 1): "d0eb4ef5a9a39165a85f470dfc6028f22cf06171d4a5da5a200620d415962971",
    ("skew", 3, 3, 48, 1): "be9a69b5b31e5e94506b13de71fbc8e64985cf3591de29de01ced0fa07441b76",
}


def test_series_dumps_above_order_12_are_pinned():
    got = {}
    for key in DUMP_SHA256:
        family, f, t, order, value = key
        subs = () if value is None else (value, value, value)
        series = (gf_straight(t, order, *subs) if family == "straight"
                  else gf_skew(f, t, order, *subs))
        got[key] = hashlib.sha256(series.dump().encode()).hexdigest()
    assert got == DUMP_SHA256


# ---------------------------------------------------------------------------
# the term builders against their displayed product-and-division form
#
# A reference built the long way: every numerator and denominator is the
# product of the factors the closed expressions display, and each term is
# one exact division by that product.  Powers are kept per instance, since
# the displayed factors repeat from term to term and frame to frame.

class _Reference:
    def __init__(self, order, subs):
        x, y, a = (X.substitute(x=subs[0]), Y.substitute(y=subs[1]),
                   ALPHA.substitute(alpha=subs[2]))
        self.a = a
        self.one = one = ZSeries.one(order)
        z = ZSeries.z(order)
        zm = solve_M(order, *subs).shift(1)
        inv_one_minus_yz = (one - z.scale(y)).unit_inverse()
        self.bases = {
            "zm": zm,
            "gx": (one - z.scale(x)).unit_inverse().shift(1),
            "gy": inv_one_minus_yz.shift(1),
            "ratio_y": zm.shift(1).scale(a) * inv_one_minus_yz,
        }
        one_plus_xzm, one_plus_yzm = one + zm.scale(x), one + zm.scale(y)
        x_plus_azm = ZSeries.constant(x, order) + zm.scale(a)
        y_plus_azm = ZSeries.constant(y, order) + zm.scale(a)
        self.az2m2 = (zm * zm).scale(a)
        one_minus_az2m2 = one - self.az2m2
        self.den_yzm_xzm = one_plus_yzm * one_plus_xzm
        self.den_xazm_az2m2 = x_plus_azm * one_minus_az2m2
        self.den_xzm_az2m2 = one_plus_xzm * one_minus_az2m2
        self.den_yazm_yzm = y_plus_azm * one_plus_yzm
        self.den_yzm_az2m2 = one_plus_yzm * one_minus_az2m2
        self.den_xzm_xazm = one_plus_xzm * x_plus_azm
        self.powers = {}

    def p(self, base, k):
        if (base, k) not in self.powers:
            self.powers[base, k] = _power(self.bases[base], k)
        return self.powers[base, k]

    def terms(self, f, t):
        if f == 0:
            return self.straight(t)
        if t < f:
            return self.drop(f, t)
        return self.rise(f, t)

    def straight(self, t):
        a, p = self.a, self.p
        return (p("gx", t),
                _divide(p("zm", t + 2).scale(a), self.den_yzm_xzm),
                _divide(p("zm", 1).scale(a) * (p("zm", t) - p("gx", t)),
                        self.den_yazm_yzm))

    def drop(self, f, t):
        a, p, one = self.a, self.p, self.one
        one_minus_az2m2_t = one - p("zm", 2 * t).scale(a ** t)
        term1 = p("gy", f - t).scale(a ** (f - t))
        term2 = _divide((p("zm", t + 1) * (p("zm", f) - p("gy", f))).scale(
            a ** (f + 1)), self.den_xzm_xazm)
        term3 = _divide(p("zm", 1).scale(a ** (f - t + 1))
                        * (p("zm", f - t) - p("gy", f - t))
                        * one_minus_az2m2_t, self.den_xazm_az2m2)
        term4 = _divide(term1 * (one - p("ratio_y", t)) * self.az2m2,
                        self.den_xzm_az2m2)
        term5 = -_divide(p("gy", f - t).scale(a ** (f + 1))
                         * (p("zm", t) - p("gy", t))
                         * p("zm", t + 1), self.den_xazm_az2m2)
        term6 = _divide(p("zm", f + t + 2).scale(a ** (f + 1)),
                        self.den_yzm_xzm)
        term7 = _divide(one_minus_az2m2_t
                        * p("zm", f - t + 2).scale(a ** (f - t + 1)),
                        self.den_yzm_az2m2)
        return term1, term2, term3, term4, term5, term6, term7

    def rise(self, f, t):
        a, p, one = self.a, self.p, self.one
        return (p("gx", t - f),
                _divide(p("zm", t - f + 2).scale(a)
                        - p("zm", f + t + 2).scale(a ** (f + 1)),
                        self.den_xzm_az2m2),
                _divide(p("zm", f + t + 2).scale(a ** (f + 1)),
                        self.den_yzm_xzm),
                _divide(p("zm", 1).scale(a) * (p("zm", t - f) - p("gx", t - f)),
                        self.den_yazm_yzm),
                _divide(p("zm", t - f + 2).scale(a)
                        * (one - p("zm", 2 * f).scale(a ** f)),
                        self.den_yzm_az2m2))


def _divide(num, den):
    # A displayed denominator vanishes only where alpha = 0 and x or y is 0,
    # and every numerator over one carries a factor alpha: the term is 0.
    if den.is_zero() and num.is_zero():
        return num
    return num.exact_divide(den)


def _term_outcome(build, *args):
    try:
        return "value", build(*args)
    except ArithmeticError as exc:
        return "raises", type(exc), str(exc)


# symbolic, each variable at 0 and at -1 on its own, the zeros that make a
# denominator vanish (x = alpha = 0, y = alpha = 0), and mixed values
_TERM_SUBS = [
    (None, None, None),
    (0, None, None), (None, 0, None), (None, None, 0),
    (-1, None, None), (None, -1, None), (None, None, -1),
    (0, None, 0), (None, 0, 0), (0, 0, 0),
    (-1, -1, -1), (1, 1, 1), (-1, 0, 2),
]


def _cut_terms(ref, order, f, t):
    return tuple(term.truncate(order) for term in ref.terms(f, t))


def test_terms_match_the_displayed_products():
    # At x = 0 or y = 0 some denominators have valuation 1, so the builders
    # and the reference divide one order further and cut back to order.
    for subs in _TERM_SUBS:
        for order in range(12):
            ref = _Reference(order + (0 in subs[:2]), subs)
            for f in range(4):
                for t in range(5):
                    if abs(t - f) > order:
                        continue
                    assert _term_outcome(frame_terms, f, t, order, *subs) == \
                        _term_outcome(_cut_terms, ref, order, f, t), \
                        (f, t, order, subs)


def test_m_equation_identities():
    # (w + alpha zM)(1 + w zM) = M (w + (alpha - xy) z) for w in {x, y},
    # M (1 - (x+y) z - alpha z zM) = 1, S u' = M for u = zM and
    # S = 1 - (x+y) z - 2 alpha z u, and the quotients the term builders
    # take by lines times the denominators they stand for, also where
    # alpha or w is 0
    for subs in [(None, None, None), (None, None, 0), (0, None, None),
                 (None, 0, None), (0, None, 0), (None, 0, 0), (0, 0, 0),
                 (-1, 2, None), (1, 1, 1)]:
        b = SeriesBlocks(9, *subs)
        x, y, a = b.x_poly, b.y_poly, b.alpha_poly
        one, z, zm, m = b.one, b.z, b.zm, solve_M(9, *subs)
        for w, line in ((x, b.line_x), (y, b.line_y)):
            w_series = ZSeries.constant(w, 9)
            assert line == w_series + z.scale(a - x * y), subs
            assert (w_series + zm.scale(a)) * (one + zm.scale(w)) == \
                m * line, subs
        assert m * (one - z.scale(x + y) - zm.shift(1).scale(a)) == one, subs
        s = one - z.scale(x + y) - zm.shift(1).scale(2 * a)
        assert s.truncate(8) * zm.z_derivative() == m.truncate(8), subs
        for table in (b.table_x, b.table_y):
            for i, j in ((1, 0), (1, 3), (3, 2)):
                assert b.gap_over_m(table, i, j, ONE) * m == \
                    b.zm_pow[i + j] - table[i][j], subs
        one_minus_au2 = one - b.zm_pow[2].scale(a)
        for j in range(6):
            assert b.table_ms[j][0] * one_minus_au2 == b.zm_pow[j], (subs, j)
        # a divisor of valuation v leaves the top v quotient coefficients
        # unknown; each numerator carries alpha, as in the term builders
        known = 9 - subs[:2].count(0)
        for c, k in ((a, 2), (a ** 3 * x, 5)):
            got = b.over_xu_yu(c, k) * (one + zm.scale(x)) * (one + zm.scale(y))
            assert got.truncate(known) == \
                b.zm_pow[k].scale(c).truncate(known), (subs, c, k)
        # over L (1 - alpha u^2) with L = 1 + w u, weights (w, alpha), and
        # with L = x + alpha u, weights (1, x), on the numerators of
        # skew-drop terms 3 and 5 at (f, t) = (2, 1), which L divides;
        # k = 1 reads P_0
        c, ct = a ** 2, a ** 3
        cases = [((w, a), line, one + zm.scale(w),
                  ((a, 1, 0), (-a ** 2, 4, 2), (a * y, 5, 1)))
                 for w, line in ((x, b.line_x), (y, b.line_y))]
        x_plus_au = ZSeries.constant(x, 9) + zm.scale(a)
        cases += [((ONE, x), b.line_x, x_plus_au, pieces) for pieces in (
            ((c, 2, 0), (-c, 1, 1), (-ct, 4, 0), (ct, 3, 1)),
            ((ct, 2, 2), (-ct, 3, 1)))]
        for weights, line, den, pieces in cases:
            got = b.over_ms(weights, line, *pieces) * den * one_minus_au2
            want = b.combine(*((c, 0, b.table_y[k][j]) for c, k, j in pieces))
            assert got.truncate(known) == want.truncate(known), \
                (subs, weights, pieces)


def test_every_term_divides_only_by_short_series(monkeypatch):
    # Every term of every frame divides by a line, line_x line_y or
    # 1 - wz: no divisor has more than three nonzero coefficients.
    sizes = []
    divide = ZSeries.exact_divide

    def recording(num, den):
        sizes.append(sum(1 for c in den.coeffs if c))
        return divide(num, den)
    monkeypatch.setattr(ZSeries, "exact_divide", recording)
    for subs in ((None, None, None), (0, None, None), (1, 1, None)):
        for f, t in ((0, 0), (0, 3), (1, 0), (1, 1), (1, 3), (2, 3), (3, 1)):
            sizes.clear()
            frame_terms(f, t, 10, *subs)
            assert sizes and max(sizes) <= 3, (f, t, subs)


def test_table_entries_are_the_products():
    b = SeriesBlocks(7, None, 2, None)
    for table, geom in ((b.table_x, b.geom_x), (b.table_y, b.geom_y)):
        for i, j in ((0, 0), (0, 3), (2, 0), (1, 2), (3, 4)):
            assert table[i][j] == _power(b.zm, i) * _power(geom, j)
    assert b.table_x[0] is b.geom_x_pow and b.table_y[0] is b.geom_y_pow
