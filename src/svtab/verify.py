"""Cross-verification harness.

Every counting statement in this package can be computed at least two
independent ways: brute-force tableau enumeration, brute-force path
enumeration, coefficient extraction from the truncated generating
functions, and the closed forms in ``formulas``.  The harness runs all
layers that apply on a finite grid and records one ``CheckReport`` per
parameter tuple.  Each theorem family is one stream of reports, made one
at a time; ``run_all`` hands each on as it is made, and
``check_theorem`` is the list of one family's stream.

A disagreement is data, not a crash.  The measured disagreement domains
of the shipped closed forms are listed in ``documented_edge``; a
``disagree`` report inside one of those domains is expected, anything
outside them means a regression and fails ``run_all``.

The identity registry (check_lemma, ids 12..36) compares each displayed
building-block identity of the derivation: a truncated-series evaluation
of the left side against an independent evaluation of the stated right
side, symbolically in x, y, alpha where the identity is symbolic.  Each
identity is a data row: a sub-grid of frames, the index of its left side
among the terms of ``genfun.frame_terms``, the reading of that term
(symbolic, at x = y = alpha = 1, or d/dalpha at x = y = 1, each read off
the cached symbolic terms that the theorem checks sum) and the right side.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Union

from svtab import bijection, formulas, paths
from svtab.formulas import Convention, Count
from svtab.genfun import frame_terms
from svtab.series import NonExactDivision, ZSeries

AGREE = "agree"
DISAGREE = "disagree"
EXCLUDED = "formula-domain-excluded"
BUILDER_ERROR = "builder-error"

# Grid caps.  Oracle layers are exponential, series layers polynomial;
# each cap is the largest scale the layer sustains in seconds.
TABLEAU_BOUND = 8
PATH_BOUND = 9
SERIES_BOUND = 12
LEMMA_BOUND = 10
IDENTITY_BOUND = 12
MAX_T = 3
MAX_F = 3

Value = Union[int, Fraction, str, None]

@dataclass
class CheckReport:
    """One comparison: a parameter tuple and the values each layer produced."""

    check: str
    params: dict
    tableau: Value = None
    path: Value = None
    series: Value = None
    formula: Value = None
    status: str = AGREE

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name))
                for f in fields(self)}


def _json_value(v: object) -> object:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    return v


def documented_edge(check: str, point: dict) -> bool:
    """Is a disagreement at this point a known, measured defect?

    Measured disagreement domains (exhaustive at harness scale):

    ==============  ====================================================
    cor4            n = 1 (both t = 0 and t = 1 fail there)
    thm5            n = 2, t <= 1
    thm6            0 < t < f (includes non-integral formula values)
    thm7            0 < t < f
    lemma17         t = 0, n = 2
    lemma20         t < f (first failures at n = f + t + 3)
    lemma30         t < f
    identity_10_1   M = 0, where binom(M-1, K) degenerates
    ==============  ====================================================

    Everything else verified clean on the full default grid, so any
    disagreement not matching a row above is new information.
    """
    if check == "cor4":
        return point.get("n") == 1
    if check == "thm5":
        return point.get("n") == 2 and point.get("t", 0) <= 1
    if check in ("thm6", "thm7"):
        return 0 < point.get("t", -1) < point.get("f", 0)
    if check == "lemma17":
        return point.get("n") == 2 and point.get("t") == 0
    if check in ("lemma20", "lemma30"):
        return point.get("t", -1) >= 0 and point.get("t", -1) < point.get("f", 0)
    if check == "identity_10_1":
        return point.get("M") == 0
    return False


def report_is_documented(report: CheckReport) -> bool:
    """Classify a disagree report against the documented-edge table."""
    if report.status != DISAGREE:
        return True
    if report.check.startswith("lemma"):
        points = report.params.get("mismatches", ())
        merged = [dict(p, n=report.params["n"]) for p in points]
        return bool(merged) and all(
            documented_edge(report.check, p) for p in merged)
    return documented_edge(report.check, report.params)


def _decomps(n: int, f: int, t: int) -> Iterator[tuple[int, int, int]]:
    # c + d + 2e - f + t = n over nonnegative c, d, e.
    for e in range((n + f - t) // 2 + 1):
        rest = n - 2 * e + f - t
        for c in range(rest + 1):
            yield c, rest - c, e


def feasible_weights(n: int, f: int, t: int) -> list[tuple[int, int, int]]:
    """All (c, d, e) realizable as path weights for the given frame.

    c + d + 2e - f + t = n with u = e - f + t up-steps; an umber step
    needs some up-step before it (u >= 1 unless c = 0) and a denim step
    needs some down-step before it (e >= 1 unless d = 0).  Checked
    against the enumerator: a tuple passes iff some path realizes it.
    """
    return sorted((c, d, e) for c, d, e in _decomps(n, f, t)
                  if e - f + t >= (c > 0) and e >= (d > 0))


# ---------------------------------------------------------------------------
# weight maps: every layer but the closed form counts by (c, d, e)

Weights = dict[tuple[int, int, int], int]


@lru_cache(maxsize=None)
def _path_counter(n: int, f: int, t: int) -> Counter:
    return paths.weight_counts(n, f, t)


@lru_cache(maxsize=None)
def _tableau_counter(n: int, f: int, t: int) -> Counter:
    # Through the bijection, so every tableau is scanned by the validating
    # tableau_to_path: the traced verify_grid workload needs a nonzero
    # bijection.calls and test_brute_force_layers_visit_every_object
    # counts one scan per tableau.  Reading the weight off the tableau
    # (ROADMAP item 2) changes those checks in the same step.
    return bijection.tableau_weight_counts(n, f, t)


# ---------------------------------------------------------------------------
# theorem checks

def _statuses(values: list[Value]) -> str:
    computed = [v for v in values if v is not None]
    if not computed:
        return EXCLUDED
    return AGREE if all(v == computed[0] for v in computed[1:]) else DISAGREE


def _series_order(grid_top: int) -> int:
    # Series builders refuse orders below the leading valuation, which
    # can reach max(t, f-t, t-f) <= 3 on the default grids.
    return max(grid_top, MAX_T, MAX_F)


def _frames(n: int, fs: Iterable[int]) -> Iterator[dict]:
    # f = 0 is a straight shape, whose reports carry no f.
    for f in fs:
        for t in range(MAX_T + 1):
            yield {"n": n, "f": f, "t": t} if f else {"n": n, "t": t}


def _weights(n: int, fs: Iterable[int]) -> Iterator[dict]:
    for p in _frames(n, fs):
        for c, d, e in feasible_weights(n, p.get("f", 0), p["t"]):
            yield dict(p, c=c, d=d, e=e)


def _refined(w: Weights, c: int, d: int, e: int, **_) -> int:
    return w.get((c, d, e), 0)


def _total(w: Weights, **_) -> int:
    return sum(w.values())


def _second_row(w: Weights, e: int, **_) -> int:
    return sum(k for (_, _, ee), k in w.items() if ee == e)


def _first_row(w: Weights, t: int, m: int, **_) -> int:
    # Straight shapes: the first row holds c umber entries plus the
    # minima of its e + t cells.
    return sum(k for (c, _, e), k in w.items() if c + e + t == m)


def _mean_second_row(w: Weights, **_) -> Optional[Fraction]:
    # None when nothing is counted.
    total = sum(w.values())
    if not total:
        return None
    return Fraction(sum(e * k for (_, _, e), k in w.items()), total)


def _frame(params: dict) -> tuple[int, int]:
    return params.get("f", 0), params["t"]


@dataclass(frozen=True)
class _Family:
    """One theorem family: its grid, its projection, its formula, its caps.

    grid(n) yields the report params at length n in canonical order and
    frame(params) the (f, t) they count in.  The tableau, path and series
    layers each give the (c, d, e) weight map of that frame at length n;
    project(w, **params) reads the family's statistic off any of them.
    The formula is called with the params.  The series and formula
    layers run for n <= top, the oracles up to their own caps.
    """

    grid: Callable[[int], Iterable[dict]]
    project: Callable[..., Value]
    formula: Callable[..., Value]
    frame: Callable[[dict], tuple[int, int]] = _frame
    top: int = PATH_BOUND
    tableau_cap: int = TABLEAU_BOUND
    path_cap: int = PATH_BOUND
    first_n: int = 1


FAMILIES: dict[str, _Family] = {
    # The refined families gate their path layer on TABLEAU_BOUND.
    "thm1": _Family(
        lambda n: _weights(n, (0,)), _refined,
        lambda n, t, c, d, e: formulas.count_thm1(n, t, c, d, e),
        top=SERIES_BOUND, path_cap=TABLEAU_BOUND),
    "cor2": _Family(
        lambda n: ({"n": n, "t": t, "e": e} for t in range(MAX_T + 1)
                   for e in range((n - t) // 2 + 1)), _second_row,
        lambda n, t, e: formulas.count_cor2(n, t, e)),
    "cor3": _Family(
        lambda n: ({"n": n, "t": t, "m": m} for t in range(MAX_T + 1)
                   for m in range(n + 1)), _first_row,
        # n = 1 is outside the closed form's stated domain (ValueError).
        lambda n, t, m: formulas.count_cor3(n, t, m)),
    "cor4": _Family(
        lambda n: _frames(n, (0,)), _total,
        lambda n, t: formulas.count_cor4(n, t)),
    "thm5": _Family(
        lambda n: _frames(n, (0,)), _mean_second_row,
        lambda n, t: formulas.expected_thm5(n, t),
        # PATH_BOUND, not TABLEAU_BOUND: a fix would change the report bytes.
        tableau_cap=PATH_BOUND, first_n=2),
    "thm6": _Family(
        lambda n: _weights(n, range(1, MAX_F + 1)), _refined,
        lambda n, f, t, c, d, e: formulas.count_thm6(n, f, t, c, d, e),
        top=SERIES_BOUND, path_cap=TABLEAU_BOUND),
    "thm7": _Family(
        lambda n: _frames(n, range(1, MAX_F + 1)), _total,
        lambda n, f, t: formulas.count_thm7(n, f, t)),
    # The remark's f = t frame, against oracles and series.
    "remark_1_10": _Family(
        lambda n: ({"n": n, "t": t} for t in range(1, MAX_T + 1)), _total,
        lambda n, t: formulas.remark_1_10(n, t),
        frame=lambda p: (p["t"], p["t"])),
}

THEOREM_IDS = tuple(FAMILIES)


def check_theorem(check: str, max_n: int) -> list[CheckReport]:
    """Run one family of comparisons over its default grid up to max_n.

    Series and closed forms run to min(max_n, 12) for thm1 and thm6 and
    to min(max_n, 9) for every other family.  Tableaux stop at n <= 8
    (n <= 9 for thm5), paths at n <= 9 (n <= 8 for thm1 and thm6); a
    layer beyond its cap appears as None.  The series layer sums [z^n]
    of the frame's symbolic terms, the cached terms that the identity
    registry reads, built at order max(min(max_n, 12), 3) for every
    family; a coefficient below the truncation does not depend on the
    order.  A ValueError from the closed form marks the point
    formula-domain-excluded.  The list holds the family's reports in
    canonical sorted order, the same reports that run_all streams.
    """
    if check not in FAMILIES:
        raise ValueError(f"unknown check id {check!r}")
    return list(_theorem_reports(check, max_n))


def _theorem_reports(check: str, max_n: int) -> Iterator[CheckReport]:
    fam = FAMILIES[check]
    order = _series_order(min(max_n, SERIES_BOUND))
    for n in range(fam.first_n, min(max_n, fam.top) + 1):
        # A grid visits each frame's params in one run, so the frame's
        # [z^n] map is summed from its cached symbolic terms and unpacked
        # from MultiPoly's keys once per run; only the current map is kept.
        frame = series_map = None
        for params in fam.grid(n):
            f, t = fam.frame(params)
            if (f, t) != frame:
                first, *rest = (term[n] for term in
                                _frame_terms(f, t, order))
                frame, series_map = (f, t), sum(rest, first).terms
            maps = (_tableau_counter(n, f, t) if n <= fam.tableau_cap else None,
                    _path_counter(n, f, t) if n <= fam.path_cap else None,
                    series_map)
            tab, path, ser = (None if w is None else fam.project(w, **params)
                              for w in maps)
            try:
                form = fam.formula(**params)
            except ValueError:
                form, status = None, EXCLUDED
            else:
                status = _statuses([tab, path, ser, form])
            yield CheckReport(check, params, tab, path, ser, form, status)


# ---------------------------------------------------------------------------
# identity registry, ids 12..36

_sign = Convention.sign
_term = Convention.term
_binom = Convention.binom


def _rhs12(n: int, f: int, t: int, c: int, d: int, e: int) -> int:
    return _binom(n - 1, t - 1) if (c, d, e) == (n - t, 0, 0) else 0


def _rhs13(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    v = _term((), (n - 1,), (n - c - e,), (c, d, e - 1, n - c - d - e - 1))
    for b in range(n - c - e + 1, n - e + 2):
        v -= _sign(n - b - c - e + 1) * _term(
            (n - b,), (n - 1,), (b,), (d, b - 1 - d, e - 1, n - b - e + 1))
    return v


def _rhs14(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    return _term((t,), (n - 1,), (d + e, n - c - e),
                 (n - c - d - e - 1, c, d, e - 1))


def _rhs19(n: int, f: int, t: int, c: int, d: int, e: int) -> int:
    return _binom(n - 1, f - 1) if (c, d, e) == (0, n - f, f) else 0


def _rhs20(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    return _term((f,), (n - 1,), (c + e - f, n - d - e + f),
                 (n - c - d - e + f - 1, c, d, e - f - 1))


def _rhs21(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    v = _term((), (n - 1,), (c + e - f + t,), (c, d, e - f + t - 1, e - 1))
    v -= _term((), (n - 1, n - d - f + t - 1), (c + e - f + t,),
               (c, d, n - d - 1, e - f + t - 1, e - f + t - 1))
    v -= _term((), (n - 1,), (c + e - f,), (c, d, e - f - 1, e + t - 1))
    v += _term((), (n - 1, n - d - f + t - 1), (c + e - f,),
               (c, d, n - d - 1, e - f - 1, e - f + 2 * t - 1))
    return v


def _rhs22(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    v = _term((), (n - 1, n - d - f + t - 1), (n - d - e,),
              (c, d, n - d - 1, e - f + t - 1, e - f + t - 1))
    v -= _term((), (n - 1, n - d - f - 1), (n - d - e,),
               (c, d, n - d - 1, e - f - 1, e - f + t - 1))
    return v


def _rhs23(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    v = _term((), (n - 1, n - d - f - 1), (c + e - f,),
              (c, d, n - d - 1, e - f + t - 1, e - f - 1))
    v -= _term((), (n - 1, n - d - f + t - 1), (c + e - f,),
               (c, d, n - d - 1, e - f + 2 * t - 1, e - f - 1))
    return v


def _rhs24(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    v = _term((), (n - 1,), (n - c - e + f,),
              (c, d, e - f - 1, n - c - d - e + f - 1))
    for b in range(n - c - e + f + 1, n - e + f + 2):
        v -= _sign(n - b - c - e + f + 1) * _term(
            (n - b,), (n - 1,), (b,),
            (d, b - 1 - d, e - f - 1, n - b - e + f + 1))
    return v


def _rhs25(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    v = _term((), (n - 1,), (n - c - e + f - t,), (c, d, e - f + t - 1, e - 1))
    v -= _term((), (n - 1,), (n - c - e + f,), (c, d, e - f - 1, e + t - 1))
    return v


def _rhs26(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    v = _term((), (n - 1,), (n - d - e,), (c, d, e - 1, e - f + t - 1))
    v -= _term((), (n - 1,), (n - d - e + f,), (c, d, e - f - 1, e + t - 1))
    return v


def _rhs27(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    return _term((t - f,), (n - 1,), (d + e, n - c - e),
                 (n - c - d - e - 1, c, d, e - 1))


def _rhs28(n: int, f: int, t: int, c: int, d: int, e: int) -> Count:
    v = _term((), (n - 1,), (d + e - f + t,), (c, d, e - 1, e - f + t - 1))
    v -= _term((), (n - 1,), (d + e + t,), (c, d, e - f - 1, e + t - 1))
    return v


def _rhs15(n: int, f: int, t: int) -> int:
    return _binom(2*n - 3, n - t - 2) - _binom(2*n - 3, n - t - 3)


def _rhs16(n: int, f: int, t: int) -> int:
    return (_binom(2*n - 3, n - t - 1) - _binom(2*n - 3, n - t - 2)
            - _binom(n - 2, t - 1))


def _rhs17(n: int, f: int, t: int) -> int:
    return (_binom(2*n - 5, n - t - 2) + _binom(2*n - 5, n - t - 3)
            + (n - 3) * _binom(2*n - 5, n - t - 4)
            - (n + 1) * _binom(2*n - 5, n - t - 5))


def _rhs18(n: int, f: int, t: int) -> int:
    return (_binom(2*n - 5, n - t - 1) + (n - 3) * _binom(2*n - 5, n - t - 3)
            - n * _binom(2*n - 5, n - t - 4) - _binom(n - 3, n - t - 1))


def _rhs29(n: int, f: int, t: int) -> int:
    s = 0
    for k in range(f + 1, n + 1):
        s += _sign(k - f + 1) * _binom(k - 1, f - 1) * (
            _binom(2*n - 3 + k - f, n - k - t - 1)
            - _binom(2*n - 3 + k - f, n - k - t - 2))
    return s


def _rhs30(n: int, f: int, t: int) -> int:
    s = 0
    for k in range(f - t + 1, n + 1):
        s += _sign(k - f + t + 1) * _binom(k - 1, f - t - 1) * (
            _binom(2*n + k - f + t - 3, n - k - 1)
            - _binom(2*n + k - f + t - 3, n - k - t - 1))
    return s


def _rhs31(n: int, f: int, t: int) -> int:
    s = 0
    for k in range(f - t, n + 1):
        s += (_sign(k - f + t) * _binom(k - 1, f - t - 1)
              * _binom(2*n + k - f + t - 3, n - k - 2))
    for k in range(f, n + 1):
        s -= (_sign(k - f) * _binom(k - 1, f - 1)
              * _binom(2*n + k - f - 3, n - k - t - 2))
    return s


def _rhs32(n: int, f: int, t: int) -> int:
    s = 0
    for k in range(f, n + 1):
        s += (_sign(k - f) * _binom(k - 1, f - 1)
              * _binom(2*n + k - f - 3, n - k - t - 1))
    for k in range(f - t, n + 1):
        s -= (_sign(k - f + t) * _binom(k - 1, f - t - 1)
              * _binom(2*n + k - f + t - 3, n - k - 2*t - 1))
    return s


def _rhs33(n: int, f: int, t: int) -> int:
    return _binom(2*n - 3, n - f - t - 2) - _binom(2*n - 3, n - f - t - 3)


def _rhs34(n: int, f: int, t: int) -> int:
    return _binom(2*n - 3, n - f + t - 2) - _binom(2*n - 3, n - f - t - 2)


def _rhs35(n: int, f: int, t: int) -> int:
    return _binom(2*n - 3, n + f - t - 2) - _binom(2*n - 3, n - f - t - 2)


def _rhs36(n: int, f: int, t: int) -> int:
    s = 0
    for k in range(t - f + 1, n + 1):
        s += _sign(k - t - f - 1) * _binom(k - 1, t - f - 1) * (
            _binom(2*n + k + f - t - 3, n - k - 1)
            - _binom(2*n + k + f - t - 3, n - k - 2))
    return s


_T_GRID = tuple({"t": t} for t in range(MAX_T + 1))
_F_GRID = tuple({"f": f} for f in range(1, MAX_F + 1))
_DROP_GRID = tuple({"f": f, "t": t}
                   for f in range(1, MAX_F + 1) for t in range(f))
_RISE_GRID = tuple({"f": f, "t": t}
                   for f in range(1, MAX_F + 1) for t in range(f, MAX_T + 1))
_FULL_GRID = tuple({"f": f, "t": t}
                   for f in range(1, MAX_F + 1) for t in range(MAX_T + 1))

# The readings of a displayed term's [z^n] coefficient: symbolic, at
# x = y = alpha = 1, and d/dalpha at x = y = alpha = 1 (d/dalpha commutes
# with setting x = y = 1).
_SYMBOLIC = "symbolic"
_AT_111 = "at 1,1,1"
_D_ALPHA = "d/dalpha at 1,1"

# id -> (sub-grid, term index, reading, rhs).  The left side is the
# reading of [z^n] of term `index` of frame_terms(f, t); a (drop, rise)
# index pair serves a sub-grid on both sides of t = f.  f and t are 0
# where the sub-grid has no such key.  rhs takes (n, f, t, c, d, e) and
# gives the x^c y^d alpha^e coefficient of [z^n] where the reading is
# symbolic, and takes (n, f, t) and gives the integer [z^n] otherwise.
_LEMMAS: dict[int, tuple] = {
    12: (_T_GRID, 0, _SYMBOLIC, _rhs12),
    13: (_T_GRID, 1, _SYMBOLIC, _rhs13),
    14: (_T_GRID, 2, _SYMBOLIC, _rhs14),
    15: (_T_GRID, 1, _AT_111, _rhs15),
    16: (_T_GRID, 2, _AT_111, _rhs16),
    17: (_T_GRID, 1, _D_ALPHA, _rhs17),
    18: (_T_GRID, 2, _D_ALPHA, _rhs18),
    19: (_F_GRID, 0, _SYMBOLIC, _rhs19),
    20: (_DROP_GRID, 1, _SYMBOLIC, _rhs20),
    21: (_DROP_GRID, 2, _SYMBOLIC, _rhs21),
    22: (_DROP_GRID, 3, _SYMBOLIC, _rhs22),
    23: (_DROP_GRID, 4, _SYMBOLIC, _rhs23),
    24: (_FULL_GRID, (5, 2), _SYMBOLIC, _rhs24),
    25: (_DROP_GRID, 6, _SYMBOLIC, _rhs25),
    26: (_RISE_GRID, 1, _SYMBOLIC, _rhs26),
    27: (_RISE_GRID, 3, _SYMBOLIC, _rhs27),
    28: (_RISE_GRID, 4, _SYMBOLIC, _rhs28),
    29: (_DROP_GRID, 1, _AT_111, _rhs29),
    30: (_DROP_GRID, 2, _AT_111, _rhs30),
    31: (_DROP_GRID, 3, _AT_111, _rhs31),
    32: (_DROP_GRID, 4, _AT_111, _rhs32),
    33: (_FULL_GRID, (5, 2), _AT_111, _rhs33),
    34: (_DROP_GRID, 6, _AT_111, _rhs34),
    35: (_RISE_GRID, 1, _AT_111, _rhs35),
    36: (_RISE_GRID, 3, _AT_111, _rhs36),
}

LEMMA_IDS = tuple(sorted(_LEMMAS))


@lru_cache(maxsize=None)
def _frame_terms(f: int, t: int, order: int) -> tuple[ZSeries, ...]:
    return frame_terms(f, t, order)


def _point_str(point: dict) -> str:
    return ",".join(f"{k}={point[k]}" for k in sorted(point))


def check_lemma(lemma_id: int, n: int, order: int) -> CheckReport:
    """Compare [z^n] of one displayed identity's left side with its right side.

    The identity's own stated specialization decides the comparison:
    polynomial equality in x, y, alpha where symbolic, integer equality
    where specialized.  The sub-grid of t (or f, t) values is folded into
    one report; disagreeing sub-points land in params["mismatches"].
    """
    if lemma_id not in _LEMMAS:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > order:
        raise ValueError(f"need order >= n, got order={order} n={n}")
    if order < _series_order(0):
        raise ValueError(f"need order >= {_series_order(0)}, the top term "
                         f"valuation on the lemma grids, got order={order}")
    grid, index, reading, rhs = _LEMMAS[lemma_id]
    params: dict = {"lemma": lemma_id, "n": n}
    mismatches = []
    first_lhs = first_rhs = None
    for point in grid:
        f, t = point.get("f", 0), point.get("t", 0)
        try:
            terms = _frame_terms(f, t, order)
        except NonExactDivision as exc:
            return CheckReport(f"lemma{lemma_id}", params,
                               series=f"{_point_str(point)}: {exc}",
                               status=BUILDER_ERROR)
        coeff = terms[index[t >= f] if isinstance(index, tuple) else index][n]
        # Both sides as maps: by (c, d, e) where symbolic, under the one
        # key () where the reading is an integer.
        if reading == _SYMBOLIC:
            got = coeff.terms
            want = {w: v for w in _decomps(n, f, t)
                    if (v := rhs(n, f, t, *w))}
        else:
            if reading == _D_ALPHA:
                coeff = coeff.alpha_derivative()
            got = {(): coeff.substitute(x=1, y=1, alpha=1).constant_value()}
            want = {(): rhs(n, f, t)}
        if got != want:
            mismatches.append(dict(point))
            if first_lhs is None:
                key = min(k for k in got.keys() | want.keys()
                          if got.get(k, 0) != want.get(k, 0))
                at = " at c={},d={},e={}".format(*key) if key else ""
                first_lhs = f"{_point_str(point)}{at}: {got.get(key, 0)}"
                first_rhs = f"{want.get(key, 0)}"
    if not mismatches:
        return CheckReport(f"lemma{lemma_id}", params, status=AGREE)
    return CheckReport(f"lemma{lemma_id}", dict(params, mismatches=mismatches),
                       series=first_lhs, formula=first_rhs, status=DISAGREE)


def check_identity_10_1() -> list[CheckReport]:
    """The alternating row-sum identity used to collapse the inner b-sums.

    sum_{L=0..K} (-1)^(K-L) binom(M, L) against binom(M-1, K), evaluated
    with the package binomial convention for 0 <= K <= M <= IDENTITY_BOUND.
    """
    reports = []
    for m in range(IDENTITY_BOUND + 1):
        for k in range(m + 1):
            lhs = sum(_sign(k - l) * _binom(m, l) for l in range(k + 1))
            rhs = _binom(m - 1, k)
            reports.append(CheckReport(
                "identity_10_1", {"K": k, "M": m}, series=lhs, formula=rhs,
                status=AGREE if lhs == rhs else DISAGREE))
    return reports


# ---------------------------------------------------------------------------
# full run

def _reports(max_n: int) -> Iterator[CheckReport]:
    if max_n < 1:
        return
    for check in THEOREM_IDS:
        yield from _theorem_reports(check, max_n)
    # one series order for every layer, so the identity registry reads
    # the theorem checks' cached terms
    order = _series_order(min(max_n, SERIES_BOUND))
    for lemma_id in LEMMA_IDS:
        for n in range(1, min(max_n, LEMMA_BOUND) + 1):
            yield check_lemma(lemma_id, n, order)
    yield from check_identity_10_1()


def run_all(max_n: int,
            sink: Optional[Callable[[CheckReport], None]] = None) -> dict:
    """Execute the whole default grid and summarize.

    Grid: every theorem family to its caps, the remark, the identity
    registry to min(max_n, 10), and the b-sum helper identity.  max_n = 0
    runs nothing.  Each report goes to sink (if given) as soon as it is
    made, in canonical order; the "reports" list holds the same objects
    in the same order.  The summary's "ok" is True exactly when nothing
    disagreed outside the documented edges and no builder failed.
    """
    reports: list[CheckReport] = []
    counts = {AGREE: 0, DISAGREE: 0, EXCLUDED: 0, BUILDER_ERROR: 0}
    documented = []
    undocumented = []
    excluded = []
    for rep in _reports(max_n):
        reports.append(rep)
        counts[rep.status] += 1
        entry = {"check": rep.check, "params": rep.params}
        if rep.status == DISAGREE:
            if report_is_documented(rep):
                documented.append(entry)
            else:
                undocumented.append(entry)
        elif rep.status == EXCLUDED:
            excluded.append(entry)
        if sink is not None:
            sink(rep)
    summary = {
        "max_n": max_n,
        "total": len(reports),
        "counts": counts,
        "documented_disagreements": documented,
        "undocumented_disagreements": undocumented,
        "formula_domain_exclusions": excluded,
        "ok": not undocumented and not counts[BUILDER_ERROR],
    }
    return {"summary": summary, "reports": reports}
