"""Acceptance grid: one test and one printed pass/fail line per criterion.

Every test computes its full verdict before asserting, so a failure
message carries the measured evidence.  Nothing here is marked xfail:
criteria that the implemented formulas genuinely miss fail red, with
the defect region spelled out.
"""

import time
from collections import Counter
from fractions import Fraction

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
from svtab.bijection import path_to_tableau, tableau_to_path
from svtab.genfun import expected_downsteps_series, gf_skew, gf_straight, refined_coefficient
from svtab.paths import (
    count_paths,
    decode_path,
    enumerate_paths,
    unconstrained_weight_counts,
    weight_counts,
)
from svtab.series import (
    ALPHA,
    ONE,
    X,
    Y,
    ZSeries,
    check_reversion,
    solve_M,
)
from svtab.shapes import TwoRowShape, count_tableaux, enumerate_tableaux
from svtab.verify import check_lemma, documented_edge, feasible_weights

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]

# criterion 1 grid, reused by criterion 7
GRID_N = 8
GRID_T = 3
GRID_F = 3

# the only exclusions the refined-grid criterion permits: the three
# published domain edges of the closed-form module (the n=1 singularity
# of the row-refined formula, the cumulative formula at (1,1), and the
# expectation at (2,0)); none of them concern the refined formulas
PERMITTED_REFINED_EXCLUSIONS: frozenset = frozenset()


def emit(line):
    print(line)


def refined_layers(n, f, t, series):
    # one enumeration per shape; weight (c, d, e) puts c + row1_cells
    # entries in row 1 and d + row2_cells in row 2
    by_shape = {}
    wc = weight_counts(n, f, t)
    for (c, d, e) in feasible_weights(n, f, t):
        if e not in by_shape:
            shape = TwoRowShape(e=e, t=t, f=f)
            by_shape[e] = shape, Counter(
                tab.row_entry_counts() for tab in enumerate_tableaux(shape, n))
        shape, rows = by_shape[e]
        tab = rows[c + shape.row1_cells, d + shape.row2_cells]
        pat = wc.get((c, d, e), 0)
        ser = refined_coefficient(series, n, c, d, e)
        if f == 0:
            form = count_thm1(n, t, c, d, e)
        else:
            form = count_thm6(n, f, t, c, d, e)
        yield (c, d, e), tab, pat, ser, form


def test_criterion_1_four_way_refined_grid():
    started = time.monotonic()
    mismatches = []
    points = 0
    for f in range(GRID_F + 1):
        for t in range(GRID_T + 1):
            if f == 0:
                series = gf_straight(t, GRID_N)
            else:
                series = gf_skew(f, t, GRID_N)
            for n in range(1, GRID_N + 1):
                for key, tab, pat, ser, form in refined_layers(n, f, t, series):
                    points += 1
                    if not (tab == pat == ser == form):
                        if (n, f, t, key) in PERMITTED_REFINED_EXCLUSIONS:
                            continue
                        mismatches.append((n, f, t) + key + (tab, pat, ser, form))
    elapsed = time.monotonic() - started
    regions = sorted({(f, t) for (n, f, t, c, d, e, *_rest) in mismatches})
    ok = not mismatches and elapsed < 300
    # the seconds go on the printed line only, so the failure message is
    # the same from run to run
    line = (f"criterion 1: {'PASS' if ok else 'FAIL'} "
            f"({points} grid points, {len(mismatches)} unpermitted mismatches")
    emit(f"{line}, {elapsed:.1f}s)")
    assert ok, (
        line + "); every mismatch has f >= 1 and 0 < t < f "
        f"(regions {regions}), where the skew refined formula drifts from "
        "all three enumeration layers (sample: n=7 f=2 t=1 c=2 d=0 e=3 gives "
        "formula 263/3 against 90); the permitted exclusion list covers only "
        "cumulative/expectation edges, none on this grid")


def test_criterion_2_cumulative_totals():
    bad_cor4 = []
    bad_thm7 = []
    bad_remark = []
    for n in range(1, 10):
        for t in range(4):
            if count_cor4(n, t) != count_paths(n, 0, t):
                bad_cor4.append((n, t, count_cor4(n, t), count_paths(n, 0, t)))
        for f in range(1, 4):
            for t in range(4):
                if count_thm7(n, f, t) != count_paths(n, f, t):
                    bad_thm7.append((n, f, t, count_thm7(n, f, t),
                                     count_paths(n, f, t)))
        for t in range(1, 4):
            if remark_1_10(n, t) != count_thm7(n, t, t):
                bad_remark.append((n, t))
    anchors_ok = (count_cor4(3, 1) == 3 and count_cor4(4, 0) == 5
                  and count_thm7(3, 1, 1) == 6 and count_thm7(2, 1, 1) == 2)
    ok = not bad_cor4 and not bad_thm7 and not bad_remark and anchors_ok
    line = (f"criterion 2: {'PASS' if ok else 'FAIL'} "
            f"(anchors {'ok' if anchors_ok else 'BROKEN'}, "
            f"{len(bad_cor4)} cumulative and {len(bad_thm7)} skew-total "
            f"mismatches, {len(bad_remark)} balanced-total mismatches)")
    emit(line)
    assert ok, (
        line + f"; cumulative formula crosses the oracle at n=1: {bad_cor4}; "
        "the skew total drifts exactly on 0 < t < f: "
        f"{[(n, f, t) for (n, f, t, *_r) in bad_thm7]}; no exclusion is "
        "provided for either region")


def test_criterion_3_expected_second_row():
    bad = []
    excluded = []
    series_by_t = {t: expected_downsteps_series(t, 9) for t in range(4)}
    for n in range(2, 10):
        for t in range(4):
            if documented_edge("thm5", {"n": n, "t": t}):
                excluded.append((n, t))
                continue
            wc = weight_counts(n, 0, t)
            total = sum(wc.values())
            if total == 0:
                oracle = None
            else:
                oracle = Fraction(sum(e * k for (c, d, e), k in wc.items()),
                                  total)
            formula = expected_thm5(n, t)
            pipeline = series_by_t[t][n]
            if not (formula == oracle == pipeline):
                bad.append((n, t, formula, oracle, pipeline))
    spot = expected_thm5(4, 0) == Fraction(7, 5)
    ok = not bad and spot
    line = (f"criterion 3: {'PASS' if ok else 'FAIL'} "
            f"(32 grid points, {len(excluded)} documented edges excluded: "
            f"{excluded}, spot 7/5 {'ok' if spot else 'BROKEN'})")
    emit(line)
    assert ok, line + f"; mismatches {bad}"


def test_criterion_4_series_engine():
    order = 20
    m = solve_M(order)
    one = ZSeries.one(order)
    z = ZSeries.z(order)
    zm = m.shift(1)
    az2m2 = (m * m).shift(2).scale(ALPHA)
    quadratic = m == one + zm.scale(X + Y) + az2m2
    left_cleared = (m * (one - z.scale(X) - m.shift(2).scale(ALPHA))
                    == one + zm.scale(Y))
    right_cleared = (m * (one - z.scale(Y) - m.shift(2).scale(ALPHA))
                     == one + zm.scale(X))
    folded = (one - (one - z.scale(X)) * m
              == -((m * (ZSeries.constant(Y, order)
                         + zm.scale(ALPHA))).shift(1)))
    reversion = check_reversion(order)
    walks_ok = True
    for n in range(9):
        expect = dict(m[n].terms)
        if dict(unconstrained_weight_counts(n)) != expect:
            walks_ok = False
            break
    ok = (quadratic and left_cleared and right_cleared and folded
          and reversion.ok and walks_ok)
    line = (f"criterion 4: {'PASS' if ok else 'FAIL'} "
            f"(quadratic {quadratic}, cleared forms {left_cleared}/"
            f"{right_cleared}, folded {folded}, reversion {reversion.ok}, "
            f"walk weights n<=8 {walks_ok})")
    emit(line)
    assert ok, line


def test_criterion_5_identity_registry():
    failing = {}
    builder_errors = []
    for lemma_id in range(12, 37):
        worst = []
        for n in range(1, 11):
            report = check_lemma(lemma_id, n, 10)
            if report.status == "builder-error":
                builder_errors.append((lemma_id, n))
            elif report.status == "disagree":
                worst.append(n)
        if worst:
            failing[lemma_id] = worst
    ok = not failing and not builder_errors
    line = (f"criterion 5: {'PASS' if ok else 'FAIL'} "
            f"(25 entries, n <= 10, {len(failing)} failing, "
            f"{len(builder_errors)} builder errors)")
    emit(line)
    assert not builder_errors, line
    assert ok, (
        line + f"; failing entries {sorted(failing)}: id 17 misses the single "
        "point t=0 n=2, ids 20 and 30 drift exactly on t < f (id 20 from "
        "n = f+t+3 with non-integral right sides such as 56/3, id 30 with "
        "integral but wrong right sides such as 5 against 4 at f=2 t=1 n=4); "
        "every exact division succeeded")


def test_criterion_6_bijection_round_trips():
    checked = 0
    for f in range(4):
        for e in range(9):
            for t in range(9):
                try:
                    shape = TwoRowShape(e=e, t=t, f=f)
                except ValueError:
                    continue
                if not 1 <= shape.cell_count <= 8:
                    continue
                for n in range(shape.cell_count, 9):
                    for tab in enumerate_tableaux(shape, n):
                        assert path_to_tableau(tableau_to_path(tab)) == tab
                        checked += 1
    for f in range(4):
        for t in range(12):
            for n in range(1, 9):
                for p in enumerate_paths(n, f, t):
                    assert tableau_to_path(path_to_tableau(p)) == p

    worked = path_to_tableau(decode_path("2:DDUudddUD"))
    expect = TwoRowShape(e=3, t=1, f=2)
    assert worked.shape == expect
    assert worked.content == (frozenset({3, 4}), frozenset({8}),
                              frozenset({1}), frozenset({2, 5, 6, 7}),
                              frozenset({9}))
    line = f"criterion 6: PASS ({checked} tableau round trips, worked example ok)"
    emit(line)


def test_criterion_7_consistency_chains():
    broken_a = []
    broken_b = []
    broken_c = []
    broken_d = []
    for n in range(1, GRID_N + 1):
        for t in range(GRID_T + 1):
            support = feasible_weights(n, 0, t)
            # fixed second-row length
            for e in sorted({e for (c, d, e) in support}):
                total = sum(count_thm1(n, t, c, d, ee)
                            for (c, d, ee) in support if ee == e)
                if total != count_cor2(n, t, e):
                    broken_a.append((n, t, e))
            # cumulative
            total = sum(count_thm1(n, t, c, d, e) for (c, d, e) in support)
            if total != count_cor4(n, t):
                broken_b.append((n, t, total, count_cor4(n, t)))
            # fixed first-row size
            for m in range(1, n + 1):
                total = sum(count_thm1(n, t, c, d, e)
                            for (c, d, e) in support
                            if c + e + t == m)
                try:
                    value = count_cor3(n, t, m)
                except ValueError:
                    broken_c.append((n, t, m, "rejected"))
                    continue
                if total != value:
                    broken_c.append((n, t, m, total, value))
            # skew totals
            for f in range(1, GRID_F + 1):
                skew_support = feasible_weights(n, f, t)
                total = sum(count_thm6(n, f, t, c, d, e)
                            for (c, d, e) in skew_support)
                if total != count_thm7(n, f, t):
                    broken_d.append((n, f, t, total, count_thm7(n, f, t)))
    helper_bad = []
    for big in range(13):
        for k in range(big + 1):
            lhs = sum((-1) ** (k - small) * Convention.binom(big, small)
                      for small in range(k + 1))
            if lhs != Convention.binom(big - 1, k):
                helper_bad.append((k, big, lhs, Convention.binom(big - 1, k)))
    ok = not (broken_a or broken_b or broken_c or broken_d or helper_bad)
    line = (f"criterion 7: {'PASS' if ok else 'FAIL'} "
            f"(chain breaks: {len(broken_a)}/{len(broken_b)}/"
            f"{len(broken_c)}/{len(broken_d)}, helper identity "
            f"{len(helper_bad)} failures)")
    emit(line)
    assert ok, (
        line + f"; refinement-to-cumulative breaks at n=1 ({broken_b}); the "
        f"row-size chain cannot close at n=1 because the row-size formula "
        f"rejects it ({[x for x in broken_c if x[0] == 1]}); the skew chain "
        "breaks on 0 < t < f where the drifting refined and total formulas "
        f"disagree with each other too ({[x[:3] for x in broken_d]}); the "
        f"alternating-sum helper fails only at K=M=0 ({helper_bad}), where "
        "the zero-by-convention binomial cannot reproduce the empty sum")


def test_criterion_8_catalan_sanity():
    recurrence = [1]
    for k in range(1, 9):
        recurrence.append(sum(recurrence[i] * recurrence[k - 1 - i]
                              for i in range(k)))
    formula_ok = all(count_thm1(2 * e, 0, 0, 0, e) == recurrence[e]
                     for e in range(1, 9))
    brute_ok = all(count_tableaux(TwoRowShape(e=e, t=0), 2 * e) == recurrence[e]
                   for e in range(1, 6))
    known = recurrence[1:9] == [1, 2, 5, 14, 42, 132, 429, 1430]
    ok = formula_ok and brute_ok and known
    line = (f"criterion 8: {'PASS' if ok else 'FAIL'} "
            f"(formula vs recurrence e<=8 {formula_ok}, "
            f"brute force e<=5 {brute_ok})")
    emit(line)
    assert ok, line
