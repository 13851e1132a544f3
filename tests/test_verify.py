"""Tests for the cross-checking harness."""

import hashlib
import json
from collections import Counter

import pytest

from svtab import bijection, genfun, paths, verify
from svtab.cli import main
from svtab.paths import weight_counts
from svtab.verify import (
    CheckReport,
    check_identity_10_1,
    check_lemma,
    check_theorem,
    documented_edge,
    feasible_weights,
    report_is_documented,
    run_all,
)


def by_status(reports):
    out = {}
    for r in reports:
        out.setdefault(r.status, []).append(r)
    return out


def test_feasible_weights_match_oracle_support():
    # the predicate must carve out exactly the weights some path attains
    for n in range(7):
        for f in range(3):
            for t in range(3):
                support = set(weight_counts(n, f, t))
                assert set(feasible_weights(n, f, t)) == support, (n, f, t)


def test_documented_edge_table():
    assert documented_edge("cor4", {"n": 1, "t": 0})
    assert not documented_edge("cor4", {"n": 2, "t": 0})
    assert documented_edge("thm5", {"n": 2, "t": 1})
    assert not documented_edge("thm5", {"n": 3, "t": 1})
    assert documented_edge("thm6", {"n": 5, "f": 2, "t": 1})
    assert not documented_edge("thm6", {"n": 5, "f": 2, "t": 2})
    assert not documented_edge("thm6", {"n": 5, "f": 2, "t": 0})
    assert documented_edge("thm7", {"n": 4, "f": 3, "t": 2})
    assert not documented_edge("thm7", {"n": 4, "f": 1, "t": 1})
    assert documented_edge("lemma17", {"n": 2, "t": 0})
    assert not documented_edge("lemma17", {"n": 3, "t": 0})
    assert documented_edge("lemma20", {"f": 3, "t": 1, "n": 9})
    assert not documented_edge("lemma20", {"f": 1, "t": 1, "n": 9})
    assert documented_edge("lemma30", {"f": 2, "t": 1, "n": 4})
    assert documented_edge("identity_10_1", {"K": 0, "M": 0})
    assert not documented_edge("identity_10_1", {"K": 0, "M": 1})
    assert not documented_edge("thm1", {"n": 3, "t": 0})


def test_check_thm1_all_agree():
    reports = by_status(check_theorem("thm1", 6))
    assert set(reports) <= {"agree"}
    assert len(reports["agree"]) > 0


def test_check_cor4_flags_only_n1():
    reports = check_theorem("cor4", 5)
    bad = [r for r in reports if r.status == "disagree"]
    assert {r.params["n"] for r in bad} == {1}
    for r in bad:
        assert report_is_documented(r)


def test_check_thm5_documented_points():
    reports = check_theorem("thm5", 5)
    bad = [(r.params["n"], r.params["t"]) for r in reports
           if r.status == "disagree"]
    assert sorted(bad) == [(2, 0), (2, 1)]


def test_check_thm6_defect_region():
    reports = check_theorem("thm6", 6)
    for r in reports:
        if r.status == "disagree":
            assert 0 < r.params["t"] < r.params["f"], r.params
            assert report_is_documented(r)


def test_check_thm7_spot():
    reports = check_theorem("thm7", 6)
    spot = {(r.params["n"], r.params["f"], r.params["t"]): r for r in reports}
    r = spot[(3, 1, 1)]
    assert r.status == "agree"
    assert r.formula == 6
    r = spot[(3, 2, 1)]
    assert r.status == "disagree"
    assert (r.formula, r.path) == (3, 4)


def test_check_theorem_rejects_unknown_id():
    with pytest.raises(ValueError):
        check_theorem("thm9", 4)


def test_report_json_shape():
    r = check_theorem("thm1", 3)[0]
    data = r.to_json_dict()
    assert sorted(data) == ["check", "formula", "params", "path",
                            "series", "status", "tableau"]
    json.dumps(data)
    assert "timing" not in data


def test_report_json_renders_fractions():
    reports = check_theorem("thm5", 3)
    r = next(x for x in reports if x.params["n"] == 3 and x.params["t"] == 1)
    data = r.to_json_dict()
    assert data["formula"] == "2/3"
    assert data["status"] == "agree"


def test_lemma_agreement_and_mismatch_reporting():
    ok = check_lemma(13, 6, 6)
    assert ok.status == "agree"
    bad = check_lemma(20, 8, 8)
    assert bad.status == "disagree"
    assert bad.params["mismatches"]
    for point in bad.params["mismatches"]:
        assert 0 < point["t"] < point["f"]
    clean = check_lemma(21, 8, 8)
    assert clean.status == "agree"


def test_lemma17_single_defect_point():
    assert check_lemma(17, 2, 4).status == "disagree"
    assert check_lemma(17, 3, 4).status == "agree"
    assert check_lemma(17, 4, 6).status == "agree"


def test_lemma30_defect_values():
    bad = check_lemma(30, 4, 4)
    assert bad.status == "disagree"
    first = bad.params["mismatches"][0]
    assert (first["f"], first["t"]) == (2, 1)


def test_lemma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        check_lemma(11, 4, 4)
    with pytest.raises(ValueError):
        check_lemma(13, 9, 4)  # n beyond the series order
    for lemma_id in verify.LEMMA_IDS:  # n below the registry grids
        for n in (0, -1):
            with pytest.raises(ValueError) as err:
                check_lemma(lemma_id, n, 6)
            assert str(err.value) == f"need n >= 1, got n={n}"
    for lemma_id in verify.LEMMA_IDS:  # order below a term valuation on the grid
        with pytest.raises(ValueError, match="need order >= 3"):
            check_lemma(lemma_id, 1, 2)


def test_identity_10_1_only_origin_fails():
    reports = check_identity_10_1()
    bad = [r for r in reports if r.status == "disagree"]
    assert [(r.params["K"], r.params["M"]) for r in bad] == [(0, 0)]
    assert all(report_is_documented(r) for r in bad)


def test_run_all_small_is_ok_and_deterministic():
    a = run_all(3)
    b = run_all(3)
    assert [r.to_json_dict() for r in a["reports"]] == \
        [r.to_json_dict() for r in b["reports"]]
    assert a["summary"] == b["summary"]
    assert a["summary"]["ok"] is True
    assert a["summary"]["undocumented_disagreements"] == []
    assert a["summary"]["counts"]["builder-error"] == 0
    assert a["summary"]["total"] == len(a["reports"])


def test_run_all_zero_is_empty():
    out = run_all(0)
    assert out["reports"] == []
    assert out["summary"]["ok"] is True


def test_run_all_reports_are_serializable():
    out = run_all(2)
    payload = {"summary": out["summary"],
               "reports": [r.to_json_dict() for r in out["reports"]]}
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload


def test_synthetic_undocumented_report_is_flagged():
    r = CheckReport(check="cor4", params={"n": 5, "t": 0},
                    tableau=7, path=7, series=7, formula=8,
                    status="disagree")
    assert not report_is_documented(r)


def test_run_all_streams_reports_before_the_run_ends(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("identity check broke")

    monkeypatch.setattr(verify, "check_identity_10_1", broken)
    seen = []
    with pytest.raises(RuntimeError):
        run_all(2, sink=seen.append)
    checks = {r.check for r in seen}
    assert set(verify.THEOREM_IDS) <= checks
    assert any(c.startswith("lemma") for c in checks)


def test_run_all_hands_on_each_theorem_report_as_it_is_made(monkeypatch):
    # One event list: a path-map request appends ("count", frame), the
    # sink appends ("report", check).  thm6's first report must reach the
    # sink before thm6 asks for its last path map.
    events = []
    real = verify._path_counter

    def counted(*frame):
        events.append(("count", frame))
        return real(*frame)

    monkeypatch.setattr(verify, "_path_counter", counted)
    run_all(6, sink=lambda r: events.append(("report", r.check)))
    family = verify.THEOREM_IDS.index("thm6")
    previous = verify.THEOREM_IDS[family - 1]
    reports = [(i, check) for i, (kind, check) in enumerate(events)
               if kind == "report"]
    start = max(i for i, check in reports if check == previous)
    end = max(i for i, check in reports if check == "thm6")
    first = min(i for i, check in reports if check == "thm6")
    last_count = max(i for i in range(start, end) if events[i][0] == "count")
    assert first < last_count


def test_run_all_sink_sees_the_returned_reports_in_order():
    seen = []
    out = run_all(4, sink=seen.append)
    assert len(seen) == len(out["reports"]) > 0
    assert all(a is b for a, b in zip(seen, out["reports"]))


def test_brute_force_layers_visit_every_object(monkeypatch):
    # Every path and tableau the oracles count is built and yielded, and
    # every tableau goes through the validating scan: the objects seen on
    # the public channels add up to the summed values of the weight maps.
    seen = Counter()

    def stream(name, real):
        def wrapper(*args, **kwargs):
            for obj in real(*args, **kwargs):
                seen[name] += 1
                yield obj
        return wrapper

    def call(name, real):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def summed(name, real):
        def wrapper(*args):
            w = real(*args)
            seen[name] += sum(w.values())
            return w
        return wrapper

    for mod, name, wrap, key in [
            (paths, "enumerate_paths", stream, "paths"),
            (paths, "weight_counts", summed, "path maps"),
            (bijection, "enumerate_tableaux", stream, "tableaux"),
            (bijection, "tableau_to_path", call, "scans"),
            (bijection, "tableau_weight_counts", summed, "tableau maps")]:
        monkeypatch.setattr(mod, name, wrap(key, getattr(mod, name)))
    for cache in (verify._path_counter, verify._tableau_counter):
        cache.cache_clear()
    try:
        run_all(6)
    finally:
        for cache in (verify._path_counter, verify._tableau_counter):
            cache.cache_clear()
    assert seen["paths"] == seen["path maps"] > 0
    assert seen["tableaux"] == seen["scans"] == seen["tableau maps"] > 0


def _count_term_builders(monkeypatch) -> Counter:
    # Count the calls of each term builder by argument set, from cold
    # frame caches.
    calls = Counter()

    def counted(real):
        def wrapper(*args, **kwargs):
            calls[real.__name__, args, tuple(sorted(kwargs.items()))] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("straight_terms", "skew_drop_terms", "skew_rise_terms"):
        monkeypatch.setattr(genfun, name, counted(getattr(genfun, name)))
    verify._frame_terms.cache_clear()
    return calls


def test_lemma_layer_builds_each_frame_once(monkeypatch):
    # Every left side is read off [z^n] of one cached symbolic
    # frame_terms call, so the lemma layer asks the term builders for each
    # of its 16 frames once, and for no specialised build.
    calls = _count_term_builders(monkeypatch)
    try:
        for lemma_id in verify.LEMMA_IDS:
            for n in range(1, verify.LEMMA_BOUND + 1):
                check_lemma(lemma_id, n, verify.LEMMA_BOUND)
    finally:
        verify._frame_terms.cache_clear()
    assert sum(calls.values()) == len(calls) == 16


def test_run_all_builds_each_frame_once(monkeypatch):
    # The theorem checks sum the symbolic terms that the identity registry
    # reads, and both read them at one series order, so a whole run asks
    # for the same 16 frames as the lemma layer alone, once each.
    calls = _count_term_builders(monkeypatch)
    try:
        run_all(12)
    finally:
        verify._frame_terms.cache_clear()
    assert sum(calls.values()) == len(calls) == 16


def test_report_bytes_are_pinned(tmp_path, capsys):
    # max-n 9 reaches every cap edge: tableaux end at n = 8 (n = 9 for
    # thm5), the refined families' paths end at n = 8, the rest at n = 9.
    target = tmp_path / "report.json"
    assert main(["verify", "--max-n", "9", "--report", str(target)]) == 0
    capsys.readouterr()
    data = target.read_bytes()
    assert len(data) == 424472
    assert hashlib.sha256(data).hexdigest() == (
        "074943e70e4c35eb2e1215721235a7ea84b2847d27b66e1bfd965c6b363a7b18")
