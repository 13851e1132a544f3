"""The three benchmark workloads.

Each workload has four parts:

- ``inputs(seed, scale)`` builds the inputs from the seed; it is cheap and
  counts as set-up;
- ``run(inputs, workdir)`` is the timed region and returns the program's
  outputs;
- ``check(inputs, outputs, golden)`` compares the outputs with the golden
  digests and returns ``(ops, failed, notes)``;
- ``record(scale, workdir)`` computes the golden entries for every input any seed
  can pick (used by ``make_golden.py``).

Every call into svtab goes through a module attribute (``genfun.gf_skew``,
not a name imported from it), so the tracer's wrappers see it.

``scale`` is ``"full"`` for the benchmark proper and ``"tiny"`` for the
smoke tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from svtab import cli, formulas, genfun, series, verify


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def short_digest(text: str) -> str:
    """Per-value digest; 64 bits is plenty to catch a changed value."""
    return sha256(text)[:16]


def value_text(value) -> str:
    """A count as the CLI prints it: bare integers, rationals as p/q."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _failure(key, exc: BaseException) -> str:
    return f"{key}: {type(exc).__name__}: {exc}"


class VerifyGrid:
    """``svtab verify --max-n N --report PATH``, the run users make.

    The grid is fixed by the harness, so the seed is unused.  One
    operation is one check report.
    """

    name = "verify_grid"
    SCALES = {"full": {"max_n": 12}, "tiny": {"max_n": 3}}

    def inputs(self, seed: int, scale: str) -> dict:
        return dict(self.SCALES[scale])

    def run(self, inp: dict, workdir: str) -> dict:
        path = os.path.join(workdir, "verify_report.json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--max-n", str(inp["max_n"]),
                             "--report", path])
        with open(path, "rb") as fh:
            report = fh.read()
        os.remove(path)
        return {"exit": code, "stdout": out.getvalue(), "report": report}

    def expected_ops(self, inp: dict, golden: dict) -> int:
        return len(golden["report_digests"])

    def check(self, inp: dict, out: dict, golden: dict):
        want = golden["report_digests"]
        ops = len(want)
        try:
            payload = json.loads(out["report"])
        except ValueError as exc:
            return ops, ops, [f"report is not JSON: {exc}"]
        reports = payload["reports"]
        bad = set(range(len(reports), ops))
        for i, rep in enumerate(reports[:ops]):
            if _report_digest(rep) != want[i]:
                bad.add(i)
            if rep["status"] == "builder-error":
                bad.add(i)
        undocumented = {_report_key(e) for e in
                        payload["summary"]["undocumented_disagreements"]}
        bad.update(i for i, rep in enumerate(reports[:ops])
                   if _report_key(rep) in undocumented)
        notes = [f"report {i} ({reports[i]['check']} {reports[i]['params']}) "
                 "differs from the golden report" for i in sorted(bad)[:5]
                 if i < len(reports)]
        whole = [sha256_bytes(out["report"]) != golden["report_sha256"],
                 sha256(out["stdout"]) != golden["stdout_sha256"],
                 out["exit"] != golden["exit"]]
        if any(whole):
            notes.append("report file, stdout or exit code differs "
                         "from the golden run")
            if not bad:
                bad.add(-1)
        return ops, min(len(bad), ops), notes

    def record(self, scale: str, workdir: str) -> dict:
        out = self.run(self.inputs(0, scale), workdir)
        payload = json.loads(out["report"])
        return {
            "exit": out["exit"],
            "stdout_sha256": sha256(out["stdout"]),
            "report_sha256": sha256_bytes(out["report"]),
            "report_bytes": len(out["report"]),
            "report_digests": [_report_digest(r) for r in payload["reports"]],
        }


def _report_digest(report: dict) -> str:
    return short_digest(json.dumps(report, sort_keys=True,
                                   separators=(",", ":")))


def _report_key(entry: dict) -> str:
    return json.dumps([entry["check"], entry["params"]], sort_keys=True)


_DROP = tuple((f, t) for f in range(1, 4) for t in range(f))
_RISE = tuple((f, t) for f in range(1, 4) for t in range(f, 4))


class SeriesSymbolic:
    """Few large symbolic series builds, dominated by MultiPoly products.

    gf_straight(t, order) for every t <= 3, one reversion check, and
    gf_skew(f, t, order) on pairs the seed picks: a fixed number from the
    drop stratum (t < f) and from the rise stratum (t >= f).  One
    operation is one generating function (its dump, the bytes
    ``svtab series`` prints) or one reversion check.
    """

    name = "series_symbolic"
    SCALES = {
        "full": {"straight_order": 24, "skew_order": 18,
                 "reversion_order": 24, "picks": 3},
        "tiny": {"straight_order": 8, "skew_order": 6,
                 "reversion_order": 8, "picks": 3},
    }

    def inputs(self, seed: int, scale: str) -> dict:
        p = self.SCALES[scale]
        rng = random.Random(seed)
        ops = [("straight", 0, t, p["straight_order"]) for t in range(4)]
        ops.append(("reversion", 0, 0, p["reversion_order"]))
        for stratum in (_DROP, _RISE):
            for f, t in sorted(rng.sample(stratum, p["picks"])):
                ops.append(("skew", f, t, p["skew_order"]))
        return {"ops": ops}

    def run(self, inp: dict, workdir: str) -> dict:
        results = {}
        for op in inp["ops"]:
            kind, f, t, order = op
            try:
                if kind == "straight":
                    results[op] = genfun.gf_straight(t, order).dump()
                elif kind == "skew":
                    results[op] = genfun.gf_skew(f, t, order).dump()
                else:
                    results[op] = bool(series.check_reversion(order))
            except Exception as exc:  # a failed operation is data
                results[op] = exc
        return results

    def expected_ops(self, inp: dict, golden: dict) -> int:
        return len(inp["ops"])

    def check(self, inp: dict, out: dict, golden: dict):
        failed, notes = 0, []
        for op in inp["ops"]:
            got = out.get(op)
            key = _series_key(op)
            if isinstance(got, BaseException):
                ok, why = False, _failure(key, got)
            elif op[0] == "reversion":
                ok, why = got is True, f"{key}: reversion check failed"
            else:
                ok = golden.get(key) == sha256(got)
                why = f"{key}: dump differs from the golden digest"
            if not ok:
                failed += 1
                notes.append(why)
        return len(inp["ops"]), failed, notes

    def record(self, scale: str, workdir: str) -> dict:
        p = self.SCALES[scale]
        ops = [("straight", 0, t, p["straight_order"]) for t in range(4)]
        ops += [("skew", f, t, p["skew_order"]) for f, t in _DROP + _RISE]
        out = self.run({"ops": ops}, workdir)
        return {_series_key(op): sha256(out[op]) for op in ops}


def _series_key(op: tuple) -> str:
    kind, f, t, order = op
    if kind == "straight":
        return f"straight:t={t}:order={order}"
    if kind == "skew":
        return f"skew:f={f}:t={t}:order={order}"
    return f"reversion:order={order}"


# family -> (formula, parameter names, parameter tuples, smallest n,
# (f, t) of its x = y = alpha = 1 series).  expected_thm5 has no series
# counterpart here: it needs the alpha-derivative, which a series at
# alpha = 1 has lost.
_FAMILIES = {
    "cor4": ("count_cor4", ("t",), [(t,) for t in range(4)], 1,
             lambda t: (0, t)),
    "thm5": ("expected_thm5", ("t",), [(t,) for t in range(4)], 2, None),
    "thm7": ("count_thm7", ("f", "t"),
             [(f, t) for f in range(1, 4) for t in range(4)], 1,
             lambda f, t: (f, t)),
    "remark_1_10": ("remark_1_10", ("t",), [(t,) for t in range(1, 4)], 1,
                    lambda t: (t, t)),
}
_TOTAL_SERIES = tuple((f, t) for f in range(4) for t in range(4))


class TotalsSpecialised:
    """Closed-form totals far beyond brute force, against integer series.

    count_cor4, expected_thm5, count_thm7 (f, t <= 3) and remark_1_10 at
    n up to n_max, and the 16 series at x = y = alpha = 1 (one-term
    big-integer coefficients) up to ``order``.  Every closed-form value
    with n <= order and a series counterpart is cross-checked and a
    disagreement is classified with ``verify.documented_edge``.  Each
    series' coefficients are also checked against a golden digest; a
    mismatch fails every sampled point with n <= order that the series
    covers, since a documented edge would otherwise hide it.  The
    strata are (family, parameters, block of ``block`` consecutive n);
    the seed picks ``per_block`` values of n in each.  One operation is
    one closed-form value.
    """

    name = "totals_specialised"
    SCALES = {
        "full": {"n_max": 200, "order": 48, "block": 10, "per_block": 6},
        "tiny": {"n_max": 30, "order": 12, "block": 10, "per_block": 3},
    }

    def inputs(self, seed: int, scale: str) -> dict:
        p = self.SCALES[scale]
        rng = random.Random(seed)
        points = []
        for family, (_, _, params, n_min, _) in _FAMILIES.items():
            for args in params:
                for lo in range(1, p["n_max"] + 1, p["block"]):
                    block = range(max(lo, n_min),
                                  min(lo + p["block"], p["n_max"] + 1))
                    for n in sorted(rng.sample(block, p["per_block"])):
                        points.append((family, args, n))
        return {"points": points, "order": p["order"]}

    def run(self, inp: dict, workdir: str) -> dict:
        values = {}
        for point in inp["points"]:
            family, args, n = point
            fn = getattr(formulas, _FAMILIES[family][0])
            try:
                values[point] = fn(n, *args)
            except Exception as exc:  # a failed operation is data
                values[point] = exc
        order = inp["order"]
        coeffs = {}
        for f, t in _TOTAL_SERIES:
            try:
                if f == 0:
                    s = genfun.gf_straight(t, order, 1, 1, 1)
                else:
                    s = genfun.gf_skew(f, t, order, 1, 1, 1)
                coeffs[(f, t)] = [s[k].constant_value()
                                  for k in range(order + 1)]
            except Exception as exc:  # a failed operation is data
                coeffs[(f, t)] = exc
        return {"values": values, "coeffs": coeffs}

    def expected_ops(self, inp: dict, golden: dict) -> int:
        return len(inp["points"])

    def check(self, inp: dict, out: dict, golden: dict):
        failed, notes = 0, []
        bad_series = set()
        for ft, coeffs in out["coeffs"].items():
            if not isinstance(coeffs, BaseException) and \
                    _coeffs_digest(coeffs) != golden[_series_digest_key(ft)]:
                bad_series.add(ft)
                notes.append(f"series f={ft[0]} t={ft[1]}: coefficients "
                             "differ from the golden digest")
        for point in inp["points"]:
            family, args, n = point
            _, names, _, n_min, series_of = _FAMILIES[family]
            label = f"{family}{args} n={n}"
            value = out["values"][point]
            why = None
            covered = series_of is not None and n <= inp["order"]
            if covered and series_of(*args) in bad_series:
                why = f"{label}: its series differs from the golden digest"
            elif isinstance(value, BaseException):
                why = _failure(label, value)
            elif short_digest(value_text(value)) != \
                    golden[_family_key(family, args)][n - n_min]:
                why = f"{label}: value differs from the golden digest"
            elif covered:
                coeffs = out["coeffs"][series_of(*args)]
                if isinstance(coeffs, BaseException):
                    why = _failure(f"series for {label}", coeffs)
                elif coeffs[n] != value:
                    where = dict(zip(names, args), n=n)
                    if not verify.documented_edge(family, where):
                        why = (f"{label}: undocumented disagreement, "
                               f"formula {value_text(value)} vs series "
                               f"{coeffs[n]}")
            if why is not None:
                failed += 1
                notes.append(why)
        return len(inp["points"]), failed, notes

    def record(self, scale: str, workdir: str) -> dict:
        p = self.SCALES[scale]
        out = {}
        for family, (name, _, params, n_min, _) in _FAMILIES.items():
            fn = getattr(formulas, name)
            for args in params:
                out[_family_key(family, args)] = [
                    short_digest(value_text(fn(n, *args)))
                    for n in range(n_min, p["n_max"] + 1)]
        coeffs = self.run({"points": [], "order": p["order"]},
                          workdir)["coeffs"]
        for ft, c in coeffs.items():
            out[_series_digest_key(ft)] = _coeffs_digest(c)
        return out


def _family_key(family: str, args: tuple) -> str:
    names = _FAMILIES[family][1]
    return ":".join([family] + [f"{k}={v}" for k, v in zip(names, args)])


def _series_digest_key(ft: tuple) -> str:
    return f"series:f={ft[0]}:t={ft[1]}"


def _coeffs_digest(coeffs: list) -> str:
    return sha256(",".join(map(value_text, coeffs)))


WORKLOADS = {w.name: w for w in (VerifyGrid(), SeriesSymbolic(),
                                 TotalsSpecialised())}
