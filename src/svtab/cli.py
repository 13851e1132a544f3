"""Command-line interface.

Five subcommands: ``count`` (closed-form counts, optionally checked
against brute force), ``expected`` (mean second-row length), ``series``
(coefficient dumps of the truncated generating functions), ``verify``
(the full cross-check harness), and ``table`` (CSV export of the
cumulative sequences).

Exit codes: 0 success, 1 contract violation, 2 verification
disagreement, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain, islice
from typing import Optional, Sequence, Union

from svtab import bijection, formulas, verify
from svtab.genfun import gf_skew, gf_straight

DEFAULT_ORDER_CAP = 24

Count = Union[int, Fraction]


class ContractViolation(Exception):
    """A flag combination or value outside a command's stated domain."""


class _Parser(argparse.ArgumentParser):
    """Usage errors are contract violations too: exit 1 with one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -3 and -0.5 for negative numbers; -3/4 is one
        # too.  _add_action and _parse_optional read this private attribute
        # (CPython 3.11); test_series_negative_rational_value guards it.
        self._negative_number_matcher = re.compile(r"-\d*\.?\d+(/\d+)?$")

    def error(self, message: str):
        raise ContractViolation(message)


def _order_cap() -> int:
    raw = os.environ.get("SVT_MAX_ORDER")
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        return int(raw)
    except ValueError:
        raise ContractViolation(
            f"SVT_MAX_ORDER must be an integer, got {raw!r}")


def _plain(value: Count) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def _ratio(value: Count) -> str:
    v = Fraction(value)
    return f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# count

def _count_family(args) -> tuple[str, dict]:
    """The verify family a count reads, and its params in output order."""
    refined = [v is not None for v in (args.c, args.d, args.e)]
    if any(refined) and not all(refined):
        raise ContractViolation("refined counting needs all of --c --d --e")
    refined_on = all(refined)
    if refined_on and args.m is not None:
        raise ContractViolation("--m cannot be combined with --c/--d/--e")
    if args.family == "straight":
        if args.f is not None:
            raise ContractViolation("--f applies only to --family skew")
        params = {"n": args.n, "t": args.t}
        if refined_on:
            check = "thm1"
        elif args.m is not None:
            check, params["m"] = "cor3", args.m
        else:
            check = "cor4"
    else:
        if args.f is None:
            raise ContractViolation("--family skew requires --f")
        if args.m is not None:
            raise ContractViolation("row refinement exists only for straight shapes")
        params = {"n": args.n, "f": args.f, "t": args.t}
        check = "thm6" if refined_on else "thm7"
    if refined_on:
        params.update({"c": args.c, "d": args.d, "e": args.e})
    return check, params


ORACLE_MAX_N = 9


def _emit_count(args, count: Count, params: dict,
                oracle: Optional[int]) -> int:
    match = None if oracle is None else (count == oracle)
    if args.format == "plain":
        if oracle is None:
            print(_plain(count))
        else:
            print(f"formula: {_plain(count)}")
            print(f"oracle: {oracle}")
            print("MATCH" if match else "MISMATCH")
    elif args.format == "json":
        payload = dict(params)
        payload["count"] = _ratio(count)
        if oracle is not None:
            payload["oracle"] = _ratio(oracle)
            payload["match"] = match
        print(json.dumps(payload))
    else:
        keys = list(params)
        header = keys + ["count"]
        row = [str(params[k]) for k in keys] + [_plain(count)]
        if oracle is not None:
            header += ["oracle", "match"]
            row += [str(oracle), str(match)]
        print(",".join(header))
        print(",".join(row))
    if match is False:
        return 2
    return 0


def _cmd_count(args) -> int:
    check, params = _count_family(args)
    fam = verify.FAMILIES[check]
    count = fam.formula(**params)
    oracle = None
    if args.oracle:
        if args.n > ORACLE_MAX_N:
            raise ContractViolation(
                f"--oracle enumerates tableaux and is capped at n <= {ORACLE_MAX_N}")
        weights = bijection.tableau_weight_counts(args.n, *fam.frame(params))
        oracle = fam.project(weights, **params)
    return _emit_count(args, count, params, oracle)


# ---------------------------------------------------------------------------
# expected

def _cmd_expected(args) -> int:
    if args.n < 2:
        raise ContractViolation("expected value needs n >= 2")
    value = formulas.expected_thm5(args.n, args.t)
    if value is None:
        print("no tableaux for these parameters", file=sys.stderr)
        return 1
    print(_ratio(value))
    return 0


# ---------------------------------------------------------------------------
# series

def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ContractViolation(f"not a rational number: {text!r}")


def _cmd_series(args) -> int:
    cap = _order_cap()
    if args.order < 0:
        raise ContractViolation("--order must be nonnegative")
    if args.order > cap:
        raise ContractViolation(
            f"--order {args.order} exceeds the configured maximum {cap}")
    if args.family == "skew":
        if args.f is None or args.f < 1:
            raise ContractViolation("--family skew requires --f >= 1")
    elif args.f is not None:
        raise ContractViolation("--f applies only to --family skew")

    values = [None if v is None else _parse_rational(v)
              for v in (args.x, args.y, args.alpha)]
    given = [v for v in values if v is not None]
    ints_only = all(v.denominator == 1 for v in given)
    if given and not ints_only and len(given) != 3:
        raise ContractViolation(
            "non-integer specialization needs all of --x --y --alpha")

    def build(x_val, y_val, alpha_val):
        if args.family == "straight":
            return gf_straight(args.t, args.order, x_val=x_val,
                               y_val=y_val, alpha_val=alpha_val)
        return gf_skew(args.f, args.t, args.order, x_val=x_val,
                       y_val=y_val, alpha_val=alpha_val)

    try:
        if ints_only:
            x_val, y_val, alpha_val = [
                None if v is None else int(v) for v in values]
            series = build(x_val, y_val, alpha_val)
            print(series.dump())
        else:
            series = build(None, None, None)
            for i, value in enumerate(series.specialize(*values)):
                print(f"{i}: {_plain(value)}")
    except ArithmeticError as exc:
        print(f"error: series build failed: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    if args.max_n < 0:
        raise ContractViolation("--max-n must be nonnegative")
    out = verify.run_all(args.max_n)
    summary = out["summary"]
    if args.report is not None:
        payload = {
            "summary": summary,
            "reports": [r.to_json_dict() for r in out["reports"]],
        }
        try:
            with open(args.report, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write report {args.report}: {exc}",
                  file=sys.stderr)
            return 3
    counts = summary["counts"]
    print(f"checks: {summary['total']}")
    print(f"agree: {counts['agree']}")
    print(f"disagree: {counts['disagree']} "
          f"({len(summary['documented_disagreements'])} documented, "
          f"{len(summary['undocumented_disagreements'])} undocumented)")
    print(f"formula-domain-excluded: {counts['formula-domain-excluded']}")
    print(f"builder-error: {counts['builder-error']}")
    for entry in summary["undocumented_disagreements"]:
        print(f"UNDOCUMENTED {entry['check']} {entry['params']}")
    return 0 if summary["ok"] else 2


# ---------------------------------------------------------------------------
# table

def _parse_range(text: str) -> range:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            start = stop = int(parts[0])
        elif len(parts) == 2:
            start, stop = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ContractViolation(f"range must look like 2..8, got {text!r}")
    return range(start, stop + 1)


def _cmd_table(args) -> int:
    ns = args.n
    if args.which == "thm7":
        if args.f is None:
            raise ContractViolation("table thm7 requires --f")
        header = f"n,count_thm7(f={args.f},t={args.t})"
        value = lambda n: formulas.count_thm7(n, args.f, args.t)
    elif args.which == "cor4":
        if args.f is not None:
            raise ContractViolation("--f applies only to thm7 tables")
        header = f"n,count_cor4(t={args.t})"
        value = lambda n: formulas.count_cor4(n, args.t)
    else:
        if args.f is not None:
            raise ContractViolation("--f applies only to thm7 tables")
        if ns and ns.start < 2:
            raise ContractViolation("expected-value tables need n >= 2")
        header = f"n,expected_thm5(t={args.t})"
        value = lambda n: formulas.expected_thm5(n, args.t)
    # Rows print as they are computed.  The first one is computed before
    # the header, so a range whose first n the formula rejects prints
    # nothing on stdout.
    rows = ((n, value(n)) for n in ns)
    first = list(islice(rows, 1))
    print(header)
    for n, v in chain(first, rows):
        print(f"{n},{'' if v is None else _plain(v)}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svtab",
        description="Exact counts of two-rowed set-valued standard tableaux "
                    "and the matching coloured Motzkin paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form counts")
    p.add_argument("--family", choices=["straight", "skew"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--f", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--format", choices=["plain", "csv", "json"],
                   default="plain")
    p.add_argument("--oracle", action="store_true",
                   help="recount by brute-force tableau enumeration")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("expected", help="mean second-row length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_expected)

    p = sub.add_parser("series", help="generating-function coefficients")
    p.add_argument("--family", choices=["straight", "skew"], required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--f", type=int)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--alpha")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="run the cross-check harness")
    p.add_argument(
        "--max-n", type=int, required=True,
        help="largest n to check, capped per layer: series and formulas "
             "at 12 for thm1 and thm6 and at 9 otherwise, tableaux at 8 "
             "(9 for thm5), paths at 9 (8 for thm1 and thm6), lemmas at "
             "10; any --max-n above 12 gives the same 2,900 reports as 12")
    p.add_argument("--report", help="write the full JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="CSV export of the count sequences")
    p.add_argument("--which", choices=["cor4", "thm7", "expected"],
                   required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--f", type=int)
    p.add_argument("--n", type=_parse_range, required=True,
                   help="inclusive range, e.g. 2..8")
    p.add_argument("--format", choices=["csv"], default="csv")
    p.set_defaults(func=_cmd_table)
    return parser


@contextlib.contextmanager
def _counts_in_full():
    # Counts print in full at any size: CPython (3.10.7 on) refuses to
    # turn an int of more than 4,300 digits into a string.  The limit is
    # lifted for the command only, after its arguments are parsed, and
    # put back for in-process callers.
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        with _counts_in_full():
            return args.func(args)
    except (ContractViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 3


if __name__ == "__main__":
    sys.exit(main())
