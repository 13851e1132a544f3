"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from svtab import formulas
from svtab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_refined_straight(capsys):
    code, out, err = run(capsys, "count", "--family", "straight",
                         "--n", "4", "--t", "0",
                         "--c", "0", "--d", "0", "--e", "2")
    assert (code, out, err) == (0, "2\n", "")


def test_count_skew_total(capsys):
    code, out, _ = run(capsys, "count", "--family", "skew",
                       "--n", "3", "--t", "1", "--f", "1")
    assert (code, out) == (0, "6\n")


def test_count_row_refined(capsys):
    code, out, _ = run(capsys, "count", "--family", "straight",
                       "--n", "3", "--t", "1", "--m", "3")
    assert (code, out) == (0, "1\n")


def test_count_json_always_fractional(capsys):
    code, out, _ = run(capsys, "count", "--family", "skew",
                       "--n", "3", "--t", "1", "--f", "1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "6/1"
    assert data["n"] == 3
    assert data["f"] == 1


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--family", "straight",
                       "--n", "4", "--t", "0", "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines == ["n,t,count", "4,0,5"]


def test_count_oracle_match(capsys):
    code, out, _ = run(capsys, "count", "--family", "straight",
                       "--n", "4", "--t", "0", "--oracle")
    assert code == 0
    assert "MATCH" in out
    assert "MISMATCH" not in out


def test_count_oracle_mismatch_exits_2(capsys):
    # a point inside the measured drift region of the skew formula
    code, out, _ = run(capsys, "count", "--family", "skew",
                       "--n", "7", "--f", "2", "--t", "1",
                       "--c", "2", "--d", "0", "--e", "3", "--oracle")
    assert code == 2
    assert "MISMATCH" in out
    assert "263/3" in out
    assert "90" in out


def test_count_contract_violations_exit_1(capsys):
    cases = [
        ["count", "--family", "straight", "--n", "4", "--t", "0",
         "--c", "1", "--d", "0", "--e", "2"],                 # sum is 5
        ["count", "--family", "straight", "--n", "4", "--t", "0",
         "--c", "1", "--d", "0"],                             # partial triple
        ["count", "--family", "skew", "--n", "4", "--t", "1"],  # missing --f
        ["count", "--family", "straight", "--n", "4", "--t", "0",
         "--f", "1"],                                         # --f with straight
        ["count", "--family", "skew", "--n", "4", "--t", "1",
         "--f", "1", "--m", "2"],                             # --m is row-refined straight only
        ["count", "--family", "straight", "--n", "1", "--t", "0",
         "--m", "1"],                                         # n = 1 out of domain
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv
        assert out == "", argv


@pytest.mark.parametrize("argv", [
    ["table", "--which", "thm7", "--f", "0", "--t", "0", "--n", "2..4"],
    ["table", "--which", "cor4", "--t", "-1", "--n", "2..4"],
    ["table", "--which", "expected", "--t", "-1", "--n", "2..3"],
    ["series", "--family", "straight", "--t", "5", "--order", "2"],
    ["series", "--family", "skew", "--f", "2", "--t", "0", "--order", "1"],
])
def test_out_of_domain_values_exit_1_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["table", "--which", "cor4", "--t", "0", "--n", "-3..2"],
    ["count", "--family", "straight", "--n", "4"],
    ["series", "--family", "straight", "--t", "0", "--order", "two"],
    ["verify"],
    [],
])
def test_usage_errors_exit_1_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--help"])
    assert exc.value.code == 0
    assert "--which" in capsys.readouterr().out


def test_verify_help_names_the_layer_caps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "series and formulas at 12 for thm1 and thm6" in text
    assert "any --max-n above 12 gives the same 2,900 reports as 12" in text


def test_expected_values(capsys):
    assert run(capsys, "expected", "--n", "4", "--t", "0")[:2] == (0, "7/5\n")
    assert run(capsys, "expected", "--n", "3", "--t", "1")[:2] == (0, "2/3\n")
    assert run(capsys, "expected", "--n", "5", "--t", "5")[:2] == (0, "0/1\n")


def test_expected_undefined_mean(capsys):
    # t = n leaves a single path with no second row at n = 1; below n = 2
    # the command refuses outright
    code, out, err = run(capsys, "expected", "--n", "1", "--t", "1")
    assert code == 1
    assert "n" in err


def test_series_symbolic_straight(capsys):
    code, out, _ = run(capsys, "series", "--family", "straight",
                       "--t", "0", "--order", "2")
    assert code == 0
    assert out == "0: 1\n1: 0\n2: alpha\n"


def test_series_trivial_order(capsys):
    code, out, _ = run(capsys, "series", "--family", "straight",
                       "--t", "1", "--order", "1")
    assert code == 0
    assert out == "0: 0\n1: 1\n"


def test_series_specialized_skew(capsys):
    code, out, _ = run(capsys, "series", "--family", "skew",
                       "--f", "1", "--t", "1", "--order", "3",
                       "--x", "1", "--y", "1", "--alpha", "1")
    assert code == 0
    assert out.strip().split("\n")[-1] == "3: 6"


def test_series_rational_specialization(capsys):
    code, out, _ = run(capsys, "series", "--family", "straight",
                       "--t", "0", "--order", "2",
                       "--x", "1/2", "--y", "1/2", "--alpha", "1")
    assert code == 0
    assert out == "0: 1\n1: 0\n2: 1\n"


# sha256 over `svtab series` at order 4 for every straight frame t <= 2 and
# skew frame f <= 3, t <= 3, with x, y and alpha each unset, 0, 1 or -1:
# argv, exit code, stdout and stderr of all 960 calls, none of them errors.
# Taken after the terms over a divisor that vanishes (alpha = 0 and x or y
# = 0) became 0, which turned the 60 calls that exited 1 with "division by
# the zero series" into series and left the other 900 byte-identical;
# test_specialized_build_agrees_with_symbolic checks every term under these
# substitutions against the substituted symbolic series.
SUBSTITUTION_GRID_SHA256 = (
    "81b54818500fbef822e9888cd1497934820cf940c9c327815669036c2c1e13d0")


def test_series_substitution_grid_bytes_are_pinned(capsys):
    frames = [["--family", "straight", "--t", str(t)] for t in range(3)]
    frames += [["--family", "skew", "--f", str(f), "--t", str(t)]
               for f in range(1, 4) for t in range(4)]
    digest = hashlib.sha256()
    for frame in frames:
        for subs in itertools.product((None, 0, 1, -1), repeat=3):
            argv = ["series", *frame, "--order", "4"]
            for flag, value in zip(("--x", "--y", "--alpha"), subs):
                if value is not None:
                    argv += [flag, str(value)]
            digest.update(repr((argv, *run(capsys, *argv))).encode())
    assert digest.hexdigest() == SUBSTITUTION_GRID_SHA256


# sha256 of the stdout of `svtab series --order 24` under zero
# substitutions, the cases the order-4 grid above covers only at low
# order; taken while the term builders still divided by lines without a
# constant term and read their blocks one order further per zero.
ZERO_DUMP_SHA256 = {
    ("straight", 0, 2, "--x 0"): "cd23bff2a13dc1297a8a6392d06ab53064c76751e33a5728c18f6c32e3ac45f9",
    ("straight", 0, 2, "--y 0 --alpha 0"): "176df97cd89018194eebe94818d722bac05d13331beedb888f363f17ad77c1f7",
    ("straight", 0, 2, "--x 0 --y 0 --alpha 1"): "3431eea32a549705169ad7a1d3112183f9b961bb323215f1beb4a0eebca8e571",
    ("skew", 3, 1, "--x 0"): "32ff26cab6645bc54aeed51f3bed91af8a84177f11e690934a31c29207b814eb",
    ("skew", 3, 1, "--y 0 --alpha 0"): "52605601536daa28dcf39a1d839299a3990344eb2b365db3cc78247436de2591",
    ("skew", 3, 1, "--x 0 --y 0 --alpha 1"): "f845a246348046992a816978735e9cbc9bc5ab5a0f0a5813369fef1091b606ca",
    ("skew", 2, 3, "--x 0"): "e7c86961187a541a458424046452f3dba316292596997f22fbb69a5a47aed873",
    ("skew", 2, 3, "--y 0 --alpha 0"): "12179f026c6d7d9a60666894f1d11ff22a717b24d209a69bca96427c968df44a",
    ("skew", 2, 3, "--x 0 --y 0 --alpha 1"): "83cfa7d193bfd7a7ff3549e52cb6949351b6d108e0c81287658a68dd08fbd33d",
}


def test_series_zero_substitution_dumps_at_order_24_are_pinned(capsys):
    got = {}
    for key in ZERO_DUMP_SHA256:
        family, f, t, subs = key
        frame = [] if family == "straight" else ["--f", str(f)]
        code, out, err = run(capsys, "series", "--family", family, *frame,
                             "--t", str(t), "--order", "24", *subs.split())
        assert (code, err) == (0, ""), key
        got[key] = hashlib.sha256(out.encode()).hexdigest()
    assert got == ZERO_DUMP_SHA256


def test_series_negative_rational_value(capsys):
    # argparse alone reads -3/4 as an option, not as the value of --y
    frame = ["series", "--family", "straight", "--t", "1", "--order", "3",
             "--x", "1/2", "--alpha", "2"]
    spaced = run(capsys, *frame, "--y", "-3/4")
    joined = run(capsys, *frame, "--y=-3/4")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1].startswith("0: 0\n1: 1\n")


def test_series_order_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "series", "--family", "straight",
                       "--t", "0", "--order", "25")
    assert code == 1
    assert "order" in err
    monkeypatch.setenv("SVT_MAX_ORDER", "30")
    code, out, _ = run(capsys, "series", "--family", "straight",
                       "--t", "0", "--order", "25")
    assert code == 0
    assert out.startswith("0: 1\n")
    monkeypatch.setenv("SVT_MAX_ORDER", "bogus")
    code, _, err = run(capsys, "series", "--family", "straight",
                       "--t", "0", "--order", "2")
    assert code == 1
    assert "SVT_MAX_ORDER" in err


def test_verify_small_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2")
    assert code == 0
    assert "checks:" in out
    assert "undocumented" in out


def test_verify_zero_grid(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "0")
    assert code == 0


def test_verify_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--max-n", "2",
                     "--report", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert set(data) == {"summary", "reports"}
    assert data["summary"]["ok"] is True
    for rep in data["reports"]:
        assert set(rep) == {"check", "params", "tableau", "path",
                            "series", "formula", "status"}


def test_verify_report_io_failure(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "1",
                       "--report", "/nonexistent-dir/x.json")
    assert code == 3
    assert "/nonexistent-dir/x.json" in err


def test_table_cor4(capsys):
    code, out, _ = run(capsys, "table", "--which", "cor4",
                       "--t", "0", "--n", "2..8")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "n,count_cor4(t=0)"
    # closed admissible paths at t = 0 are counted by the Catalan numbers
    assert lines[1:] == ["2,1", "3,2", "4,5", "5,14", "6,42", "7,132", "8,429"]


# cor4 at n = 7200 has 4,329 digits, past CPython's default limit of
# 4,300 for turning an int into a string; Decimal renders it without it.
_BIG_COUNT = str(Decimal(formulas.count_cor4(7200, 0)))


@pytest.mark.parametrize("argv, want", [
    (("count", "--family", "straight", "--n", "7200", "--t", "0"),
     f"{_BIG_COUNT}\n"),
    (("count", "--family", "straight", "--n", "7200", "--t", "0",
      "--format", "json"),
     json.dumps({"n": 7200, "t": 0, "count": f"{_BIG_COUNT}/1"}) + "\n"),
    (("table", "--which", "cor4", "--t", "0", "--n", "7200..7200"),
     f"n,count_cor4(t=0)\n7200,{_BIG_COUNT}\n"),
], ids=["plain", "json", "table"])
def test_counts_print_in_full_past_the_digit_limit(capsys, argv, want):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert len(_BIG_COUNT) > 4300
    assert run(capsys, *argv) == (0, want, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit to keep")
def test_range_past_the_digit_limit_is_refused(capsys):
    # Output lifts the digit limit, argument parsing keeps it: a range
    # bound of more than 4,300 digits is refused, not run.
    code, out, err = run(capsys, "table", "--which", "cor4", "--t", "0",
                         "--n", "1.." + "9" * 4301)
    assert (code, out) == (1, "")
    assert err.startswith("error: range must look like 2..8")
    assert err.count("\n") == 1


def test_table_thm7(capsys):
    code, out, _ = run(capsys, "table", "--which", "thm7",
                       "--f", "1", "--t", "1", "--n", "2..6")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "n,count_thm7(f=1,t=1)"
    assert lines[1] == "2,2"
    assert lines[2] == "3,6"


def test_table_prints_its_rows_before_a_later_row_fails(capsys, monkeypatch):
    count_cor4 = formulas.count_cor4

    def failing_at_4(n, t):
        if n == 4:
            raise ValueError("n = 4 is out of range")
        return count_cor4(n, t)

    monkeypatch.setattr(formulas, "count_cor4", failing_at_4)
    code, out, err = run(capsys, "table", "--which", "cor4",
                         "--t", "0", "--n", "2..6")
    assert (code, out) == (1, "n,count_cor4(t=0)\n2,1\n3,2\n")
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_table_empty_range_header_only(capsys):
    code, out, _ = run(capsys, "table", "--which", "cor4",
                       "--t", "0", "--n", "5..4")
    assert code == 0
    assert out == "n,count_cor4(t=0)\n"


def test_table_expected_blank_for_undefined(capsys):
    code, out, _ = run(capsys, "table", "--which", "expected",
                       "--t", "0", "--n", "2..4")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "n,expected_thm5(t=0)"
    assert lines[1:] == ["2,0", "3,1", "4,7/5"]


def test_outputs_are_deterministic(capsys):
    argv = ["verify", "--max-n", "2"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract

_INT = st.integers(-1, 9)
_SMALL = st.integers(-1, 4)
_RATIONAL = st.sampled_from(["0", "1", "-2", "3", "1/2", "-3/4", "1/0", "x"])
_RANGE = st.one_of(st.tuples(_INT, _INT).map(lambda r: f"{r[0]}..{r[1]}"),
                   _INT.map(str), st.sampled_from(["", "..", "1..2..3", "a"]))


def _flag(name, values):
    return values.map(lambda v: [name, str(v)])


def _maybe(name, values):
    return st.one_of(st.just([]), _flag(name, values))


def _args(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_FAMILY = _flag("--family", st.sampled_from(["straight", "skew"]))
_COMMANDS = {
    "count": _args(
        _FAMILY, _flag("--n", _INT), _flag("--t", _SMALL),
        _maybe("--f", _SMALL), _maybe("--m", _INT),
        st.one_of(st.just([]), _args(_flag("--c", _SMALL),
                                     _flag("--d", _SMALL),
                                     _flag("--e", _SMALL))),
        _maybe("--format", st.sampled_from(["plain", "csv", "json"])),
        st.sampled_from([[], ["--oracle"]])),
    "expected": _args(_flag("--n", _INT), _flag("--t", _INT)),
    "series": _args(
        _FAMILY, _flag("--t", _SMALL), _maybe("--f", _SMALL),
        _flag("--order", st.integers(-1, 6)), _maybe("--x", _RATIONAL),
        _maybe("--y", _RATIONAL), _maybe("--alpha", _RATIONAL)),
    # os.devnull accepts the report; a path below it cannot be created.
    "verify": _args(
        _flag("--max-n", st.integers(-1, 1)),
        _maybe("--report", st.sampled_from(
            [os.devnull, os.path.join(os.devnull, "report.json")]))),
    "table": _args(
        _flag("--which", st.sampled_from(["cor4", "thm7", "expected"])),
        _flag("--t", _INT), _maybe("--f", _INT), _flag("--n", _RANGE)),
}
_ARGV = st.sampled_from(sorted(_COMMANDS)).flatmap(
    lambda cmd: _COMMANDS[cmd].map(lambda rest: [cmd] + rest))


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_ARGV)
def test_fuzzed_arguments_keep_the_exit_code_contract(argv):
    code, out, err = _call(argv)
    assert "Traceback" not in out + err
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1
    assert _call(argv)[1] == out


# sha256 of `svtab table --which thm7 --f F --t T --n 1..200`, keyed by
# (f, t); taken from the term-by-term evaluation of the k-sum
THM7_TABLE_SHA256 = {
    (1, 0): "8f1b14bc90d5d5c3824ca49be3791c954987e53300ba7fd1d6007d65b5cfdd14",
    (1, 1): "5a2f4aa2b1033874ebc708e5e368950e43ec5c7e669ec6a3d0386e550cac89e1",
    (1, 2): "e484aba81be7153d8f56d6f6e005c0c35e250557990ae685ddf03f8b3d841fa4",
    (1, 3): "3552e1ae4557ff02497d535a8d25b5cac244920e33d7d09454b4177782516f10",
    (2, 0): "ba1d8d7b20c5dfafc866228784fcfc6ae15e31116bccd80ac33501ba5b4b2d74",
    (2, 1): "0b4d43695b0b3415fc1432de69b23fd2c82b35e85b27a63be8f391e041b84698",
    (2, 2): "83df432abbb69f989550ede2aae487ce79e75d2ec5cba0b6decc287d06fa235f",
    (2, 3): "9fa824708d317953e89a4d377ec4abf02c3f13c42feb4faeb069cc645b4d005e",
    (3, 0): "c4437bbdaf636b0105ebc7dc6a7d5be6a510aeced2b5663e4f388df55ca69b65",
    (3, 1): "8a6a77c7e28496180967afb9a049aabe0c230ac408b699694d0acadb928850de",
    (3, 2): "3ff94ee8c27625d1fad33e905eda454631e4c72a5d941ed5cc4678de395da9e5",
    (3, 3): "bb1d469f39854e057c53dc007843fc0c7777a0251a75c875e3aac74e4c202ae1",
}


def test_thm7_table_bytes_are_pinned(capsys):
    got = {}
    for f, t in THM7_TABLE_SHA256:
        code, out, _ = run(capsys, "table", "--which", "thm7", "--f", str(f),
                           "--t", str(t), "--n", "1..200")
        assert code == 0
        got[f, t] = hashlib.sha256(out.encode()).hexdigest()
    assert got == THM7_TABLE_SHA256


def _readme_block(heading, fence):
    # the lines of the first code block under a README heading
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split(heading, 1)[1].split(fence, 1)[1]
    return block.split("```", 1)[0].splitlines()


def test_readme_command_values(capsys):
    # Each `svtab ...  # <value>` line of README's "Command line" block
    # whose comment is an integer or p/q prints that value first.
    cases = []
    for line in _readme_block("## Command line", "```sh\n"):
        command, _, comment = line.partition("#")
        if re.fullmatch(r"-?\d+(/\d+)?", comment.strip()):
            cases.append((shlex.split(command)[1:], comment.strip()))
    assert cases
    for argv, want in cases:
        code, out, _ = run(capsys, *argv)
        assert (code, out.split("\n", 1)[0]) == (0, want), argv


def test_readme_library_values():
    # After the imports of README's "Library" block, every other line is
    # `expr  # <int>` and the expression evaluates to that int.
    namespace, cases = {}, []
    for line in _readme_block("## Library", "```python\n"):
        code, _, comment = line.partition("#")
        if code.startswith(("from ", "import ")):
            exec(code, namespace)
        elif line.strip():
            assert re.fullmatch(r"-?\d+", comment.strip()), line
            cases.append((code.strip(), int(comment)))
    assert cases
    for expr, want in cases:
        assert eval(expr, namespace) == want, expr
