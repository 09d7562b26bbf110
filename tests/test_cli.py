"""Command-line interface tests: argument handling, report formats, JSON
round-trips, and the exit-code contract."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ab import cli, oracle
from sl2ab.cli import (
    EXIT_BUDGET,
    EXIT_CLOSED_PIPE,
    EXIT_MISMATCH,
    EXIT_NOT_MAXIMAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    TABLE_ROW_LIMIT,
    build_parser,
    dump_json,
    run,
)
from sl2ab.polyarith import IntPoly, cyclotomic_polynomial
from sl2ab.verify import cyclotomic_reference
from zpoly import product

# The README's compute examples with their full text report and --json
# document.  These outputs are part of the CLI contract: a change to any of
# them must be deliberate.
GOLDEN = json.loads((Path(__file__).parent / "compute_golden.json").read_text())
# Full classification tables, stored as the sha256 and line count of their
# stdout: every row of a long table must stay byte-identical.
TABLE_GOLDEN = json.loads((Path(__file__).parent / "table_golden.json").read_text())
# Oracle requests with their exit code and the sha256 of stdout and stderr:
# `oracle --zmod N` bare, with --compare, --json and both, and ring documents
# (an object in args, passed as a file) with --compare --json.
ORACLE_GOLDEN = json.loads((Path(__file__).parent / "oracle_golden.json").read_text())
# Help and usage-error requests with their exit code and the sha256 of stdout
# and stderr, at a terminal width of 80.  argparse words its help and errors a
# little differently from one Python version to the next, so the hashes are
# compared only on the version they were recorded with.
USAGE_GOLDEN = json.loads((Path(__file__).parent / "usage_golden.json").read_text())


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommand:
    def test_rational_with_2_and_3_inverted(self, capsys):
        code, out, _ = invoke(capsys, "compute", "--rational", "--invert", "2,3")
        assert code == EXIT_OK
        assert "group: 0" in out
        assert "contributions: none" in out

    def test_rational_human_report(self, capsys):
        code, out, _ = invoke(capsys, "compute", "--rational", "--invert", "7")
        assert code == EXIT_OK
        assert "field: Q" in out
        assert "degree: 1; signature: (1, 0)" in out
        assert "S: 1 infinite place(s); 1 other inverted prime(s)" in out
        assert "route: Main" in out
        assert "  (2) -> Z/4" in out
        assert "  (3) -> Z/3" in out
        assert "group: Z/12  (= Z/3 + Z/4)" in out

    def test_invert_accepts_composites(self, capsys):
        code_a, out_a, _ = invoke(capsys, "compute", "--rational", "--invert", "30")
        code_b, out_b, _ = invoke(capsys, "compute", "--rational", "--invert", "2,3,5")
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_quadratic_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "compute", "--quadratic", "33", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert dump_json(doc) == out  # byte-identical re-serialization
        assert doc["route"] == "quadratic"
        assert doc["group"] == {"free_rank": 0, "invariant_factors": [4, 12]}
        assert doc["input"]["field"] == {"kind": "quadratic", "d": 33}
        assert len(doc["splittings"]) == 2

    def test_known_case_with_warning(self, capsys):
        code, out, _ = invoke(capsys, "compute", "--quadratic", "-15")
        assert code == EXIT_OK
        assert "route: known-case" in out
        assert "warning: the unit group is finite" in out
        assert "group: Z/12 + Z^2" in out

    def test_finite_units_exit(self, capsys):
        code, _, err = invoke(capsys, "compute", "--quadratic", "-7")
        assert code == EXIT_PRECONDITION
        assert err.startswith("error: infinitely many units are required")
        code, _, err = invoke(capsys, "compute", "--poly=5,0,1")
        assert code == EXIT_PRECONDITION
        # Q(i) as a polynomial: degree 2, one complex place, no known case
        code, _, err = invoke(capsys, "compute", "--poly=1,0,1")
        assert code == EXIT_PRECONDITION
        assert err.startswith("error: infinitely many units are required")

    def test_not_maximal_exit(self, capsys):
        code, _, err = invoke(capsys, "compute", "--poly=-5,0,1")
        assert code == EXIT_NOT_MAXIMAL
        assert "not maximal at 2" in err
        # the message names routes that exist: the library form or a flag
        assert "sl2ab.UserNumberField" in err and "--quadratic" in err
        # GeneralPoly refuses x^2 - 5 when built, but an invalid S is still
        # reported first, as a usage error
        for argv, message in (
            (["--extra-s-primes=-1"], "--extra-s-primes must be >= 0, got -1"),
            (["--invert=5"], "--invert applies only to --rational; use"),
            (["--remove-prime", "7:0"], "--remove-prime: P must be 2 or 3, got 7"),
        ):
            code, out, err = invoke(capsys, "compute", "--poly=-5,0,1", *argv)
            assert (code, out) == (EXIT_USAGE, ""), err
            assert err.startswith(f"error: {message}")

    def test_poly_report(self, capsys):
        code, out, _ = invoke(capsys, "compute", "--poly=-5,0,0,1")
        assert code == EXIT_OK
        assert "field: Q[x]/(x^3-5)" in out
        assert "degree: 3; signature: (1, 1)" in out
        assert "  [0] (2, x+1): e=1, f=1" in out
        assert "  [1] (2, x^2+x+1): e=1, f=2" in out
        assert "  [0] (3, x+1): e=3, f=1" in out
        assert "group: Z/12  (= Z/3 + Z/4)" in out

    @pytest.mark.parametrize(
        "factors",
        # (x^2+1)(x^2+2), and products Phi_a Phi_b: reducible over Q, yet
        # without a rational root
        [((1, 0, 1), (2, 0, 1))]
        + [
            (cyclotomic_polynomial(a).coeffs, cyclotomic_polynomial(b).coeffs)
            for a, b in [
                (3, 4), (3, 5), (4, 5), (5, 7), (3, 7), (4, 7), (5, 8), (7, 9),
                (3, 8), (5, 12), (4, 9), (7, 8), (3, 10), (4, 10), (5, 9), (8, 9),
            ]
        ],
        ids=lambda factors: "*".join(f"({IntPoly(f)})" for f in factors),
    )
    def test_reducible_poly_exit(self, capsys, factors):
        coeffs = ",".join(map(str, product(*factors).coeffs))
        code, out, err = invoke(capsys, "compute", f"--poly={coeffs}")
        assert code == EXIT_USAGE
        assert out == ""
        assert "is reducible over Q" in err

    @pytest.mark.parametrize("n", [23, 29, 35])
    def test_poly_cyclotomic_bounded_run(self, capsys, n):
        coeffs = ",".join(str(c) for c in cyclotomic_polynomial(n).coeffs)
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "compute", f"--poly={coeffs}", "--json")
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert json.loads(out)["group"] == cyclotomic_reference(n).to_json()
        assert elapsed < 5.0, f"Phi_{n} took {elapsed:.2f}s"

    def test_cyclotomic(self, capsys):
        code, out, _ = invoke(capsys, "compute", "--cyclotomic", "8")
        assert code == EXIT_OK
        assert "field: Q(zeta_8)" in out
        assert "group: Z/2 + Z/2  (= (Z/2)^2)" in out

    def test_function_field(self, capsys):
        code, _, _ = invoke(capsys, "compute", "--function-field", "2")
        assert code == EXIT_PRECONDITION
        code, out, _ = invoke(
            capsys, "compute", "--function-field", "2", "--remove-prime", "2:0"
        )
        assert code == EXIT_OK
        assert "characteristic: 2 (q = 2)" in out
        assert "  [0] (t): e=1, f=1" in out
        assert "  [1] (t-1): e=1, f=1" in out
        assert "route: main2" in out
        assert "group: Z/2 + Z/2" in out
        code, out, _ = invoke(
            capsys, "compute", "--function-field", "4", "--extra-s-primes", "1"
        )
        assert code == EXIT_OK
        assert "none (q >= 4)" in out
        assert "group: 0" in out

    def test_function_field_wrong_slot(self, capsys):
        # the places (t) and (t-1) of F_2(t) are numbered in slot 2
        code, out, err = invoke(
            capsys, "compute", "--function-field", "2", "--remove-prime", "3:0"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: removal indexes in slot 3 do not apply in characteristic 2 "
            "(use slot 2)\n"
        )
        # the CLI names its flag, not the library field behind it
        code, out, err_negative = invoke(
            capsys, "compute", "--quadratic", "5", "--extra-s-primes", "-1"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err_negative == "error: --extra-s-primes must be >= 0, got -1\n"
        assert "other_finite_primes" not in err + err_negative

    def test_usage_errors(self, capsys):
        cases = [
            ("compute", "--quadratic", "12"),  # not squarefree
            ("compute", "--quadratic", "5", "--invert", "5"),  # wrong field kind
            ("compute", "--rational", "--invert", "1"),
            ("compute", "--rational", "--invert", ""),
            ("compute", "--rational", "--remove-prime", "2-0"),
            ("compute", "--rational", "--remove-prime", "5:0"),
            ("compute", "--function-field", "2", "--remove-prime", "3:0"),
            ("compute", "--rational", "--quadratic", "5"),  # mutually exclusive
            ("compute",),  # no field chosen
            ("compute", "--poly", "1,a,1"),
            ("compute", "--function-field", "6"),  # not a prime power
            ("nonsense",),
        ]
        for argv in cases:
            code, _, err = invoke(capsys, *argv)
            assert code == EXIT_USAGE, argv
            assert err.startswith("error: "), argv

    def test_remove_prime_comma_form(self, capsys):
        code_a, out_a, _ = invoke(
            capsys, "compute", "--quadratic", "-5", "--remove-prime", "2:0,3:0"
        )
        code_b, out_b, _ = invoke(
            capsys,
            "compute",
            "--quadratic",
            "-5",
            "--remove-prime",
            "2:0",
            "--remove-prime",
            "3:0",
        )
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b
        assert "inverted above 2: indexes [0]" in out_a
        assert "inverted above 3: indexes [0]" in out_a


class TestGoldenOutput:
    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["args"]))
    def test_text_report(self, capsys, case):
        code, out, err = invoke(capsys, "compute", *case["args"])
        assert (code, err) == (EXIT_OK, "")
        assert out == case["text"]

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["args"]))
    def test_json_document(self, capsys, case):
        code, out, err = invoke(capsys, "compute", *case["args"], "--json")
        assert (code, err) == (EXIT_OK, "")
        assert out == dump_json(case["json"])


class TestGoldenTables:
    @pytest.mark.parametrize("case", TABLE_GOLDEN, ids=lambda c: " ".join(c["args"]))
    def test_table_stdout(self, capsys, case):
        code, out, err = invoke(capsys, *case["args"])
        assert (code, err) == (EXIT_OK, "")
        assert out.count("\n") == case["lines"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


class TestGoldenVerify:
    def test_verify_all_stdout(self, capsys):
        # every suite's rows, the oracle's among them, byte for byte
        code, out, err = invoke(capsys, "verify", "all")
        assert (code, err) == (EXIT_OK, "")
        assert out.count("\n") == 435
        assert out.endswith("428/428 passed, 0 failed\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5c8b0414b85002a832ff4ac56b61dc6b40a02e66fc3390fa91a0eb90b2323c18"
        )


def _golden_id(case):
    return " ".join(
        a if isinstance(a, str) else json.dumps(a, separators=(",", ":"))
        for a in case["args"]
    )


class TestGoldenOracle:
    @pytest.mark.parametrize("case", ORACLE_GOLDEN, ids=_golden_id)
    def test_oracle_output(self, capsys, tmp_path, case):
        path = tmp_path / "ring.json"
        args = []
        for arg in case["args"]:
            if isinstance(arg, dict):
                path.write_text(json.dumps(arg))
                arg = str(path)
            args.append(arg)
        code, out, err = invoke(capsys, *args)
        assert code == case["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
        assert hashlib.sha256(err.encode()).hexdigest() == case["stderr_sha256"], err


def _stdlib_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _outcome(write, doc):
    """What write returns for doc, or the type and text of the error it raises."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# every character json escapes: quotes, backslashes, control characters,
# non-ASCII ones and lone surrogates
_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x7f'))
_PLAIN_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.builds(
        int.__mul__, st.integers(10**299, 10**300 - 1), st.sampled_from([1, -1])
    )
    | _TEXT
)


def _containers(keys):
    def extend(children):
        lists = st.lists(children, max_size=4)
        return lists | lists.map(tuple) | st.dictionaries(keys, children, max_size=4)

    return extend


# trees of the types dump_json writes itself before Python 3.13
_PLAIN_TREES = st.recursive(_PLAIN_LEAVES, _containers(_TEXT), max_leaves=30)
# trees that may hold what it hands to json.dumps: floats, int keys, and
# dicts that mix int and str keys, which json.dumps cannot sort
_ANY_TREES = st.recursive(
    _PLAIN_LEAVES | st.floats(), _containers(_TEXT | st.integers()), max_leaves=30
)


class TestDumpJson:
    """dump_json prints what json.dumps(doc, indent=2, sort_keys=True) does,
    plus a newline: the same bytes, or the same error."""

    def test_golden_documents(self):
        docs = [case["json"] for case in GOLDEN] + GOLDEN + ORACLE_GOLDEN
        docs += [a for c in ORACLE_GOLDEN for a in c["args"] if isinstance(a, dict)]
        for doc in docs:
            assert dump_json(doc) == _stdlib_json(doc)

    @settings(max_examples=300, deadline=None)
    @given(_PLAIN_TREES)
    def test_plain_trees(self, doc):
        assert dump_json(doc) == _stdlib_json(doc)
        # the writer itself, on every Python version, with no fallback
        out = []
        cli._write(doc, "\n", out)
        assert "".join(out) + "\n" == _stdlib_json(doc)

    @settings(max_examples=300, deadline=None)
    @given(_ANY_TREES)
    def test_any_trees(self, doc):
        assert _outcome(dump_json, doc) == _outcome(_stdlib_json, doc)

    def test_errors_are_json_dumps_errors(self):
        loop = []
        loop.append(loop)
        for doc, error in (
            ({1, 2}, TypeError),
            ({"a": [1, {"b": {3}}]}, TypeError),
            ({"a": 1, 2: "b"}, TypeError),
            ({"a": loop}, ValueError),
        ):
            ours = _outcome(dump_json, doc)
            assert ours == _outcome(_stdlib_json, doc)
            assert ours[0] is error
        # past sys.get_int_max_str_digits() both raise the same ValueError
        huge = [10**5000]
        assert _outcome(dump_json, huge) == _outcome(_stdlib_json, huge)


def _usage_id(case):
    return " ".join(case["args"]) or "(empty)"


class TestGoldenUsage:
    @pytest.mark.parametrize("case", USAGE_GOLDEN["cases"], ids=_usage_id)
    def test_exit_code(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        code, _, _ = invoke(capsys, *case["args"])
        assert code == case["exit"]

    @pytest.mark.skipif(
        "%d.%d" % sys.version_info[:2] != USAGE_GOLDEN["python"],
        reason=f"hashes recorded with Python {USAGE_GOLDEN['python']}",
    )
    @pytest.mark.parametrize("case", USAGE_GOLDEN["cases"], ids=_usage_id)
    def test_output(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = invoke(capsys, *case["args"])
        assert code == case["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"], out
        assert hashlib.sha256(err.encode()).hexdigest() == case["stderr_sha256"], err



def _commands(parser):
    (action,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return list(action.choices)


def _through_whole_tree(argv):
    """The reference for run(): one parse through the whole tree of
    build_parser(), then the dispatch."""
    try:
        args = build_parser().parse_args(argv)
        return cli._COMMANDS[args.command][2](args)
    except cli._HelpShown:
        return EXIT_OK
    except tuple(cli._EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for cls, c in cli._EXIT_CODES.items() if isinstance(exc, cls))


def _parsers_built(monkeypatch, argv):
    """The prog of every _ArgumentParser that run(argv) constructs."""
    progs = []
    init = cli._ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", spy)
    run(argv)
    return progs


class TestParserPerCommand:
    def test_named_command_alone(self, capsys, monkeypatch):
        assert _commands(build_parser()) == ["compute", "oracle", "table", "verify"]
        assert _parsers_built(monkeypatch, ["oracle", "--zmod", "2"]) == ["sl2ab oracle"]
        assert capsys.readouterr().out.startswith("ring: Z/2")
        argv = ["table", "z-inv-n", "3"]
        assert _parsers_built(monkeypatch, argv) == ["sl2ab table z-inv-n"]
        assert capsys.readouterr().out.endswith("   3    no   yes  Z/4\n")

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["compute", "--rational", "--invert", "7"], 1),
            (["compute", "--quadratic", "5", "--json"], 1),
            (["oracle", "--zmod", "4", "--compare"], 1),
            (["verify", "z-inv-n"], 1),
            (["verify", "nosuch"], 1),
            (["table", "z-inv-n", "6"], 1),
            (["table", "quadratic", "2", "7"], 1),
            (["table", "quadratic", "-h"], 1),
            (["table", "-h"], 4),
            (["table", "nosuch"], 4),
            (["compute", "--help"], 1),
            (["--help"], 8),
            ([], 8),
            (["nonsense"], 8),
        ],
        ids=lambda v: (" ".join(v) or "(empty)") if isinstance(v, list) else None,
    )
    def test_parsers_per_run(self, capsys, monkeypatch, argv, count):
        # a named command builds its own parser, and a named table kind its
        # own alone; table without a kind builds its parser and its three
        # kinds', and only help, an empty or an unknown command line builds
        # the root, its four commands and table's three kinds
        assert len(_parsers_built(monkeypatch, argv)) == count

    @pytest.mark.parametrize(
        "argv",
        [
            *(case["args"] for case in USAGE_GOLDEN["cases"]),
            ["oracle", "--zmod", "4", "--nope"],
            ["table", "quadratic", "2", "5", "--nope"],
            ["table", "quadratic", "2"],
            ["table", "cyclotomic", "x"],
            ["table", "quadratic", "-h"],
            ["compute", "--json"],
            ["compute", "--extra-s-primes", "2"],
            ["table"],
            ["table", "z-inv-n", "-h"],
            ["table", "nosuch"],
            ["verify", "z-inv-n", "extra"],
            ["compute", "--rational", "--invert", "7"],
            ["--", "compute", "--rational", "--invert", "7"],
        ],
        ids=lambda argv: " ".join(argv) or "(empty)",
    )
    def test_same_text_as_every_command_built(self, capsys, monkeypatch, argv):
        # on any Python: what run() prints with one command's parser is what
        # a parse through the whole tree and a dispatch print
        monkeypatch.setenv("COLUMNS", "80")
        expected = _through_whole_tree(argv), *capsys.readouterr()
        assert invoke(capsys, *argv) == expected

    def test_help_returns_zero(self, capsys):
        # help is an exit code like any other outcome, not a SystemExit
        for argv in (["--help"], ["-h"], ["compute", "--help"], ["table", "z-inv-n", "-h"]):
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (EXIT_OK, "")
            assert out.startswith("usage: sl2ab")

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        # the console-script path: main() calls run() with no argv
        argv = ["sl2ab", "compute", "--rational", "--invert", "7"]
        monkeypatch.setattr(sys, "argv", argv)
        assert run() == EXIT_OK
        assert capsys.readouterr().out.endswith("group: Z/12  (= Z/3 + Z/4)\n")
        monkeypatch.setattr(sys, "argv", ["sl2ab", "nonsense"])
        assert run() == EXIT_USAGE
        assert "nonsense" in capsys.readouterr().err


def _poly_arg(coeffs):
    return "--poly=" + ",".join(map(str, coeffs))


# a run of one character, named by its length in test ids
_RUN = re.compile(r"(.)\1{19,}")


def _zmodpk_ring(p, k):
    return {"factors": [{"kind": "zmodpk", "p": p, "k": k}]}


def _polyquot_ring(p, k, h):
    return {"factors": [{"kind": "polyquot", "p": p, "k": k, "h": h}]}


def _invoke_with_rings(capsys, tmp_path, argv):
    """invoke(), with each ring document in argv passed as a file."""
    path = tmp_path / "ring.json"
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
            arg = str(path)
        args.append(arg)
    return invoke(capsys, *args)


class TestInputLimits:
    """Integers that reach trial division are bounded: one past the limit
    exits 4 at once instead of running for minutes.  So are the exponents
    of an oracle ring, whose order would otherwise be too large to print,
    the degree and coefficients of a --poly input, and the number of
    --invert integers."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--quadratic", "1000000000000000003"),
            ("compute", "--cyclotomic", "1000000007"),
            ("compute", "--function-field", "1000000000000000003"),
            ("compute", "--rational", "--invert", "1000000000000000003"),
            ("compute", "--rational", "--invert", "6,1000000000001"),
            ("table", "quadratic", "2", "1000000000001"),
            ("table", "cyclotomic", "1000001"),
            ("oracle", "--zmod", str(2**61 - 1)),
            ("oracle", "--ring", {"zmod": 2**61 - 1}),
            ("oracle", "--ring", _zmodpk_ring(2**61 - 1, 1)),
            ("oracle", "--ring", _zmodpk_ring(2, 20000)),
            ("oracle", "--ring", _zmodpk_ring(2, 10**9)),
            ("table", "z-inv-n", "1000000000001"),
            # --poly: degree past 64, a coefficient past 10^40
            ("compute", _poly_arg([2] + [0] * 64 + [1])),
            ("compute", _poly_arg([2] + [0] * 399 + [1])),
            ("compute", _poly_arg([1, 10**40 + 1, 1])),
            ("compute", _poly_arg([-(10**40) - 1, 0, 0, 1])),
            ("compute", _poly_arg([10**3999] * 20 + [1])),
            # ... checked before whether it is monic
            ("compute", _poly_arg([7] * 5000 + [2])),
            ("compute", _poly_arg([1, 10**40 + 1, 2])),
            # --invert: more than 32 integers, each of them factored
            ("compute", "--rational", "--invert", ",".join(["999999999989"] * 33)),
            ("compute", "--rational", "--invert", ",".join(["999999999989"] * 100)),
            # values of thousands of digits, named by their digit count
            ("compute", _poly_arg([-int("1" * 4000), 1])),
            ("compute", "--quadratic", "1" * 4000),
            ("oracle", "--zmod", "1" * 4000),
            ("compute", "--rational", "--extra-s-primes", "9" * 4000),
            ("compute", "--quadratic=5", "--extra-s-primes=1000000000001"),
            # k * deg h has 4301 digits, past Python's limit for printing an int
            ("oracle", "--ring", _polyquot_ring(2, 10**4299, [0] * 10 + [1])),
        ],
    )
    def test_exit_4_in_under_a_second(self, capsys, tmp_path, argv):
        start = time.perf_counter()
        code, out, err = _invoke_with_rings(capsys, tmp_path, argv)
        elapsed = time.perf_counter() - start
        assert code == EXIT_USAGE
        assert out == ""
        assert "must be at most" in err
        assert len(err.encode()) < 200 and err.count("\n") == 1, err
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    # a value far below a lower bound is named by its digit count or length
    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "--zmod=12", "--cap=-" + "9" * 4000),
            ("table", "quadratic", "-" + "9" * 4000, "5"),
            ("table", "quadratic", "5", "-" + "9" * 4000),
            ("table", "cyclotomic", "-" + "9" * 4000),
            ("table", "z-inv-n", "-" + "9" * 4000),
            ("compute", "--rational", "--invert=-" + "9" * 4000),
            ("oracle", "--zmod=-" + "9" * 4000),
            ("oracle", "--ring", {"zmod": -(10**4000)}),
            ("oracle", "--ring", _polyquot_ring(2, -(10**4000), [1])),
            ("oracle", "--ring", _polyquot_ring(2, 1, [0] * 100000)),
        ],
        ids=[
            "oracle --cap",
            "table quadratic d_min",
            "table quadratic d_max",
            "table cyclotomic",
            "table z-inv-n",
            "compute --invert",
            "oracle --zmod",
            "ring zmod",
            "ring k",
            "ring h",
        ],
    )
    def test_lower_bound_refusal_is_one_short_line(self, capsys, tmp_path, argv):
        code, out, err = _invoke_with_rings(capsys, tmp_path, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert len(err.encode()) < 200 and err.count("\n") == 1, err[:200]

    def test_inputs_at_the_limits_still_compute(self, capsys):
        for argv in (
            _poly_arg([2] + [0] * 63 + [1]),  # x^64 + 2, Eisenstein at 2
            _poly_arg([1, 10**40, 1]),
            _poly_arg([1, -(10**40), 1]),
        ):
            code, out, err = invoke(capsys, "compute", argv)
            assert (code, err) == (EXIT_OK, ""), argv
            assert out.startswith("field: Q[x]/(x^")
        code, out, err = invoke(
            capsys, "compute", "--rational", "--invert", ",".join(["35"] * 32)
        )
        assert (code, err) == (EXIT_OK, "")
        assert "2 other inverted prime(s)" in out
        code, out, err = invoke(
            capsys, "compute", "--rational", "--extra-s-primes", "1000000000000"
        )
        assert (code, err) == (EXIT_OK, "")
        assert "1000000000000 other inverted prime(s)" in out
        code, _, err = invoke(
            capsys, "compute", "--rational", "--invert", ",".join(["35"] * 33)
        )
        assert code == EXIT_USAGE
        assert err == "error: |number of integers| must be at most 32, got 33\n"

    def test_poly_past_the_shown_length_is_named_by_its_degree(self, capsys):
        # degree 64 with coefficients of up to 40 digits, within the limits
        a, b = 10**19 + 3, 10**20 + 7
        # (x^32 + a)(x^32 + b)
        reducible = [a * b] + [0] * 31 + [a + b] + [0] * 31 + [1]
        code, out, err = invoke(capsys, "compute", _poly_arg(reducible))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: a polynomial of degree 64 is reducible over Q and does not "
            "define a field\n"
        )
        # Eisenstein at 5, and x^64 mod 2 with every other coefficient
        # divisible by 4: not maximal at 2
        eisenstein = [20] + [20 * (10**38 + 1)] * 63 + [1]
        code, out, err = invoke(capsys, "compute", _poly_arg(eisenstein))
        assert (code, out) == (EXIT_NOT_MAXIMAL, "")
        assert err.startswith(
            "error: Z[x]/(a polynomial of degree 64) is not maximal at 2 "
            "(Dedekind criterion obstruction: x); "
        )
        assert err.count("\n") == 1 and len(err.encode()) < 300, err

    def test_short_poly_messages_are_unchanged(self, capsys):
        for arg, expected in (
            ("--poly=2,3", "need a monic polynomial of degree >= 1: IntPoly([2, 3])"),
            (
                "--poly=2,0,3,0,1",
                "x^4+3x^2+2 is reducible over Q and does not define a field",
            ),
        ):
            code, out, err = invoke(capsys, "compute", arg)
            assert (code, out, err) == (EXIT_USAGE, "", f"error: {expected}\n")

    @pytest.mark.parametrize(
        "coefficient", ["1" * 5000, "x" * 5000], ids=["digits", "text"]
    )
    def test_unreadable_coefficient_gives_a_short_error(self, capsys, coefficient):
        # 5000 digits is past Python's 4300-digit limit for reading an int
        code, out, err = invoke(capsys, "compute", _poly_arg([coefficient, 0, 1]))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: bad polynomial coefficient of 5000 characters\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # argparse: invalid int value, 5000 digits being past the parse limit
            ("compute", "--quadratic", "1" * 5000),
            ("compute", "--rational", "--extra-s-primes", "1" * 5000),
            ("oracle", "--zmod", "4", "--cap", "1" * 5000),
            ("table", "cyclotomic", "1" * 5000),
            # argparse: invalid choice and unrecognized arguments
            ("verify", "x" * 5000),
            ("x" * 5000,),
            ("table", "x" * 5000),
            ("compute", "--quadratic", "5", "x" * 5000),
            # the CLI's own parsers, and the removal index checked by compute
            ("compute", "--rational", "--invert", "1" * 5000),
            ("compute", "--rational", "--remove-prime", "2:" + "1" * 5000),
            ("compute", "--rational", "--remove-prime", "1" * 4000 + ":0"),
            ("compute", "--rational", "--remove-prime", "2:" + "1" * 4000),
        ],
        ids=lambda argv: _RUN.sub(lambda m: f"<{len(m[0])}>", " ".join(argv)),
    )
    def test_usage_error_names_a_long_value_by_its_length(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ")
        assert len(err.encode()) < 200 and err.count("\n") == 1, err


class TestOracleCommand:
    def test_zmod_with_compare(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--zmod", "6", "--compare")
        assert code == EXIT_OK
        assert "ring: Z/2 x Z/3 (order 6)" in out
        assert "|SL2(R)| = 144" in out
        assert "abelianization: Z/6" in out
        assert "comparison: matches the local-ring formula" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys, "oracle", "--zmod", "4", "--compare", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert dump_json(doc) == out
        assert doc["ring_order"] == 4
        assert doc["sl2_order"] == 48
        assert doc["group"] == {"free_rank": 0, "invariant_factors": [4]}
        assert doc["compare"]["match"] is True

    def test_sl2_is_counted_not_listed(self, capsys, monkeypatch):
        # the request walks the orbit of e1 on the unimodular columns only:
        # the lazy list of SL2(R) is never pulled
        def refuse(ring):
            raise AssertionError("SL2(R) listed")
            yield

        monkeypatch.setattr(oracle.FiniteRing, "sl2_elements", refuse)
        code, out, err = invoke(capsys, "oracle", "--zmod", "12", "--compare", "--json")
        assert (code, err) == (EXIT_OK, "")
        group = {"free_rank": 0, "invariant_factors": [12]}
        assert out == dump_json(
            {
                "compare": {"formula_group": group, "match": True},
                "group": group,
                "ring": {
                    "factors": [
                        {"k": 2, "kind": "zmodpk", "p": 2},
                        {"k": 1, "kind": "zmodpk", "p": 3},
                    ]
                },
                "ring_order": 12,
                "sl2_order": 1152,
            }
        )

    def test_ring_file(self, capsys, tmp_path):
        path = tmp_path / "f4.json"
        path.write_text(
            json.dumps({"factors": [{"kind": "polyquot", "p": 2, "h": [1, 1, 1]}]})
        )
        code, out, _ = invoke(capsys, "oracle", "--ring", str(path), "--compare")
        assert code == EXIT_OK
        assert "ring: F_2[x]/(x^2+x+1) (order 4)" in out
        assert "abelianization: 0" in out
        path2 = tmp_path / "z9.json"
        path2.write_text(json.dumps({"zmod": 9}))
        code, out, _ = invoke(capsys, "oracle", "--ring", str(path2))
        assert code == EXIT_OK
        assert "|SL2(R)| = 648" in out

    def test_ring_file_errors(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "oracle", "--ring", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE
        assert "cannot read ring spec file" in err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = invoke(capsys, "oracle", "--ring", str(bad))
        assert code == EXIT_USAGE
        assert "not valid JSON" in err
        bad.write_bytes(b'\xff{"zmod": 6}')  # not UTF-8
        code, out, err = invoke(capsys, "oracle", "--ring", str(bad))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ring spec file is not valid JSON: "), err
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({"factors": [{"kind": "zmodpk"}]}))
        code, _, err = invoke(capsys, "oracle", "--ring", str(malformed))
        assert code == EXIT_USAGE
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"factors": [{"kind": "mystery"}]}))
        code, _, err = invoke(capsys, "oracle", "--ring", str(unknown))
        assert code == EXIT_USAGE
        # wrong JSON types are refused before any table is built: no traceback,
        # and no float or bool read as an integer
        for doc in (
            {"factors": [1]},
            {"factors": {"a": 1}},
            {"zmod": 12.5},
            {"factors": [{"kind": "zmodpk", "p": 2.0, "k": 1}]},
            {"factors": [{"kind": "zmodpk", "p": 2, "k": 2.0}]},
            {"factors": [{"kind": "zmodpk", "p": 2, "k": True}]},
            {"factors": [{"kind": "polyquot", "p": 2, "h": [1, 1.5, 1]}]},
            # keys the reader does not read
            {"zmod": 6, "factors": [{"kind": "zmodpk", "p": 2, "k": 3}]},
            {"factors": [{"kind": "zmodpk", "p": 2, "k": 2, "h": [1, 1, 1]}]},
            {"factors": [{"kind": "zmodpk", "p": 2, "k": 2}], "order": 4},
        ):
            malformed.write_text(json.dumps(doc))
            code, out, err = invoke(capsys, "oracle", "--ring", str(malformed))
            assert (code, out) == (EXIT_USAGE, ""), doc
            assert err.startswith("error: malformed ring spec"), doc
        # a long value is named by its length, not echoed
        for doc in (
            {"factors": [{"kind": "polyquot", "p": 2, "h": [0.5] * 100000}]},
            {"zmod": "x" * 100000},
            {"factors": [{"kind": "x" * 100000}]},
        ):
            malformed.write_text(json.dumps(doc))
            code, out, err = invoke(capsys, "oracle", "--ring", str(malformed))
            assert (code, out) == (EXIT_USAGE, "")
            assert err.count("\n") == 1 and len(err.encode()) < 200, err[:200]

    def test_budget_exit(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--zmod", "20")
        assert code == EXIT_BUDGET
        assert "exceeds the enumeration cap 16" in err
        code, _, err = invoke(capsys, "oracle", "--zmod", "4", "--cap", "0")
        assert code == EXIT_USAGE

    def test_construction_cap(self, capsys, monkeypatch):
        # --cap raises the enumeration cap only: past order 1024 no ring is
        # built, whatever the cap
        def refuse(factor):
            raise AssertionError("ring tables built")

        monkeypatch.setattr(oracle, "_factor_tables", refuse)
        code, out, err = invoke(capsys, "oracle", "--zmod", "1031", "--cap", "2000")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == "error: ring of order 1031 exceeds the construction cap 1024\n"

    def test_budget_is_checked_before_the_ring_tables(self, capsys, monkeypatch):
        # building the tables of a ring of order 1000 would take seconds
        def refuse(factor):
            raise AssertionError("ring tables built")

        monkeypatch.setattr(oracle, "_factor_tables", refuse)
        code, _, err = invoke(capsys, "oracle", "--zmod", "1000")
        assert code == EXIT_BUDGET
        assert err == (
            "error: ring order 1000 exceeds the enumeration cap 16 (the SL2 "
            "orbit takes about 1000^2 = 1000000 steps); raise the cap explicitly "
            "to override\n"
        )

    @pytest.mark.parametrize("n, group", [(1000, "Z/4"), (1008, "Z/12")])
    def test_large_zmod_is_read_by_factors(self, capsys, n, group):
        # the orbits of Z/8 and Z/125, or of Z/16, Z/9 and Z/7, are walked,
        # not that of Z/n, within the budget of the large-ring oracle tests
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "oracle", "--zmod", str(n), "--cap", str(n), "--compare"
        )
        elapsed = time.perf_counter() - start
        assert (code, err) == (EXIT_OK, "")
        assert f"abelianization: {group}\n" in out
        assert "comparison: matches the local-ring formula" in out
        assert elapsed < 3.0, f"took {elapsed:.2f}s"

    def test_certificate_failure_refuses(self, capsys, monkeypatch):
        # with the independent count of SL2(R) one too large in each factor,
        # the command fails on the first factor's certificate instead of
        # printing a group
        count = oracle.FiniteRing.sl2_order.func
        monkeypatch.setattr(
            oracle.FiniteRing, "sl2_order", property(lambda ring: count(ring) + 1)
        )
        with pytest.raises(RuntimeError, match="generate"):
            run(["oracle", "--zmod", "6"])
        assert capsys.readouterr().out == ""

    def test_one_ring_per_request(self, capsys, monkeypatch):
        # the tables of each factor are built once, and nothing is kept
        built = []
        factor_tables = oracle._factor_tables

        def counted(factor):
            built.append(factor)
            return factor_tables(factor)

        monkeypatch.setattr(oracle, "_factor_tables", counted)
        code, out, _ = invoke(capsys, "oracle", "--zmod", "12", "--compare")
        assert code == EXIT_OK
        assert "abelianization: Z/12" in out
        assert built == list(oracle.FiniteRingSpec.zmod(12).factors)
        assert not [
            name
            for name, value in vars(oracle).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
            and value
        ]


class TestTableCommand:
    def test_quadratic(self, capsys):
        code, out, _ = invoke(capsys, "table", "quadratic", "2", "20")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["d", "d", "mod", "24", "group"]
        assert any("(skipped: not squarefree)" in line for line in lines)
        assert any(line.split()[:2] == ["17", "17"] and "Z/4 + Z/4" in line for line in lines)
        code, _, err = invoke(capsys, "table", "quadratic", "5", "2")
        assert code == EXIT_USAGE
        code, _, err = invoke(capsys, "table", "quadratic", "1", "5")
        assert code == EXIT_USAGE

    def test_cyclotomic(self, capsys):
        code, out, _ = invoke(capsys, "table", "cyclotomic", "12")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 13  # header + N = 1..12
        assert any(
            line.split() == ["8", "4", "Z/2", "+", "Z/2"]
            for line in out.splitlines()
        )
        code, _, _ = invoke(capsys, "table", "cyclotomic", "0")
        assert code == EXIT_USAGE

    def test_z_inv_n(self, capsys):
        code, out, _ = invoke(capsys, "table", "z-inv-n", "12")
        assert code == EXIT_OK
        assert any(
            line.split() == ["6", "yes", "yes", "0"] for line in out.splitlines()
        )
        assert any(
            line.split() == ["5", "no", "no", "Z/12"] for line in out.splitlines()
        )
        code, _, _ = invoke(capsys, "table", "z-inv-n", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("quadratic", "2", "1000000000000"),
            ("quadratic", "2", str(TABLE_ROW_LIMIT + 2)),
            ("cyclotomic", "1000000"),
            ("cyclotomic", str(TABLE_ROW_LIMIT + 1)),
            ("z-inv-n", "1000000000000"),
            ("z-inv-n", str(TABLE_ROW_LIMIT + 2)),
        ],
    )
    def test_row_budget_exits_5_before_the_header(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "table", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        assert out == ""
        assert f"past the row budget {TABLE_ROW_LIMIT}" in err

    def test_row_budget_holds_the_longest_golden_table(self):
        assert TABLE_ROW_LIMIT == 100_000
        assert max(entry["lines"] for entry in TABLE_GOLDEN) - 1 <= TABLE_ROW_LIMIT


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "product-lemma")
        assert code == EXIT_OK
        assert out.startswith("suite product-lemma:\n")
        assert "  PASS " in out
        assert ", 0 failed" in out

    def test_unknown_suite(self, capsys):
        code, _, err = invoke(capsys, "verify", "bogus")
        assert code == EXIT_USAGE
        assert err.startswith("error: ")


class TestEntryPoint:
    def test_public_names_resolve(self):
        import sl2ab

        assert len(set(sl2ab.__all__)) == len(sl2ab.__all__)
        for name in sl2ab.__all__:
            assert hasattr(sl2ab, name), name

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sl2ab", "compute", "--rational", "--invert", "7"],
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert b"Z/12" in proc.stdout

    @pytest.mark.parametrize(
        "argv, unbuffered",
        [
            # the table is written at once, past the pipe's buffer
            (["table", "quadratic", "2", "100001"], False),
            # each line is written as printed, so a later one meets the closed pipe
            (["verify", "all"], True),
        ],
        ids=["table", "verify"],
    )
    def test_closed_pipe_exits_141_without_traceback(self, argv, unbuffered):
        # the reader takes one line and closes the pipe, as `| head -1` does
        env = dict(os.environ, PYTHONUNBUFFERED="1" if unbuffered else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "sl2ab", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_CLOSED_PIPE == 141
        assert first.strip() and b"Traceback" not in err
        assert err == b""

    def test_verify_all_standard_library_only(self):
        # -S leaves site-packages off the path, so the suites can only pass
        # if the package imports nothing outside the standard library
        code = (
            "import sys; sys.path.insert(0, 'src'); from sl2ab.cli import run; "
            "raise SystemExit(run(['verify', 'all']))"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            cwd=Path(__file__).resolve().parent.parent,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(" passed, 0 failed\n")

    def test_exit_code_constants(self):
        assert (
            EXIT_OK,
            EXIT_MISMATCH,
            EXIT_PRECONDITION,
            EXIT_NOT_MAXIMAL,
            EXIT_USAGE,
            EXIT_BUDGET,
        ) == (0, 1, 2, 3, 4, 5)
