"""Command-line front end.

Subcommands: `compute` (structure formulas for a field form plus S), `oracle`
(brute-force enumeration over a small finite ring), `table` (classification
tables over a range), and `verify` (cross-validation suites).

`run(argv)` executes one command line in process and returns its exit code,
for a help request too.
A command line that names a command costs one parser, that command's alone,
and `table <kind>` costs one, that kind's alone.  `table` with no kind, with
help or with an unknown kind builds table's parser and one per table kind; the
root help, an empty command line or an unknown command builds the whole tree,
so that their text lists every command.

Exit codes: 0 success; 1 a verification or comparison found a mismatch;
2 theorem precondition failure (finite unit group with no known case);
3 the polynomial order is not maximal at 2 or 3; 4 usage or validation error;
5 budget exceeded.  main() also exits 141 (128 + SIGPIPE), with no traceback,
when the reader of standard output closes it early, as `| head -1` does.

`--json` prints exactly `json.dumps(doc, indent=2, sort_keys=True)` plus a
newline.  dump_json writes it by its own code before Python 3.13, where json's
indent encoder is pure Python and twice as slow, and calls json.dumps from
3.13 on, where json's C encoder takes `indent`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .abgroup import direct_sum
from .oracle import (
    DEFAULT_RING_CAP,
    BudgetExceededError,
    FiniteRingSpec,
    prop_local_formula,
    sl2ab_by_factors,
)
from .polyarith import (
    INTEGER_LIMIT,
    SHOWN_LENGTH,
    IntPoly,
    brief,
    check_limit,
    squarefree_sieve,
)
from .splitting import (
    CYCLOTOMIC_LIMIT,
    Cyclotomic,
    FieldSpec,
    GeneralPoly,
    NotPMaximalError,
    Quadratic,
    Rational,
    RationalFunction,
    quadratic_splits,
)
from .theorems import (
    EMPTY_S,
    ComputeOutcome,
    FiniteUnitsError,
    SSet,
    compute,
    s_for_inverted,
)
from .verify import SUITES

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PRECONDITION = 2
EXIT_NOT_MAXIMAL = 3
EXIT_USAGE = 4
EXIT_BUDGET = 5
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process it killed

# rows a `table` command may print, so that every table ends within seconds
TABLE_ROW_LIMIT = 100_000


class CliError(Exception):
    """Usage or validation error at the command layer (exit code 4)."""


class _HelpShown(Exception):
    """argparse printed the help a command line asked for (exit code 0)."""


# a refused value as argparse echoes it: quoted after ": " (invalid int
# value, invalid choice) or bare (unrecognized arguments)
_ECHOED = re.compile(
    rf":? '([^']{{{SHOWN_LENGTH + 1},}})'|:? ([^\s']{{{SHOWN_LENGTH + 1},}})"
)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide with the
    # precondition-failure exit code; raise instead and map to 4 in run().
    # A long refused value is named by its length, not echoed.
    def error(self, message: str):  # type: ignore[override]
        raise CliError(_ECHOED.sub(lambda m: " " + brief(m[1] or m[2]), message))

    # -h/--help exits after printing; run() returns 0 instead
    def exit(self, status: int = 0, message: str | None = None):  # type: ignore[override]
        raise _HelpShown


def dump_json(obj) -> str:
    """The one JSON serialization used everywhere: stable keys, 2-space
    indent, trailing newline, so emitted documents round-trip byte-identically.

    Returns exactly `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, bytes
    and errors alike.  Before Python 3.13 json writes an indented document in
    pure Python, and `_write` does it in about half the time: it writes a
    tree of dicts with str keys, lists, tuples, str, int, bool and None, and
    hands any other document (a float, a non-str key, a subclass, a cycle) to
    json.dumps.  From 3.13 on json's C encoder takes `indent` and is faster
    than `_write`, so json.dumps writes every document."""
    if sys.version_info < (3, 13):
        out: list[str] = []
        try:
            _write(obj, "\n", out)
        except (TypeError, RecursionError):
            pass  # json.dumps writes the document, or raises its own error
        else:
            out.append("\n")
            return "".join(out)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# json's own C function for a str, as json.dumps calls it (ensure_ascii)
_quote = json.encoder.encode_basestring_ascii


def _write(obj, newline: str, out: list[str]) -> None:
    """Append the pieces of json.dumps(obj, indent=2, sort_keys=True) to out,
    `newline` being the line break and indent before obj's own closing bracket;
    raise TypeError on a value whose type is not exactly one of those above."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict and obj:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):  # mixed key types raise TypeError here
            if type(key) is not str:
                raise TypeError
            out.append(sep + _quote(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif (kind is list or kind is tuple) and obj:
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        out.append("{}")
    elif kind is list or kind is tuple:
        out.append("[]")
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    else:
        raise TypeError


def build_parser() -> argparse.ArgumentParser:
    """The root parser with the subparser of every command.  A subparser reads
    as the command's own parser does in run(): its prog is "sl2ab <command>"."""
    parser = _ArgumentParser(
        prog="sl2ab",
        description=(
            "Abelianization of SL2 over rings of S-integers, determined by "
            "the splitting of 2 and 3."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _compute_arguments(p_compute: argparse.ArgumentParser) -> None:
    which = p_compute.add_mutually_exclusive_group(required=True)
    which.add_argument("--rational", action="store_true", help="the field Q")
    which.add_argument(
        "--quadratic", type=int, metavar="D", help="Q(sqrt(D)), squarefree D"
    )
    which.add_argument("--cyclotomic", type=int, metavar="N", help="Q(zeta_N)")
    which.add_argument(
        "--poly",
        metavar="C0,C1,...",
        help="Q[x]/(f) for monic f with these coefficients, constant term first",
    )
    which.add_argument(
        "--function-field",
        type=int,
        metavar="Q",
        help="the rational function field F_Q(t), Q a prime power",
    )
    p_compute.add_argument(
        "--invert",
        metavar="N1,N2,...",
        help="(--rational only) put the prime divisors of these integers in S",
    )
    p_compute.add_argument(
        "--remove-prime",
        action="append",
        default=[],
        metavar="P:IDX",
        help="put the IDX-th printed prime above P in S (P is 2 or 3); "
        "repeatable, comma-separable",
    )
    p_compute.add_argument(
        "--extra-s-primes",
        type=int,
        default=0,
        metavar="K",
        help="count K further inverted primes not above 2 or 3",
    )
    p_compute.add_argument("--json", action="store_true", help="emit a JSON report")


def _oracle_arguments(p_oracle: argparse.ArgumentParser) -> None:
    ring = p_oracle.add_mutually_exclusive_group(required=True)
    ring.add_argument("--zmod", type=int, metavar="N", help="the ring Z/N")
    ring.add_argument(
        "--ring", metavar="FILE", help="path to a JSON ring description"
    )
    p_oracle.add_argument(
        "--compare",
        action="store_true",
        help="compare against the local-ring formula (per factor)",
    )
    p_oracle.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_RING_CAP,
        metavar="B",
        help=f"ring-order budget, about B^2 steps (default {DEFAULT_RING_CAP})",
    )
    p_oracle.add_argument("--json", action="store_true", help="emit a JSON report")


def _table_arguments(p_table: argparse.ArgumentParser) -> None:
    tsub = p_table.add_subparsers(dest="table_kind", required=True, metavar="kind")
    for kind, (help_text, add_arguments) in _TABLE_KINDS.items():
        add_arguments(tsub.add_parser(kind, help=help_text))


def _table_range_arguments(p_kind: argparse.ArgumentParser) -> None:
    p_kind.add_argument("d_min", type=int)
    p_kind.add_argument("d_max", type=int)


def _table_bound_argument(p_kind: argparse.ArgumentParser) -> None:
    p_kind.add_argument("n_max", type=int)


# table kind -> (help text, argument builder), in help order
_TABLE_KINDS = {
    "quadratic": ("real quadratic fields by radicand", _table_range_arguments),
    "cyclotomic": ("cyclotomic fields Q(zeta_N)", _table_bound_argument),
    "z-inv-n": ("the rings Z[1/n]", _table_bound_argument),
}


def _verify_arguments(p_verify: argparse.ArgumentParser) -> None:
    p_verify.add_argument("suite", choices=[*SUITES, "all"])


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _parse_int_list(text: str, flag: str) -> list[int]:
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(int(chunk))
        except ValueError:
            raise CliError(f"{flag}: entry {brief(chunk)} is not an integer") from None
    if not out:
        raise CliError(f"{flag}: empty list")
    return out


def _field_from_args(args: argparse.Namespace) -> FieldSpec:
    if args.rational:
        return Rational()
    if args.quadratic is not None:
        return Quadratic(args.quadratic)
    if args.cyclotomic is not None:
        return Cyclotomic(args.cyclotomic)
    if args.poly is not None:
        return GeneralPoly(IntPoly.from_csv(args.poly))
    return RationalFunction(args.function_field)


def _s_from_args(args: argparse.Namespace) -> SSet:
    inverted = EMPTY_S
    if args.invert is not None:
        if not args.rational:
            raise CliError(
                "--invert applies only to --rational; use --remove-prime P:IDX"
            )
        inverted = s_for_inverted(*_parse_int_list(args.invert, "--invert"))
    if args.extra_s_primes < 0:
        shown = brief(args.extra_s_primes)
        raise CliError(f"--extra-s-primes must be >= 0, got {shown}")
    removed = {2: set(inverted.removed_above_2), 3: set(inverted.removed_above_3)}
    other = inverted.other_finite_primes + args.extra_s_primes
    for item in args.remove_prime:
        for part in item.split(","):
            part = part.strip()
            if not part:
                continue
            head, sep, tail = part.partition(":")
            try:
                p, idx = int(head), int(tail)
            except ValueError:
                sep = ""
            if not sep:
                raise CliError(
                    f"--remove-prime: entry {brief(part)} is not of the form P:IDX"
                )
            if p not in removed:
                raise CliError(f"--remove-prime: P must be 2 or 3, got {brief(p)}")
            removed[p].add(idx)
    return SSet(frozenset(removed[2]), frozenset(removed[3]), other)


def _s_str(s: SSet, infinite_places: int) -> str:
    parts = [f"{infinite_places} infinite place(s)"]
    if s.removed_above_2:
        parts.append(f"inverted above 2: indexes {sorted(s.removed_above_2)}")
    if s.removed_above_3:
        parts.append(f"inverted above 3: indexes {sorted(s.removed_above_3)}")
    if s.other_finite_primes:
        parts.append(f"{s.other_finite_primes} other inverted prime(s)")
    if s.finite_count == 0:
        parts.append("no finite primes inverted")
    return "; ".join(parts)


def _print_compute_report(outcome: ComputeOutcome) -> None:
    field, s = outcome.field, outcome.s
    print(f"field: {field}")
    if field.characteristic:
        print(f"characteristic: {field.characteristic} (q = {field.q})")
        print(f"S: {_s_str(s, field.infinite_places)}")
        places = [q for sp in outcome.splittings for q in sp.primes]
        if places:
            print("degree-one places with small residue field:")
            for i, q in enumerate(places):
                print(f"  [{i}] {q.label}: e={q.e}, f={q.f}")
        else:
            print("degree-one places with small residue field: none (q >= 4)")
    else:
        sig = field.signature
        print(f"degree: {field.degree}; signature: ({sig.r1}, {sig.r2})")
        print(f"S: {_s_str(s, sig.infinite_places)}")
        for sp in outcome.splittings:
            print(f"splitting of {sp.p}:")
            for i, q in enumerate(sp.primes):
                print(f"  [{i}] {q.label}: e={q.e}, f={q.f}")
    print(f"route: {outcome.route}")
    if outcome.contributions:
        print("contributions:")
        for c in outcome.contributions:
            print(f"  {c.prime} -> {c.summand}")
    else:
        print("contributions: none")
    for w in outcome.warnings:
        print(f"warning: {w}")
    group_str = str(outcome.group)
    primary = outcome.group.primary_str()
    if primary != group_str:
        print(f"group: {group_str}  (= {primary})")
    else:
        print(f"group: {group_str}")


def _cmd_compute(args: argparse.Namespace) -> int:
    try:
        field = _field_from_args(args)
    except NotPMaximalError:
        _s_from_args(args)  # a usage error in S is reported before the refusal
        raise
    outcome = compute(field, _s_from_args(args))
    if args.json:
        sys.stdout.write(dump_json(outcome.to_json()))
    else:
        _print_compute_report(outcome)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _ring_spec_from_args(args: argparse.Namespace) -> FiniteRingSpec:
    if args.zmod is not None:
        return FiniteRingSpec.zmod(args.zmod)
    try:
        with open(args.ring, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read ring spec file: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"ring spec file is not valid JSON: {exc}") from None
    return FiniteRingSpec.from_json(data)


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.cap < 1:
        raise CliError(f"--cap must be >= 1, got {brief(args.cap)}")
    spec = _ring_spec_from_args(args)
    sl2_order, ab = sl2ab_by_factors(spec, cap=args.cap)
    match = True
    formula = None
    if args.compare:
        formula = direct_sum(*map(prop_local_formula, spec.factors))
        match = formula == ab
    if args.json:
        doc = {
            "ring": spec.to_json(),
            "ring_order": spec.order,
            "sl2_order": sl2_order,
            "group": ab.to_json(),
        }
        if formula is not None:
            doc["compare"] = {"formula_group": formula.to_json(), "match": match}
        sys.stdout.write(dump_json(doc))
    else:
        print(f"ring: {spec.describe()} (order {spec.order})")
        print(f"|SL2(R)| = {sl2_order}")
        print(f"abelianization: {ab}")
        if formula is not None:
            if match:
                print("comparison: matches the local-ring formula")
            else:
                print(
                    f"comparison: MISMATCH, the local-ring formula gives {formula}"
                )
    return EXIT_OK if match else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _check_rows(rows: int) -> None:
    if rows > TABLE_ROW_LIMIT:
        raise BudgetExceededError(
            f"the table would have {rows} rows, past the row budget "
            f"{TABLE_ROW_LIMIT}; print it in ranges of at most that many"
        )


def _cmd_table(args: argparse.Namespace) -> int:
    """Print one classification table.  The quadratic table finds its
    squarefree radicands with one sieve over the range, and it and the z-inv-n
    table compute each distinct splitting, or S-set, once: a later row that
    shares it prints the group stored for the first."""
    if args.table_kind == "quadratic":
        if args.d_min <= 1 or args.d_min > args.d_max:
            bounds = f"{brief(args.d_min)}..{brief(args.d_max)}"
            raise CliError(f"need 1 < d_min <= d_max, got {bounds}")
        check_limit(args.d_max, INTEGER_LIMIT, "d_max")
        _check_rows(args.d_max - args.d_min + 1)
        rows = [f"{'d':>5}  {'d mod 24':>8}  group"]
        # Every row is a real quadratic field with S empty, so its two
        # infinite places open the unit gate, and compute's group then depends
        # on the splittings of 2 and 3 alone.  quadratic_splits returns one of
        # nine pairs built once, so the pair's identity is the splitting.
        groups: dict[int, str] = {}
        squarefree = squarefree_sieve(args.d_min, args.d_max)
        for d, flag in zip(range(args.d_min, args.d_max + 1), squarefree):
            if not flag:
                rows.append(f"{d:>5}  {d % 24:>8}  (skipped: not squarefree)")
                continue
            key = id(quadratic_splits(d))
            group = groups.get(key)
            if group is None:
                group = groups[key] = str(compute(Quadratic(d)).group)
            rows.append(f"{d:>5}  {d % 24:>8}  {group}")
    elif args.table_kind == "cyclotomic":
        if args.n_max < 1:
            raise CliError(f"need N_max >= 1, got {brief(args.n_max)}")
        check_limit(args.n_max, CYCLOTOMIC_LIMIT, "N_max")
        _check_rows(args.n_max)
        rows = [f"{'N':>4}  {'phi(N)':>6}  group"]
        for n in range(1, args.n_max + 1):
            spec = Cyclotomic(n)
            rows.append(f"{n:>4}  {spec.degree:>6}  {compute(spec).group}")
    else:
        if args.n_max < 2:
            raise CliError(f"need n_max >= 2, got {brief(args.n_max)}")
        check_limit(args.n_max, INTEGER_LIMIT, "n_max")
        _check_rows(args.n_max - 1)
        rows = [f"{'n':>4}  {'2|n':>4}  {'3|n':>4}  group"]
        rational = Rational()
        # Every row is Q with a finite prime of n in S, which opens the unit
        # gate, so compute's group depends on S alone.
        groups_by_s: dict[SSet, str] = {}
        for n in range(2, args.n_max + 1):
            s = s_for_inverted(n)
            group = groups_by_s.get(s)
            if group is None:
                group = groups_by_s[s] = str(compute(rational, s).group)
            two = "yes" if n % 2 == 0 else "no"
            three = "yes" if n % 3 == 0 else "no"
            rows.append(f"{n:>4}  {two:>4}  {three:>4}  {group}")
    print("\n".join(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    total = failed = 0
    for name in names:
        print(f"suite {name}:")
        for case in SUITES[name]():
            total += 1
            if case.ok:
                print(f"  PASS {case.name}")
            else:
                failed += 1
                print(f"  FAIL {case.name}: {case.detail}")
    print(f"{total - failed}/{total} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


# command name -> (help text, argument builder, handler), in help order
_COMMANDS = {
    "compute": (
        "compute the abelianization for a field form plus S",
        _compute_arguments,
        _cmd_compute,
    ),
    "oracle": (
        "brute-force the abelianization over a small finite ring",
        _oracle_arguments,
        _cmd_oracle,
    ),
    "table": ("print a classification table", _table_arguments, _cmd_table),
    "verify": ("run a cross-validation suite", _verify_arguments, _cmd_verify),
}


# exception class -> exit code, tried in order
_EXIT_CODES = {
    CliError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
    FiniteUnitsError: EXIT_PRECONDITION,
    NotPMaximalError: EXIT_NOT_MAXIMAL,
    BudgetExceededError: EXIT_BUDGET,
}


def run(argv: list[str] | None = None) -> int:
    """Parse and execute one command line; return the exit code.

    When argv[0] names a command, only that command's parser is built, and
    it reads the rest of argv; when it is `table` and argv[1] names a table
    kind, only that kind's parser is, and it reads what follows the kind.
    Otherwise (help, an empty or an unknown command line) the whole tree is,
    so that help and the invalid-choice error list every command."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in _COMMANDS:
            name, rest, args = argv[0], argv[1:], argparse.Namespace()
            prog, add_arguments = f"sl2ab {name}", _COMMANDS[name][1]
            if name == "table" and rest and rest[0] in _TABLE_KINDS:
                kind, rest = rest[0], rest[1:]
                args.table_kind = kind
                prog, add_arguments = f"{prog} {kind}", _TABLE_KINDS[kind][1]
            parser = _ArgumentParser(prog=prog)
            add_arguments(parser)
            args = parser.parse_args(rest, args)
        else:
            args = build_parser().parse_args(argv)
            name = args.command
        return _COMMANDS[name][2](args)
    except _HelpShown:
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # here, not at exit, so that a closed pipe is caught
    except BrokenPipeError:  # stdout to devnull: the flush at exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    sys.exit(code)
