"""Seeded request pools for the four benchmark workloads, with their references.

Each pool maker returns a Pool: the cli.run argument lists of one pass, each
with the reply the checker expects.  A run sends the same pass again and
again, so every request is timed several times.  Expected values never come from
sl2ab.theorems.compute(): they come from the reference tables in sl2ab.verify
(QUADRATIC_TORSION_BY_RESIDUE, cyclotomic_reference, the Z[1/n] classes,
sl2_order_zmod) and from the paper's per-prime rules, written out here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from sl2ab import verify

# One line per workload on why it exists, as in BENCHMARK.json.
WHY = {
    "cli-requests": (
        "1000 tiny compute --json requests over all field forms, 5% "
        "expected failures: parsing and output dominate; factoring and the "
        "oracle are bypassed"
    ),
    "formula-sweep": (
        "60 table requests of 200-390 rows, every row checked: the "
        "closed-form rules in theorems, splitting and abgroup run thousands "
        "of times per parser built"
    ),
    "poly-split": (
        "compute --poly on Phi_n(x+k) with 4<=phi(n)<=20, quadratics, 10% "
        "exit 3: factor_mod_p at p=3 sets the tail; Phi_23, Phi_35 and the "
        "reducible inputs (known defect, reported apart) left out"
    ),
    "oracle-cold": (
        "oracle --compare on all 24 rings of order 4-12 with caches "
        "emptied, as a new process has them: the commutator closure "
        "dominates; Z/14-Z/16 left out for run length"
    ),
}


@dataclass
class Request:
    argv: list[str]
    # ("group", torsion) | ("exit", code) | ("table", lines) | ("oracle", order, torsion)
    expect: tuple


@dataclass
class Pool:
    requests: list[Request]
    # empty sl2ab.oracle's caches before each request, as a fresh process has them
    cold: bool = False
    # Requests the package is known to answer wrongly.  They are not timed and
    # not counted in the result; each run sends them once after timing and
    # reports how many are still wrong.
    known_defects: list[Request] = field(default_factory=list)


# ---------------------------------------------------------------------------
# reference arithmetic, independent of the package


def squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = 1
    for p, e in prime_factors(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def invariant_factors(factors) -> tuple[int, ...]:
    """Invariant factors (ascending) of the direct sum of Z/f over factors."""
    by_prime: dict[int, list[int]] = {}
    for f in factors:
        for p, e in prime_factors(f).items():
            by_prime.setdefault(p, []).append(p**e)
    for powers in by_prime.values():
        powers.sort(reverse=True)
    depth = max((len(v) for v in by_prime.values()), default=0)
    chain = []
    for level in range(depth):
        d = 1
        for powers in by_prime.values():
            if level < len(powers):
                d *= powers[level]
        chain.append(d)
    return tuple(sorted(chain))


def group_str(torsion: tuple[int, ...]) -> str:
    return " + ".join(f"Z/{d}" for d in torsion) if torsion else "0"


def quadratic_primes(d: int) -> tuple[list[tuple], list[tuple]]:
    """Summand of each prime above 2 and above 3 in Q(sqrt d), in the order
    the package prints them: an unramified degree-one prime above 2 gives Z/4,
    a ramified one Z/2 + Z/2, a degree-one prime above 3 gives Z/3, and an
    inert prime gives nothing."""
    r8, r3 = d % 8, d % 3
    two = [(4,), (4,)] if r8 == 1 else [()] if r8 == 5 else [(2, 2)]
    three = [(3,), (3,)] if r3 == 1 else [()] if r3 == 2 else [(3,)]
    return two, three


def quadratic_torsion(d: int, removed2=(), removed3=()) -> tuple[int, ...]:
    two, three = quadratic_primes(d)
    factors = [f for i, s in enumerate(two) if i not in removed2 for f in s]
    factors += [f for i, s in enumerate(three) if i not in removed3 for f in s]
    return invariant_factors(factors)


def quadratic_table(d: int) -> tuple[int, ...]:
    return verify.QUADRATIC_TORSION_BY_RESIDUE.get(d % 24, (2, 6))


def z_inv_torsion(primes: set[int]) -> tuple[int, ...]:
    """Z[1/n] by which of 2 and 3 are inverted, from verify's class table."""
    for _label, samples, torsion in verify._Z_INV_CLASSES:
        s = samples[0]
        if (s % 2 == 0) == (2 in primes) and (s % 3 == 0) == (3 in primes):
            return torsion
    raise AssertionError("unreachable: the four classes cover every n")


def cyclotomic_torsion(n: int) -> tuple[int, ...]:
    return verify.cyclotomic_reference(n).torsion


def function_field_torsion(q: int, removed: set[int]) -> tuple[int, ...]:
    """F_q(t): each surviving place t - a gives Z/2 + Z/2 (q = 2) or Z/3
    (q = 3); q >= 4 gives nothing."""
    summand = {2: (2, 2), 3: (3,)}.get(q, ())
    return invariant_factors(f for a in range(q) if a not in removed for f in summand)


# integer polynomials as coefficient lists, constant term first


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdiv_monic(a: list[int], b: list[int]) -> list[int]:
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + len(b) - 1]
        q[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    assert not any(rem), "inexact division"
    return q


_PHI_CACHE: dict[int, list[int]] = {}


def cyclotomic_coeffs(n: int) -> list[int]:
    if n not in _PHI_CACHE:
        f = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                f = _pdiv_monic(f, cyclotomic_coeffs(d))
        _PHI_CACHE[n] = f
    return _PHI_CACHE[n]


def taylor_shift(f: list[int], k: int) -> list[int]:
    """Coefficients of f(x + k), by Horner's rule."""
    out = [0]
    for c in reversed(f):
        out = _pmul(out, [k, 1])
        out[0] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_arg(coeffs: list[int]) -> str:
    return "--poly=" + ",".join(str(c) for c in coeffs)


def _random_squarefree(rng: random.Random, lo: int, hi: int, ok=lambda d: True) -> int:
    while True:
        d = rng.randint(lo, hi)
        if d not in (0, 1) and squarefree(d) and ok(d):
            return d


# ---------------------------------------------------------------------------
# cli-requests


_PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(prime_factors(q)) == 1]
_CLI_BLOCK = ["real"] * 5 + ["imag"] * 4 + ["cyc"] * 3 + ["rat"] * 3 + ["ff"] * 4
_CLI_POOL_BLOCKS = 50  # 20 requests a block, one of them an expected failure


def _quadratic_request(rng: random.Random, d: int, need_s: bool) -> Request:
    two, three = quadratic_primes(d)
    argv = ["compute", f"--quadratic={d}", "--json"]
    removed = {2: set(), 3: set()}
    mode = rng.choice(["extra", "remove", "both"])
    if mode in ("remove", "both"):
        p = rng.choice([2, 3])
        idx = rng.randrange(len(two if p == 2 else three))
        removed[p].add(idx)
        argv += ["--remove-prime", f"{p}:{idx}"]
    if mode in ("extra", "both") or (not need_s and rng.random() < 0.5):
        argv += ["--extra-s-primes", str(rng.randint(1, 3))]
    return Request(argv, ("group", quadratic_torsion(d, removed[2], removed[3])))


def _cli_request(rng: random.Random, kind: str) -> Request:
    if kind == "real":
        return _quadratic_request(rng, _random_squarefree(rng, 2, 10**4), False)
    if kind == "imag":
        return _quadratic_request(rng, _random_squarefree(rng, -(10**4), -1), True)
    if kind == "cyc":
        n = rng.randint(1, 1000)
        argv = ["compute", "--cyclotomic", str(n), "--json"]
        if rng.random() < 0.5:
            argv += ["--extra-s-primes", "1"]
        return Request(argv, ("group", cyclotomic_torsion(n)))
    if kind == "rat":
        ns = [rng.randint(2, 10**6) for _ in range(rng.randint(1, 2))]
        primes = {p for n in ns for p in prime_factors(n)}
        argv = ["compute", "--rational", "--invert", ",".join(map(str, ns)), "--json"]
        return Request(argv, ("group", z_inv_torsion(primes)))
    # function field: one infinite place, so S needs a further prime
    q = rng.choice(_PRIME_POWERS_TO_64)
    argv = ["compute", "--function-field", str(q), "--json"]
    argv += ["--extra-s-primes", str(rng.randint(1, 2))]
    removed: set[int] = set()
    if q <= 3 and rng.random() < 0.5:
        idx = rng.randrange(q)
        removed.add(idx)
        argv += ["--remove-prime", f"{q}:{idx}"]
    return Request(argv, ("group", function_field_torsion(q, removed)))


def _cli_failure(rng: random.Random, block: int) -> Request:
    d = _random_squarefree(rng, -(10**4), -2, lambda d: d not in (-3, -15))
    if block % 2 == 0:
        # one infinite place and nothing inverted: finite units, no known case
        return Request(["compute", f"--quadratic={d}", "--json"], ("exit", 2))
    n = rng.randint(2, 10**6)
    return Request(
        ["compute", f"--quadratic={d}", "--invert", str(n), "--json"], ("exit", 4)
    )


def build_cli_requests(rng: random.Random, out_dir: Path) -> Pool:
    requests: list[Request] = []
    for block in range(_CLI_POOL_BLOCKS):
        chunk = [_cli_request(rng, kind) for kind in _CLI_BLOCK]
        chunk.append(_cli_failure(rng, block))
        rng.shuffle(chunk)
        requests += chunk
    return Pool(requests)


# ---------------------------------------------------------------------------
# formula-sweep


_SWEEP_TABLES_PER_KIND = 20
# Row counts 200, 210, ..., 390, dealt out in seeded order to each kind's
# tables, and quadratic ranges starting in 20 strata of [2, 10^4]: every
# seed asks for the same amount of work.
_SWEEP_ROWS = [200 + 10 * i for i in range(_SWEEP_TABLES_PER_KIND)]
_SWEEP_STRATUM = 10**4 // _SWEEP_TABLES_PER_KIND


def _quadratic_table_request(lo: int, rows: int) -> Request:
    hi = lo + rows - 1
    lines = [
        f"{d} {d % 24} "
        + (group_str(quadratic_table(d)) if squarefree(d) else "(skipped: not squarefree)")
        for d in range(lo, hi + 1)
    ]
    return Request(["table", "quadratic", str(lo), str(hi)], ("table", lines))


def _cyclotomic_table_request(top: int) -> Request:
    lines = [
        f"{n} {phi(n)} {group_str(cyclotomic_torsion(n))}" for n in range(1, top + 1)
    ]
    return Request(["table", "cyclotomic", str(top)], ("table", lines))


def _z_inv_table_request(top: int) -> Request:
    yes = {True: "yes", False: "no"}
    lines = [
        f"{n} {yes[n % 2 == 0]} {yes[n % 3 == 0]} "
        + group_str(z_inv_torsion(set(prime_factors(n))))
        for n in range(2, top + 1)
    ]
    return Request(["table", "z-inv-n", str(top)], ("table", lines))


def build_formula_sweep(rng: random.Random, out_dir: Path) -> Pool:
    requests = [
        _quadratic_table_request(2 + i * _SWEEP_STRATUM + rng.randrange(_SWEEP_STRATUM), rows)
        for i, rows in enumerate(rng.sample(_SWEEP_ROWS, len(_SWEEP_ROWS)))
    ]
    requests += [_cyclotomic_table_request(rows) for rows in rng.sample(_SWEEP_ROWS, len(_SWEEP_ROWS))]
    requests += [_z_inv_table_request(rows + 1) for rows in rng.sample(_SWEEP_ROWS, len(_SWEEP_ROWS))]
    rng.shuffle(requests)
    return Pool(requests)


# ---------------------------------------------------------------------------
# poly-split


# every n with 4 <= phi(n) <= 20
POLY_CYCLOTOMIC_NS = [n for n in range(3, 100) if 4 <= phi(n) <= 20]
# Phi_a * Phi_b with no rational root: reducible, so the answer is exit 4.
# The package answers every one of them with exit 0 and a group, so they are
# the pool's known defects rather than timed requests.
POLY_REDUCIBLE_PAIRS = [
    (3, 4), (3, 5), (4, 5), (5, 7), (3, 7), (4, 7), (5, 8), (7, 9),
    (3, 8), (5, 12), (4, 9), (7, 8), (3, 10), (4, 10), (5, 9), (8, 9),
]
# Each Phi_n comes twice, with two shifts k drawn from POLY_SHIFTS, so that
# more than ten requests are slow and factoring sets the tail percentile.
# Phi_44 and Phi_50, about 2 s each, come once: that shortens a pass, so more
# passes fit in a run, and puts the tail percentile (the twelfth slowest of
# 190) amid the six requests for Phi_17, Phi_32 and Phi_34 rather than at
# their top.
# Phi_n(x + k) mod 2 and mod 3 depends only on k mod 6, so with k = 1 mod 6
# every seed gives factor_mod_p the same polynomials.  With |k| >= 7 the
# constant term of every Phi_n(x + k) of degree >= 8 is above the 10^6 limit
# of the rational-root search, so that search costs the same for every seed.
POLY_SHIFTS = (-17, -11, 7, 13, 19)
POLY_ONCE = (44, 50)
# More than half the pool is quadratics, so that the median request is one.
_POLY_QUADRATICS = 100
_POLY_NOT_MAXIMAL = 20


def _quadratic_min_poly(d: int) -> list[int]:
    return [(1 - d) // 4, -1, 1] if d % 4 == 1 else [-d, 0, 1]


def build_poly_split(rng: random.Random, out_dir: Path) -> Pool:
    requests: list[Request] = []
    for n in POLY_CYCLOTOMIC_NS:
        for k in rng.sample(POLY_SHIFTS, 1 if n in POLY_ONCE else 2):
            # Z[x]/(Phi_n(x + k)) is Z[zeta_n] for every shift k
            f = taylor_shift(cyclotomic_coeffs(n), k)
            requests.append(
                Request(["compute", poly_arg(f), "--json"], ("group", cyclotomic_torsion(n)))
            )
    # half real, half imaginary, each drawn from its own stratum of |d| <= 10^4
    width = 2 * 10**4 // _POLY_QUADRATICS
    for i in range(_POLY_QUADRATICS):
        lo = 2 + (i // 2) * width
        hi = min(lo + width - 1, 10**4)
        if i % 2:
            d = _random_squarefree(rng, lo, hi)
            extra: list[str] = []
        else:
            d = _random_squarefree(rng, -hi, -lo)
            extra = ["--extra-s-primes", str(rng.randint(1, 3))]
        requests.append(
            Request(
                ["compute", poly_arg(_quadratic_min_poly(d)), "--json", *extra],
                ("group", quadratic_table(d)),
            )
        )
    for _ in range(_POLY_NOT_MAXIMAL):
        # x^2 - d with d = 1 mod 4 describes an index-2 order: not 2-maximal
        d = _random_squarefree(rng, 5, 10**4, lambda d: d % 4 == 1)
        requests.append(Request(["compute", poly_arg([-d, 0, 1]), "--json"], ("exit", 3)))
    rng.shuffle(requests)
    reducible = [
        Request(["compute", poly_arg(_pmul(cyclotomic_coeffs(a), cyclotomic_coeffs(b))), "--json"],
                ("exit", 4))
        for a, b in POLY_REDUCIBLE_PAIRS
    ]
    return Pool(requests, known_defects=reducible)


# ---------------------------------------------------------------------------
# oracle-cold

# Local factors: JSON spec, order, residue field size, and the abelianization
# of SL2 over it (residue field F_q with q >= 4: trivial; F_3: Z/3; F_2: the
# additive group of A/m^2).
_LOCAL = {
    "F2": ({"kind": "zmodpk", "p": 2, "k": 1}, 2, 2, (2,)),
    "F3": ({"kind": "zmodpk", "p": 3, "k": 1}, 3, 3, (3,)),
    "Z4": ({"kind": "zmodpk", "p": 2, "k": 2}, 4, 2, (4,)),
    "F4": ({"kind": "polyquot", "p": 2, "h": [1, 1, 1]}, 4, 4, ()),
    "F2[x]/x^2": ({"kind": "polyquot", "p": 2, "h": [0, 0, 1]}, 4, 2, (2, 2)),
    "Z8": ({"kind": "zmodpk", "p": 2, "k": 3}, 8, 2, (4,)),
    "F8": ({"kind": "polyquot", "p": 2, "h": [1, 1, 0, 1]}, 8, 8, ()),
    "F2[x]/x^3": ({"kind": "polyquot", "p": 2, "h": [0, 0, 0, 1]}, 8, 2, (2, 2)),
    "Z9": ({"kind": "zmodpk", "p": 3, "k": 2}, 9, 3, (3,)),
    "F9": ({"kind": "polyquot", "p": 3, "h": [1, 0, 1]}, 9, 9, ()),
    "F3[x]/x^2": ({"kind": "polyquot", "p": 3, "h": [0, 0, 1]}, 9, 3, (3,)),
}

# Every supported ring of order 4 to 12, up to isomorphism: Z/n by --zmod, the
# rest as products of local factors by --ring.
ORACLE_ZMOD = (4, 5, 6, 7, 8, 9, 10, 11, 12)
ORACLE_PRODUCTS = (
    ("F4",), ("F2[x]/x^2",), ("F2", "F2"),
    ("F8",), ("F2[x]/x^3",), ("F2", "Z4"), ("F2", "F4"), ("F2", "F2[x]/x^2"),
    ("F2", "F2", "F2"),
    ("F9",), ("F3[x]/x^2",), ("F3", "F3"),
    ("F4", "F3"), ("F2[x]/x^2", "F3"), ("F2", "F2", "F3"),
)


def _zmod_torsion(n: int) -> tuple[int, ...]:
    local = {2: "F2", 3: "F3", 4: "Z4", 8: "Z8", 9: "Z9"}
    parts = [p**e for p, e in prime_factors(n).items()]
    return invariant_factors(f for q in parts if q in local for f in _LOCAL[local[q]][3])


def _sl2_order(factors) -> int:
    out = 1
    for name in factors:
        _spec, order, q, _ab = _LOCAL[name]
        out *= order**3 * (q * q - 1) // (q * q)
    return out


def build_oracle_cold(rng: random.Random, out_dir: Path) -> Pool:
    requests: list[Request] = []
    for n in ORACLE_ZMOD:
        requests.append(
            Request(
                ["oracle", "--zmod", str(n), "--compare", "--json"],
                ("oracle", verify.sl2_order_zmod(n), _zmod_torsion(n)),
            )
        )
    for factors in ORACLE_PRODUCTS:
        path = out_dir / ("ring-" + "x".join(factors).replace("/", "_") + ".json")
        path.write_text(json.dumps({"factors": [_LOCAL[f][0] for f in factors]}))
        torsion = invariant_factors(x for f in factors for x in _LOCAL[f][3])
        requests.append(
            Request(
                ["oracle", "--ring", str(path), "--compare", "--json"],
                ("oracle", _sl2_order(factors), torsion),
            )
        )
    rng.shuffle(requests)
    return Pool(requests, cold=True)


POOL_MAKERS = {
    "cli-requests": build_cli_requests,
    "formula-sweep": build_formula_sweep,
    "poly-split": build_poly_split,
    "oracle-cold": build_oracle_cold,
}


def build(name: str, seed: int, out_dir: Path) -> Pool:
    return POOL_MAKERS[name](random.Random(f"{name}:{seed}"), out_dir)


# ---------------------------------------------------------------------------
# checking one reply


def check(expect: tuple, rc: int | None, out: str) -> tuple[bool, int]:
    """(reply matches its reference, rows checked)."""
    kind = expect[0]
    if kind == "exit":
        return rc == expect[1], 1
    if rc != 0:
        return False, 1 if kind != "table" else len(expect[1])
    if kind == "table":
        want = expect[1]
        got = [" ".join(line.split()) for line in out.splitlines()[1:]]
        return got == want, len(want)
    try:
        doc = json.loads(out)
    except ValueError:
        return False, 1
    group = {"free_rank": 0, "invariant_factors": list(expect[-1])}
    if kind == "group":
        return doc.get("group") == group, 1
    return (
        doc.get("sl2_order") == expect[1]
        and doc.get("group") == group
        and doc.get("compare", {}).get("match") is True
    ), 1
