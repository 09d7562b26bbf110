"""Acceptance gate: one test per acceptance criterion, each with its stated
time budget.  Run with -v to get one pass/fail line per criterion."""

import itertools
import json
import random
import time

import pytest

from sl2ab.abgroup import (
    TRIVIAL_GROUP,
    AbelianGroup,
    canonicalize,
    direct_sum,
    from_relations,
)
from sl2ab.cli import run
from sl2ab.oracle import (
    FiniteRingSpec,
    RingFactor,
    prop_local_formula,
    sl2_abelianization,
)
from sl2ab.polyarith import (
    IntPoly,
    ModPoly,
    _hensel_lift,
    cyclotomic_polynomial,
    euler_phi_factored,
    factor_mod_p,
    factorint,
    is_squarefree,
    primes_dividing,
)
from sl2ab.splitting import (
    Cyclotomic,
    GeneralPoly,
    NotPMaximalError,
    PrimeAbove,
    Quadratic,
    RationalFunction,
    Signature,
    SplittingData,
    UserNumberField,
    quadratic_min_poly,
)
from sl2ab.theorems import FiniteUnitsError, SSet, compute
from sl2ab.verify import (
    suite_cyclotomic_table,
    suite_ge2,
    suite_oracle_local,
    suite_product_lemma,
    suite_quadratic_table,
)
from zpoly import product


def _assert_suite_green(cases):
    failures = [c for c in cases if not c.ok]
    assert not failures, "; ".join(f"{c.name}: {c.detail}" for c in failures)
    return len(cases)


def test_criterion_1_z_inv_n_via_cli(capsys):
    expected = {
        2: [3],
        3: [4],
        5: [12],
        6: [],
        7: [12],
        10: [3],
        11: [12],
        12: [],
        30: [],
    }
    start = time.perf_counter()
    for n, factors in expected.items():
        invert = ",".join(str(p) for p in primes_dividing(n))
        code = run(["compute", "--rational", "--invert", invert, "--json"])
        out = capsys.readouterr().out
        assert code == 0, (n, out)
        doc = json.loads(out)
        assert doc["group"]["invariant_factors"] == factors, f"n={n}"
        assert doc["group"]["free_rank"] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 (Z[1/n] structure via the CLI): PASS in {elapsed:.2f}s")


def test_criterion_2_quadratic_three_way():
    start = time.perf_counter()
    count = _assert_suite_green(suite_quadratic_table())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 2 (real quadratic, formula = residue table = factorization, "
        f"{count} radicands): PASS in {elapsed:.2f}s"
    )


def test_criterion_3_cyclotomic_agreement():
    start = time.perf_counter()
    count = _assert_suite_green(suite_cyclotomic_table())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 3 (cyclotomic classification + splitting agreement, "
        f"{count} cases): PASS in {elapsed:.2f}s"
    )


def test_criterion_4_named_examples():
    outcome = compute(GeneralPoly(IntPoly((-5, 0, 0, 1))))
    assert outcome.group == AbelianGroup(0, (12,))
    at2, at3 = outcome.splittings
    assert [q.label for q in at2.primes] == ["(2, x+1)", "(2, x^2+x+1)"]
    assert [q.label for q in at3.primes] == ["(3, x+1)"]
    galois = UserNumberField(
        4,
        Signature(0, 2),
        SplittingData.uniform(2, 4, 4, 1),
        SplittingData.uniform(3, 4, 2, 1),
    )
    assert compute(galois).group == AbelianGroup(0, (6, 6))
    assert compute(Quadratic(-15), SSet(frozenset({1}))).group == AbelianGroup(0, (12,))
    print("ACCEPTANCE 4 (named worked examples): PASS")


def test_criterion_5_oracle_matches_local_formula():
    start = time.perf_counter()
    count = _assert_suite_green(suite_oracle_local())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 5 (enumerated SL2 abelianization = local formula, "
        f"{count} rings): PASS in {elapsed:.2f}s"
    )


def test_criterion_6_elementary_generation():
    start = time.perf_counter()
    count = _assert_suite_green(suite_ge2())
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 6 (elementary matrices generate SL2, {count} rings): "
        f"PASS in {elapsed:.2f}s"
    )


def test_criterion_7_product_lemma_and_order_formula():
    start = time.perf_counter()
    count = _assert_suite_green(suite_product_lemma())
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 7 (product decomposition + |SL2(Z/n)| formula, "
        f"{count} cases): PASS in {elapsed:.2f}s"
    )


# --- criterion 8: randomized property suites ------------------------------


def _random_splitting(rng: random.Random, p: int, degree: int) -> SplittingData:
    remaining = degree
    primes = []
    while remaining:
        ef = rng.randint(1, remaining)
        divisors = [e for e in range(1, ef + 1) if ef % e == 0]
        e = rng.choice(divisors)
        primes.append(PrimeAbove(p, e, ef // e, f"({p}, #{len(primes) + 1})"))
        remaining -= ef
    return SplittingData(p, degree, tuple(primes))


def _random_removals(rng: random.Random, data: SplittingData) -> frozenset:
    return frozenset(i for i in range(len(data.primes)) if rng.random() < 0.3)


def _partitions(n: int, mx: int | None = None):
    if n == 0:
        yield ()
        return
    if mx is None:
        mx = n
    for k in range(min(n, mx), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _abelian_groups_of_order(n: int):
    per_prime = [
        [(p, part) for part in _partitions(a)] for p, a in sorted(factorint(n).items())
    ]
    for combo in itertools.product(*per_prime):
        yield canonicalize([p**k for p, part in combo for k in part])


def _mixed_relations(rng: random.Random, diagonal: list[int]) -> list[list[int]]:
    """The rows of diag(diagonal) under random unimodular row and column
    operations: a presentation of the same group in other bases."""
    n = len(diagonal)
    rows = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]  # row i += q row j
        for row in rows:  # column j += q column i
            row[j] += q * row[i]
    return rows


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = random.Random(20260816)

    # (a) 1000 random char-0 inputs: the result is finite of exponent
    # dividing 12, or the unit gate fails when |S| < 2
    gated = 0
    for _ in range(1000):
        degree = rng.randint(1, 8)
        split2 = _random_splitting(rng, 2, degree)
        split3 = _random_splitting(rng, 3, degree)
        assert sum(q.e * q.f for q in split2.primes) == split2.degree
        assert sum(q.e * q.f for q in split3.primes) == split3.degree
        r2 = rng.randint(0, degree // 2)
        field = UserNumberField(degree, Signature(degree - 2 * r2, r2), split2, split3)
        s = SSet(
            _random_removals(rng, split2),
            _random_removals(rng, split3),
            rng.randint(0, 2),
        )
        if field.infinite_places + s.finite_count < 2:
            gated += 1
            with pytest.raises(FiniteUnitsError):
                compute(field, s)
            continue
        g = compute(field, s).group
        assert g.free_rank == 0
        assert 12 % g.exponent() == 0
    assert gated > 0

    # (b) random char-p inputs: exponent divides 6
    for _ in range(300):
        q = rng.choice([2, 3, 4, 5, 8, 9, 16, 25])
        field = RationalFunction(q)
        n_places = sum(len(sp.primes) for sp in field.splittings())
        removed = frozenset(i for i in range(n_places) if rng.random() < 0.3)
        s = SSet(
            removed_above_2=removed if q % 2 == 0 and q <= 3 else frozenset(),
            removed_above_3=removed if q % 3 == 0 and q <= 3 else frozenset(),
            other_finite_primes=rng.randint(1, 3),
        )
        g = compute(field, s).group
        assert g.free_rank == 0
        assert 6 % g.exponent() == 0

    # (c) canonicalize is idempotent
    for _ in range(200):
        factors = [rng.randint(2, 60) for _ in range(rng.randint(0, 6))]
        g = canonicalize(factors, free_rank=rng.randint(0, 2))
        assert canonicalize(g.torsion, g.free_rank) == g

    # (d) relations invert the invariant-factor form for every abelian group
    # of order <= 200: its primary parts and one generator killed outright,
    # mixed by random unimodular operations; and relations of less than
    # full rank are refused
    checked = 0
    for n in range(1, 201):
        for g in _abelian_groups_of_order(n):
            assert g.order() == n
            diagonal = [p**e for p, e in g.primary_parts()] + [1]
            rows = _mixed_relations(rng, diagonal)
            assert from_relations(rows, len(diagonal)) == g
            checked += 1
    with pytest.raises(ValueError, match="rank"):
        from_relations(_mixed_relations(rng, [2, 3, 0]), 3)
    # known count: sum over n <= 200 of prod(partition(a)) over p^a || n
    assert checked == 389
    assert sum(1 for _ in _abelian_groups_of_order(8)) == 3
    assert sum(1 for _ in _abelian_groups_of_order(200)) == 6
    assert next(_abelian_groups_of_order(1)) == TRIVIAL_GROUP

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 8 (randomized property suites, exponent bounds + "
        f"round-trips): PASS in {elapsed:.2f}s"
    )


# --- criterion 9: compute() end to end against the oracle -----------------

# Two inverted primes away from 2 and 3: |S| >= 2, and every prime above 2
# and 3 survives, so compute() must equal SL2(O/4O)^ab + SL2(O/3O)^ab with
# O/4O = (Z/4)[x]/(f) and O/3O = F_3[x]/(f), for f the form's defining
# polynomial, monogenic and maximal at 2 and 3.
_TWO_OTHER_PRIMES = SSet(other_finite_primes=2)


def _quadratic_forms(bound: int):
    for d in range(1 - bound, bound):
        if d not in (0, 1) and is_squarefree(d):
            yield Quadratic(d), quadratic_min_poly(d)


def _oracle_rings(f: IntPoly) -> list[RingFactor]:
    return [RingFactor(2, 2, f.coeffs), RingFactor(3, 1, f.coeffs)]


def _compute_group(field) -> AbelianGroup:
    return compute(field, _TWO_OTHER_PRIMES).group


def test_criterion_9a_compute_matches_brute_force_oracle():
    start = time.perf_counter()
    count = 0
    for field, f in _quadratic_forms(300):
        rings = [FiniteRingSpec((factor,)) for factor in _oracle_rings(f)]
        expected = direct_sum(*map(sl2_abelianization, rings))
        assert _compute_group(field) == expected, field
        count += 1
    assert count == 365
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 9a (compute = SL2(O/4O)^ab + SL2(O/3O)^ab by the oracle, "
        f"{count} quadratic fields): PASS in {elapsed:.2f}s"
    )


def _random_poly_fields(rng: random.Random, count: int):
    """count seeded random fields Q[x]/(f), f monic of degree 2-8 with
    coefficients in [-30, 30]; reducible draws are not fields and are
    drawn again."""
    fields = []
    while len(fields) < count:
        low = [rng.randint(-30, 30) for _ in range(rng.randint(2, 8))]
        try:
            fields.append(GeneralPoly(IntPoly(low + [1])))
        except ValueError:
            continue
    return fields


def test_criterion_9b_compute_matches_local_formula():
    # the formula sums one summand per irreducible factor of f mod p, so
    # (Z/4)[x]/(f) and F_3[x]/(f) need not be local
    start = time.perf_counter()
    forms = list(_quadratic_forms(3000))
    forms += [
        (Cyclotomic(n), cyclotomic_polynomial(n))
        for n in range(1, 200)
        if 2 * euler_phi_factored(factorint(n)) <= 39
    ]
    fields = _random_poly_fields(random.Random(9), 400)
    forms += [(field, field.poly) for field in fields]
    checked = not_maximal = 0
    for field, f in forms:
        try:
            got = _compute_group(field)
        except NotPMaximalError:
            not_maximal += 1
            continue
        expected = direct_sum(*map(prop_local_formula, _oracle_rings(f)))
        assert got == expected, field
        checked += 1
    assert (checked, not_maximal) == (3960, 123)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 9b (compute = SL2(O/4O)^ab + SL2(O/3O)^ab by the formula, "
        f"{checked} fields, {not_maximal} not maximal at 2 or 3): "
        f"PASS in {elapsed:.2f}s"
    )


def _compute_report(capsys, argv: list[str]) -> tuple[list[str], AbelianGroup]:
    """The printed prime labels, in index order, and the group of a
    `compute --json` run with exit 0."""
    code = run(["compute", *argv, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0, argv
    labels = [q["label"] for sp in doc["splittings"] for q in sp["primes"]]
    group = doc["group"]
    return labels, canonicalize(group["invariant_factors"], group["free_rank"])


def _power_mod(g: ModPoly, e: int) -> list[int]:
    return [c % g.p for c in product(*[g] * e).coeffs]


def _local_factors(f: IntPoly) -> dict[int, list[tuple[str, RingFactor]]]:
    """The local factors of O/4O and O/3O with the labels of their primes, in
    the order dedekind_split lists the primes: at 2 each g^e of f mod 2,
    lifted to Z/4; at 3 each g^e of f mod 3."""
    out = {}
    for p, k in ((2, 2), (3, 1)):
        factors = factor_mod_p(ModPoly(p, f.coeffs))
        powers = [_power_mod(g, e) for g, e in factors]
        if k > 1:
            modulus = p**k
            powers = _hensel_lift([c % modulus for c in f.coeffs], powers, p, modulus)
        out[p] = [
            (f"({p}, {g})", RingFactor(p, k, h)) for (g, _), h in zip(factors, powers)
        ]
    return out


def test_criterion_9c_removals_drop_their_local_factor(capsys):
    # --remove-prime P:i puts the i-th printed prime above P in S, so the
    # group loses the summand of that prime's local factor and keeps the rest
    start = time.perf_counter()
    fields = [GeneralPoly(IntPoly((-5, 0, 0, 1)))]  # 2 = (2, x+1)(2, x^2+x+1)
    fields += _random_poly_fields(random.Random(93), 200)
    checked = used = 0
    for field in fields:
        try:
            _compute_group(field)
        except NotPMaximalError:
            continue
        local = {
            p: [(label, prop_local_formula(factor)) for label, factor in pairs]
            for p, pairs in _local_factors(field.poly).items()
        }
        if all(len({g for _, g in pairs}) == 1 for pairs in local.values()):
            continue  # every prime above 2 and above 3 adds the same
        used += 1
        poly = "--poly=" + ",".join(map(str, field.poly.coeffs))
        for p, pairs in local.items():
            for i, (label, _) in enumerate(pairs):
                argv = [poly, "--extra-s-primes", "2", "--remove-prime", f"{p}:{i}"]
                labels, got = _compute_report(capsys, argv)
                assert labels == [label for q in (2, 3) for label, _ in local[q]]
                kept = [
                    g
                    for q in (2, 3)
                    for j, (_, g) in enumerate(local[q])
                    if (q, j) != (p, i)
                ]
                assert got == direct_sum(*kept), (field, p, i)
                checked += 1
    assert (used, checked) == (99, 422)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 9c (each --remove-prime drops its local factor, "
        f"{checked} removals in {used} fields): PASS in {elapsed:.2f}s"
    )


def _brute_force_group(factor: RingFactor) -> AbelianGroup:
    return sl2_abelianization(FiniteRingSpec((factor,)))


def _squared_places(q: int, kept) -> RingFactor:
    """F_q[t]/(h), h the product of (t - a)^2 over the kept a."""
    return RingFactor(q, 1, product(*[(-a, 1) for a in kept for _ in (1, 2)]).coeffs)


def test_criterion_9d_function_field_matches_oracle(capsys):
    # with one finite place in S besides infinity, O_S of F_q(t) has
    # O/((t^q - t)^2) = F_q[t]/((t^q - t)^2), the product of the local
    # factors F_q[t]/((t - a)^2); removing the place t - a drops its factor.
    # q = 2 is checked by brute force, q = 3 (order 729) by the formula
    start = time.perf_counter()
    expected = {2: canonicalize([2] * 4), 3: canonicalize([3] * 3)}
    for q, oracle in ((2, _brute_force_group), (3, prop_local_formula)):
        s = SSet(other_finite_primes=1)
        full = oracle(_squared_places(q, range(q)))
        assert compute(RationalFunction(q), s).group == full == expected[q]
        for i in range(q):
            argv = [
                "--function-field", str(q), "--extra-s-primes", "1",
                "--remove-prime", f"{q}:{i}",
            ]
            labels, got = _compute_report(capsys, argv)
            assert labels[i] == ("(t)" if i == 0 else f"(t-{i})")
            kept = [a for a in range(q) if a != i]
            assert got == oracle(_squared_places(q, kept)), (q, i)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 9d (F_q(t) = SL2(F_q[t]/((t^q - t)^2))^ab for q = 2, 3, "
        f"and each removal): PASS in {elapsed:.2f}s"
    )
