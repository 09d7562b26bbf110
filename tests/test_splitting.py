"""Tests for prime splitting data: the maximality criterion, the quadratic
congruence rules, the cyclotomic closed form, and the field-spec dispatch."""

import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ab import polyarith, splitting
from sl2ab.cli import run
from sl2ab.polyarith import (
    IntPoly,
    ModPoly,
    _lmul,
    cyclotomic_polynomial,
    euler_phi_factored,
    factor_mod_p,
    factorint,
    is_squarefree,
)
from sl2ab.splitting import (
    Cyclotomic,
    GeneralPoly,
    NotPMaximalError,
    PrimeAbove,
    Quadratic,
    Rational,
    RationalFunction,
    Signature,
    SplittingData,
    UserFunctionField,
    UserNumberField,
    cyclotomic_shape,
    dedekind_split,
    quadratic_min_poly,
    quadratic_splits,
)
from sl2ab.theorems import compute
from zpoly import combination, product, shift

SQUAREFREE_RANGE = [
    d for d in range(-200, 201) if d not in (0, 1) and is_squarefree(d)
]


class TestDataTypes:
    def test_prime_above_validation(self):
        PrimeAbove(2, 1, 1, "(2)")
        with pytest.raises(ValueError):
            PrimeAbove(2, 0, 1, "bad")
        with pytest.raises(ValueError):
            PrimeAbove(2, 1, -1, "bad")

    def test_splitting_data_checks_fundamental_identity(self):
        SplittingData(2, 2, (PrimeAbove(2, 2, 1, "(2, ramified)"),))
        with pytest.raises(ValueError):
            SplittingData(2, 3, (PrimeAbove(2, 2, 1, "x"),))
        with pytest.raises(ValueError):
            SplittingData(2, 2, ())

    def test_ef_multiset(self):
        data = Quadratic(17).split_at(2)
        assert data.ef_multiset() == ((1, 1), (1, 1))
        assert Quadratic(5).split_at(2).ef_multiset() == ((1, 2),)

    def test_json_document(self):
        data = Quadratic(10).split_at(3)
        assert data.to_json()["p"] == 3

    def test_signature(self):
        assert Signature(1, 1).infinite_places == 2
        assert Signature(0, 1).infinite_places == 1
        with pytest.raises(ValueError):
            Signature(-1, 0)


class TestDedekind:
    def test_not_2_maximal_iff_wrong_form(self):
        # x^2 - d fails 2-maximality exactly when d = 1 mod 4
        for d in SQUAREFREE_RANGE:
            naive = IntPoly((-d, 0, 1))
            if d % 4 == 1:
                with pytest.raises(NotPMaximalError):
                    dedekind_split(naive, 2)
            else:
                dedekind_split(naive, 2)

    def test_obstruction_details(self):
        with pytest.raises(NotPMaximalError) as exc:
            dedekind_split(IntPoly((-5, 0, 1)), 2)
        assert exc.value.p == 2
        assert str(exc.value.obstruction) == "x+1"
        assert "not maximal at 2" in str(exc.value)

    def test_cube_root_of_five(self):
        f = IntPoly((-5, 0, 0, 1))
        at2 = dedekind_split(f, 2)
        assert [(q.e, q.f, q.label) for q in at2.primes] == [
            (1, 1, "(2, x+1)"),
            (1, 2, "(2, x^2+x+1)"),
        ]
        at3 = dedekind_split(f, 3)
        assert [(q.e, q.f, q.label) for q in at3.primes] == [(3, 1, "(3, x+1)")]

    def test_criterion_matches_integer_reference(self):
        # Dedekind's criterion in its textbook form, on integers: with g the
        # radical and h the cofactor of f mod p lifted to [0, p), and
        # t = (g h - f) / p, Z[x]/(f) is p-maximal unless some repeated factor
        # of f mod p divides t mod p, and the obstruction is their product
        checked = 0
        for p in (2, 3):
            for degree in (1, 2, 3):
                for tail in itertools.product(range(-2, 3), repeat=degree):
                    f = IntPoly(tail + (1,))
                    factors = factor_mod_p(ModPoly(p, f.coeffs))
                    g = product(*[gbar for gbar, _ in factors])
                    h = product(*[gbar for gbar, e in factors for _ in range(e - 1)])
                    diff = combination((1, product(g, h)), (-1, f))
                    assert all(c % p == 0 for c in diff.coeffs), f
                    t = ModPoly(p, [c // p for c in diff.coeffs])
                    obstruction = [1]
                    for gbar, e in factors:
                        if e > 1 and divmod(t, gbar)[1].is_zero:
                            obstruction = _lmul(obstruction, gbar.coeffs, p)
                    if obstruction == [1]:
                        assert dedekind_split(f, p).primes, (f, p)
                    else:
                        with pytest.raises(NotPMaximalError) as exc:
                            dedekind_split(f, p)
                        assert exc.value.obstruction == ModPoly(p, obstruction)
                        checked += 1
        assert checked > 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dedekind_split(IntPoly((-5, 0, 1)), 5)
        with pytest.raises(ValueError):
            dedekind_split(IntPoly((2, 2)), 2)  # not monic


def built_quadratic_split(d, p):
    """A quadratic splitting built from its primes on every call, as the
    congruence rule reads: the reference for the shared values."""
    r = d % 8 if p == 2 else d % 3
    inert, split = (5, 1) if p == 2 else (2, 1)
    if r == inert:
        primes = (PrimeAbove(p, 1, 2, f"({p}, inert)"),)
    elif r == split:
        primes = (
            PrimeAbove(p, 1, 1, f"({p}, split #1)"),
            PrimeAbove(p, 1, 1, f"({p}, split #2)"),
        )
    else:
        primes = (PrimeAbove(p, 2, 1, f"({p}, ramified)"),)
    return SplittingData(p, 2, primes)


class TestQuadratic:
    def test_min_poly_forms(self):
        assert quadratic_min_poly(17) == IntPoly((-4, -1, 1))
        assert quadratic_min_poly(10) == IntPoly((-10, 0, 1))
        assert quadratic_min_poly(-15) == IntPoly((4, -1, 1))
        with pytest.raises(ValueError):
            quadratic_min_poly(12)
        with pytest.raises(ValueError):
            quadratic_min_poly(1)

    def test_congruence_cases_at_2(self):
        assert [q.label for q in Quadratic(17).split_at(2).primes] == [
            "(2, split #1)",
            "(2, split #2)",
        ]
        assert Quadratic(5).split_at(2).ef_multiset() == ((1, 2),)  # inert
        assert Quadratic(10).split_at(2).ef_multiset() == ((2, 1),)  # ramified
        assert Quadratic(10).split_at(2).primes[0].label == "(2, ramified)"

    def test_congruence_cases_at_3(self):
        assert Quadratic(7).split_at(3).ef_multiset() == ((1, 1), (1, 1))  # 7 = 1 mod 3
        assert Quadratic(5).split_at(3).ef_multiset() == ((1, 2),)  # 5 = 2 mod 3
        assert Quadratic(33).split_at(3).ef_multiset() == ((2, 1),)  # 3 | 33

    def test_shared_values_match_a_fresh_build(self):
        # every class of d mod 24, with both signs; `table quadratic` keys its
        # groups on the identity of the pair, so radicands that split alike
        # share one pair object, and the nine splittings nine objects
        pairs = {}
        for sign in (1, -1):
            for r in range(24):
                ds = [d for d in range(r, 2000, 24) if is_squarefree(d) and d != 1]
                if not ds:
                    continue
                for p in (2, 3):
                    values = [Quadratic(sign * d).split_at(p) for d in ds[:3]]
                    assert values[0] == built_quadratic_split(sign * ds[0], p)
                    assert all(v is values[0] for v in values), (sign, r, p)
                shared = [quadratic_splits(sign * d) for d in ds[:3]]
                assert all(pair is shared[0] for pair in shared), (sign, r)
                d = sign * ds[0]
                assert shared[0] == (Quadratic(d).split_at(2), Quadratic(d).split_at(3))
                pairs[id(shared[0])] = shared[0]
        assert len(pairs) == len(set(pairs.values())) == 9

    def test_congruences_match_dedekind(self):
        # the residue rules and the factorization of the true minimal
        # polynomial must give the same (e, f) data for every squarefree d
        for d in SQUAREFREE_RANGE:
            f = quadratic_min_poly(d)
            for p in (2, 3):
                assert (
                    Quadratic(d).split_at(p).ef_multiset()
                    == dedekind_split(f, p).ef_multiset()
                ), f"disagreement at d={d}, p={p}"


class TestCyclotomic:
    def test_known_shapes(self):
        assert Cyclotomic(8).split_at(2).ef_multiset() == ((4, 1),)
        assert Cyclotomic(8).split_at(3).ef_multiset() == ((1, 2), (1, 2))
        assert Cyclotomic(9).split_at(3).ef_multiset() == ((6, 1),)
        assert Cyclotomic(12).split_at(2).ef_multiset() == ((2, 2),)
        assert Cyclotomic(12).split_at(3).ef_multiset() == ((2, 2),)
        assert Cyclotomic(5).split_at(2).ef_multiset() == ((1, 4),)
        assert Cyclotomic(1).split_at(2).ef_multiset() == ((1, 1),)
        assert Cyclotomic(2).split_at(3).ef_multiset() == ((1, 1),)

    def test_labels(self):
        assert [q.label for q in Cyclotomic(8).split_at(3).primes] == [
            "(3, #1 of 2)",
            "(3, #2 of 2)",
        ]

    def test_n_2_mod_4_normalization(self):
        for p in (2, 3):
            assert Cyclotomic(6).split_at(p) == Cyclotomic(3).split_at(p)
            assert Cyclotomic(10).split_at(p) == Cyclotomic(5).split_at(p)
        # table cyclotomic reads the rule at N itself: N = 2 m, m odd, gives
        # the e and the f = 1 of m
        for m in range(1, 3000, 2):
            for p in (2, 3):
                e, _, one = cyclotomic_shape(p, 2 * m, factorint(2 * m).get(p, 0))
                assert (e, one) == cyclotomic_shape(p, m, factorint(m).get(p, 0))[::2]

    def test_residue_degree_is_the_brute_force_order(self):
        # writing the normalized n as p^a s: e = phi(p^a), and f is the
        # least f with p^f = 1 mod s, found by multiplying by p until then
        for n in range(1, 2001):
            field = Cyclotomic(n)
            for p in (2, 3):
                a, s = 0, field.normalized
                while s % p == 0:
                    a, s = a + 1, s // p
                f, x = 1, p % s
                while x != 1 % s:
                    f, x = f + 1, x * p % s
                e = (p - 1) * p ** (a - 1) if a else 1
                data = field.split_at(p)
                assert data.count == field.degree // (e * f), (n, p)
                assert {(q.e, q.f) for q in data.primes} == {(e, f)}, (n, p)
                assert len(data.degree_one) == (data.count if f == 1 else 0)
            assert field.splittings() == (field.split_at(2), field.split_at(3)), n

    def test_closed_form_matches_dedekind(self):
        from sl2ab.polyarith import cyclotomic_polynomial

        for n in range(1, 31):
            if euler_phi_factored(factorint(n)) > 12:
                continue
            f = cyclotomic_polynomial(n)
            for p in (2, 3):
                assert (
                    Cyclotomic(n).split_at(p).ef_multiset()
                    == dedekind_split(f, p).ef_multiset()
                ), f"disagreement at n={n}, p={p}"


class TestRationalFunction:
    def test_tracked_places(self):
        assert [sp.primes[0].label for sp in RationalFunction(2).splittings()] == [
            "(t)",
            "(t-1)",
        ]
        assert len(RationalFunction(3).splittings()) == 3
        for q in (4, 5, 8, 9, 25):
            assert RationalFunction(q).splittings() == ()
        with pytest.raises(ValueError):
            RationalFunction(6)

    def test_place_shape(self):
        (first, _) = RationalFunction(2).splittings()
        assert first == SplittingData(2, 1, (PrimeAbove(2, 1, 1, "(t)"),))

    def test_shared_places_match_a_fresh_build(self):
        for q in (2, 3):
            built = tuple(
                SplittingData(q, 1, (PrimeAbove(q, 1, 1, label),))
                for label in ["(t)", "(t-1)", "(t-2)"][:q]
            )
            assert RationalFunction(q).splittings() == built
            assert RationalFunction(q).splittings() is RationalFunction(q).splittings()


class TestFieldSpecDispatch:
    def test_degrees(self):
        assert Rational().degree == 1
        assert Quadratic(-15).degree == 2
        assert Cyclotomic(8).degree == 4
        assert Cyclotomic(6).degree == 2
        assert GeneralPoly(IntPoly((-5, 0, 0, 1))).degree == 3
        assert RationalFunction(9).degree == 1

    def test_signatures(self):
        assert Rational().signature == Signature(1, 0)
        assert Quadratic(17).signature == Signature(2, 0)
        assert Quadratic(-1).signature == Signature(0, 1)
        assert Cyclotomic(1).signature == Signature(1, 0)
        assert Cyclotomic(5).signature == Signature(0, 2)
        assert Cyclotomic(8).signature == Signature(0, 2)
        # via Sturm chains:
        assert GeneralPoly(IntPoly((-5, 0, 0, 1))).signature == Signature(1, 1)
        assert GeneralPoly(IntPoly((-2, 0, 1))).signature == Signature(2, 0)
        assert GeneralPoly(IntPoly((1, 0, 1))).signature == Signature(0, 1)
        # function fields have places at infinity, no archimedean signature
        assert not hasattr(RationalFunction(2), "signature")
        assert RationalFunction(2).infinite_places == 1
        # a cyclotomic form derives its signature when it is read
        c7 = Cyclotomic(7)
        assert "signature" not in vars(c7)
        compute(c7)  # degree 6 opens the unit gate, so it reads no signature
        assert "signature" not in vars(c7)
        assert c7.signature == Signature(0, 3)
        assert vars(c7)["signature"] is c7.signature
        # the signature is no field: equality, hash and repr stay as they were
        assert Cyclotomic(2) == Cyclotomic(1)
        assert hash(Cyclotomic(2)) == hash(Cyclotomic(1))
        assert repr(Cyclotomic(5)) == "Cyclotomic(n=5)"

    def test_split_at(self):
        for p in (2, 3):
            assert Rational().split_at(p) == SplittingData(
                p, 1, (PrimeAbove(p, 1, 1, f"({p})"),)
            )
            assert Rational().split_at(p) is Rational().split_at(p)
        assert Quadratic(17).split_at(3) == SplittingData(  # 17 = 2 mod 3
            3, 2, (PrimeAbove(3, 1, 2, "(3, inert)"),)
        )
        assert Cyclotomic(8).split_at(2) == SplittingData(
            2, 4, (PrimeAbove(2, 4, 1, "(2, #1 of 1)"),)
        )
        with pytest.raises(ValueError):
            Rational().split_at(5)
        # function fields list their t - a places instead
        assert not hasattr(RationalFunction(2), "split_at")
        assert RationalFunction(2).splittings() == tuple(
            SplittingData(2, 1, (PrimeAbove(2, 1, 1, label),))
            for label in ("(t)", "(t-1)")
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Quadratic(12)
        with pytest.raises(ValueError):
            Quadratic(1)
        with pytest.raises(ValueError):
            Cyclotomic(0)
        with pytest.raises(ValueError):
            GeneralPoly(IntPoly((1, 2)))  # not monic
        with pytest.raises(ValueError, match="reducible over Q"):
            GeneralPoly(IntPoly((2, 0, 3, 0, 1)))  # (x^2+1)(x^2+2)
        with pytest.raises(ValueError):
            RationalFunction(12)

    def test_input_limits(self):
        # the largest inputs are accepted ...
        assert Quadratic(999999999989).d == 999999999989
        assert Cyclotomic(10**6).n == 10**6
        assert RationalFunction(999999999989).characteristic == 999999999989
        # ... and one past the limit is refused before any factoring
        for make, value in (
            (Quadratic, 10**12 + 1),
            (Quadratic, -(10**12) - 1),
            (quadratic_min_poly, 10**12 + 1),
            (quadratic_min_poly, -(10**12) - 1),
            (Cyclotomic, 10**6 + 1),
            (RationalFunction, 10**12 + 1),
        ):
            with pytest.raises(ValueError, match="at most"):
                make(value)
        assert quadratic_min_poly(999999999989) == IntPoly((-249999999997, -1, 1))

    def test_quadratic_min_poly_refuses_a_large_radicand_at_once(self):
        # trial division of 10^40 + 1 would not end for minutes
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            quadratic_min_poly(10**40 + 1)
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == (
            "|d| must be at most 1000000000000, got "
            "10000000000000000000000000000000000000001"
        )

    def test_cyclotomic_forms_compare_by_field(self):
        assert Cyclotomic(6) == Cyclotomic(3)
        assert hash(Cyclotomic(10)) == hash(Cyclotomic(5))
        assert Cyclotomic(6).n == 6
        assert str(Cyclotomic(6)) == "Q(zeta_6)"
        assert Cyclotomic(4) != Cyclotomic(8)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--quadratic", "999999999989"], "is_squarefree"),
            (["--cyclotomic", "60"], "factorint"),
            (["--function-field", "3", "--remove-prime", "3:0"], "is_prime_power"),
            (["--poly=-5,0,0,1"], "sturm_real_roots"),
        ],
    )
    def test_text_report_checks_each_integer_once(self, argv, name, monkeypatch, capsys):
        # split_at, splittings and the second read of a signature reuse what
        # the form computed once
        calls = []
        fn = getattr(splitting, name)
        monkeypatch.setattr(splitting, name, lambda *a: calls.append(a) or fn(*a))
        assert run(["compute", *argv]) == 0, capsys.readouterr().err
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "coeffs, signature",
        [("-5,0,0,1", "(1, 1)"), ("2,-4,6,-4,1", "(0, 2)"), ("5,0,1", None)],
    )
    def test_json_counts_real_roots_only_below_degree_3(
        self, coeffs, signature, monkeypatch, capsys
    ):
        # degree >= 3 opens the unit gate by itself, so compute --json never
        # counts real roots there; the text report still prints the signature
        calls = []
        fn = splitting.sturm_real_roots
        monkeypatch.setattr(
            splitting, "sturm_real_roots", lambda *a: calls.append(a) or fn(*a)
        )
        code = run(["compute", f"--poly={coeffs}", "--json"])
        capsys.readouterr()
        if signature is None:  # x^2 + 5: one complex place, refused
            assert code == 2 and len(calls) == 1
            return
        assert code == 0 and calls == []
        assert run(["compute", f"--poly={coeffs}"]) == 0
        assert f"signature: {signature}" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "coeffs, zassenhaus_prime",
        [
            # Phi_33(x + 1): two factors of degree 10 mod 2, ramified at 3
            (
                "1,10,85,480,2040,6732,17613,37101,63673,89785,104543,100673,"
                "80028,52221,27693,11748,3892,970,171,19,1",
                2,
            ),
            # Phi_28(x + 1): two factors of degree 6 mod 3, ramified at 2
            ("1,6,39,140,341,590,741,680,451,210,65,12,1", 3),
        ],
    )
    def test_each_factorization_runs_once(
        self, coeffs, zassenhaus_prime, monkeypatch, capsys
    ):
        # f is factored mod 2 and mod 3 once: the irreducibility certificate
        # and Dedekind's criterion read those factorizations, also when 2 or 3
        # is the prime Zassenhaus's algorithm runs at; both local degree sets
        # leave half the degree possible, so these two still lift
        seen, lifted = [], []

        def spy(name):
            fn = getattr(polyarith, name)

            def wrapper(K, arg):  # arg: f mod p, or its distinct-degree parts
                seen.append((name, K.p, repr(arg)))
                return fn(K, arg)

            monkeypatch.setattr(polyarith, name, wrapper)

        spy("_distinct_degree")
        spy("_split_parts")
        zassenhaus = polyarith._has_factor_over_z
        monkeypatch.setattr(
            polyarith,
            "_has_factor_over_z",
            lambda f, factors, p, degrees: lifted.append(p)
            or zassenhaus(f, factors, p, degrees),
        )
        assert run(["compute", f"--poly={coeffs}"]) == 0, capsys.readouterr().err
        assert lifted == [zassenhaus_prime]
        assert any(p == zassenhaus_prime for _, p, _ in seen)
        assert len(seen) == len(set(seen)), seen

    @pytest.mark.parametrize(
        "coeffs, local_degrees",
        [
            # Phi_15(x + 1): two factors of degree 4 mod 2, and Phi_5^2 mod 3
            # with Phi_5 irreducible there, so one local degree 8 at 3
            ("1,4,14,28,39,36,21,7,1", {2: [4, 4], 3: [8]}),
            # Phi_16(x + 1): x^8 mod 2, totally ramified
            ("2,8,28,56,70,56,28,8,1", {2: [8], 3: [4, 4]}),
        ],
    )
    def test_local_degrees_certify_without_lifting(
        self, coeffs, local_degrees, monkeypatch, capsys
    ):
        # Z[x]/(f) is maximal at 2 and 3, and no proper subset of the local
        # degrees at 3 (at 2 for Phi_16) sums to a degree below 8
        check = polyarith.irreducible_over_q_check
        given, lifted = [], []
        monkeypatch.setattr(
            splitting,
            "irreducible_over_q_check",
            lambda f, known, local: given.append(local) or check(f, known, local),
        )
        monkeypatch.setattr(polyarith, "_has_factor_over_z", lambda *a: lifted.append(a))
        assert run(["compute", f"--poly={coeffs}"]) == 0, capsys.readouterr().err
        assert given == [local_degrees]
        assert lifted == []

    @pytest.mark.parametrize(
        "n, zassenhaus_prime",
        [
            *((n, None) for n in (12, 15, 16, 20, 21, 24, 32, 36, 40, 42, 44, 48)),
            (28, 3),
            (33, 2),
            (60, 7),
            (66, 2),
        ],
    )
    def test_which_shifted_cyclotomics_lift(self, n, zassenhaus_prime, monkeypatch):
        # Phi_n(x + k) with 2 or 3 ramified; Z[x]/(Phi_n(x + k)) is Z[zeta_n]
        # and f mod p has the same shape for every k, so the verdict path does
        # not depend on k.  Those that lift have phi(n)/2 as the one degree
        # the local degrees at 2 and 3 leave.
        lifted = []
        zassenhaus = polyarith._has_factor_over_z
        monkeypatch.setattr(
            polyarith,
            "_has_factor_over_z",
            lambda f, factors, p, degrees: lifted.append((p, degrees))
            or zassenhaus(f, factors, p, degrees),
        )
        phi_n = cyclotomic_polynomial(n)
        for k in (1, -17, 13):
            GeneralPoly(shift(phi_n, k))
        if zassenhaus_prime is None:
            assert lifted == []
        else:
            half = 1 << phi_n.degree // 2
            assert lifted == [(zassenhaus_prime, half)] * 3

    @pytest.mark.parametrize(
        "coeffs, code",
        [
            ("-5,0,0,1", 0),  # x^3 - 5, maximal at 2 and 3
            ("-5,0,1", 3),  # not maximal at 2
            ("1,0,2,0,1", 4),  # (x^2 + 1)^2, maximal nowhere
            ("-15,0,-2,0,1", 4),  # (x^2 - 5)(x^2 + 3), not maximal at 2
        ],
    )
    def test_criterion_runs_once_per_prime(self, coeffs, code, monkeypatch, capsys):
        # GeneralPoly reads Dedekind's criterion at 2 and 3 on construction,
        # for the certificate and the splittings split_at hands back; a
        # reducible f that is not maximal is refused as reducible (exit 4)
        # before exit 3
        calls = []
        criterion = splitting.dedekind_obstruction
        monkeypatch.setattr(
            splitting,
            "dedekind_obstruction",
            lambda f, p, factors: calls.append(p) or criterion(f, p, factors),
        )
        assert run(["compute", f"--poly={coeffs}"]) == code, capsys.readouterr().err
        assert sorted(calls) == [2, 3]

    def test_constructor_refuses_at_the_first_prime_not_maximal(self):
        # x^2 - 5 is not maximal at 2, x^2 - 18 is maximal at 2 and not at 3,
        # x^2 - 45 is maximal at neither: each is refused when built, at the
        # first of 2 and 3 where it is not maximal, with the text of exit 3
        routes = (
            "give its splitting of 2 and 3 through sl2ab.UserNumberField, or use "
            "--quadratic or --cyclotomic when the field is one of those"
        )
        for coeffs, p, obstruction in (
            ((-5, 0, 1), 2, "x+1"),
            ((-18, 0, 1), 3, "x"),
            ((-45, 0, 1), 2, "x+1"),
        ):
            f = IntPoly(coeffs)
            with pytest.raises(NotPMaximalError) as exc:
                GeneralPoly(f)
            assert exc.value.p == p
            assert str(exc.value) == (
                f"Z[x]/({f}) is not maximal at {p} (Dedekind criterion "
                f"obstruction: {obstruction}); {routes}"
            )
        # a form that is built hands back the splittings it stored
        field = GeneralPoly(IntPoly((-5, 0, 0, 1)))
        for p in (2, 3):
            assert field.split_at(p) is field.split_at(p)
            assert field.split_at(p) == dedekind_split(field.poly, p)
        with pytest.raises(ValueError):
            field.split_at(5)

    def test_user_supplied_char0(self):
        split2, split3 = Quadratic(3).splittings()
        spec = UserNumberField(
            degree=2, signature=Signature(2, 0), split2=split2, split3=split3
        )
        assert spec.split_at(2) is split2
        assert spec.signature == Signature(2, 0)
        assert spec.splittings() == (split2, split3)
        with pytest.raises(ValueError):
            UserNumberField(
                degree=3,
                signature=Signature(2, 0),  # r1 + 2 r2 != degree
                split2=split2,
                split3=split3,
            )
        with pytest.raises(ValueError):
            UserNumberField(
                degree=3,
                signature=Signature(3, 0),
                split2=split2,  # degree-2 data on a cubic
                split3=split3,
            )

    def test_user_supplied_charp(self):
        spec = UserFunctionField(degree=1, q=4, split_t=(), infinite_places=2)
        assert spec.degree == 1
        assert spec.characteristic == 2
        assert spec.splittings() == ()
        with pytest.raises(ValueError):
            UserFunctionField(degree=1, q=6)
        with pytest.raises(ValueError):
            UserFunctionField(degree=1, q=2, infinite_places=0)
        with pytest.raises(ValueError):
            UserFunctionField(degree=2, q=2, split_t=RationalFunction(2).splittings())

    def test_json_documents(self):
        # each form dumps as a JSON object that names its kind
        specs = {
            "rational": Rational(),
            "quadratic": Quadratic(-15),
            "cyclotomic": Cyclotomic(12),
            "poly": GeneralPoly(IntPoly((-5, 0, 0, 1))),
            "function_field": RationalFunction(9),
            "user": UserNumberField(
                degree=2,
                signature=Signature(2, 0),
                split2=Quadratic(3).split_at(2),
                split3=Quadratic(3).split_at(3),
            ),
        }
        for kind, spec in specs.items():
            doc = spec.to_json()
            assert doc["kind"] == kind
            assert json.loads(json.dumps(doc)) == doc
        assert UserFunctionField(degree=1, q=4, infinite_places=2).to_json() == {
            "kind": "user",
            "degree": 1,
            "q": 4,
            "infinite_places": 2,
            "split_t": [],
        }


@st.composite
def splitting_strategy(draw, p):
    degree = draw(st.integers(1, 8))
    remaining = degree
    primes = []
    while remaining:
        ef = draw(st.integers(1, remaining))
        divisors = [e for e in range(1, ef + 1) if ef % e == 0]
        e = draw(st.sampled_from(divisors))
        primes.append(PrimeAbove(p, e, ef // e, f"({p}, #{len(primes) + 1})"))
        remaining -= ef
    return SplittingData(p, degree, tuple(primes))


class TestSplittingProperties:
    @given(splitting_strategy(2))
    @settings(max_examples=200)
    def test_fundamental_identity_holds(self, data):
        assert sum(q.e * q.f for q in data.primes) == data.degree

    @given(st.sampled_from(SQUAREFREE_RANGE), st.sampled_from([2, 3]))
    def test_quadratic_identity(self, d, p):
        data = Quadratic(d).split_at(p)
        assert sum(q.e * q.f for q in data.primes) == 2

    @given(st.integers(1, 60), st.sampled_from([2, 3]))
    def test_cyclotomic_identity(self, n, p):
        data = Cyclotomic(n).split_at(p)
        assert sum(q.e * q.f for q in data.primes) == data.degree
