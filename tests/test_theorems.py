"""Tests for the structure formulas: the unit-rank gate, the per-prime
summand rules in characteristic 0 and p, and the compute pipeline with its
routing and warnings.  Every group here comes from compute()."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ab.abgroup import TRIVIAL_GROUP, AbelianGroup
from sl2ab.polyarith import IntPoly, is_squarefree
from sl2ab.splitting import (
    CYCLOTOMIC_LIMIT,
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
)
from sl2ab.theorems import (
    EMPTY_S,
    ArithmeticRingSpec,
    FiniteUnitsError,
    SSet,
    compute,
    known_small_cases,
    s_for_inverted,
    units_infinite,
)

Z12 = AbelianGroup(0, (12,))
Z3 = AbelianGroup(0, (3,))
V4 = AbelianGroup(0, (2, 2))


def group_of(field, s=EMPTY_S):
    return compute(ArithmeticRingSpec(field, s)).group


def user_field(split2, split3, sig):
    return UserNumberField(split2.degree, sig, split2, split3)


def galois_field(n, e2, f2, e3, f3, sig):
    """A degree-n field in which all primes above p share (e_p, f_p)."""
    return user_field(
        SplittingData.uniform(2, n, e2, f2), SplittingData.uniform(3, n, e3, f3), sig
    )


class TestSSet:
    def test_validation_and_count(self):
        s = SSet(frozenset({0}), frozenset({0, 1}), 2)
        assert s.finite_count == 5
        assert EMPTY_S.finite_count == 0
        with pytest.raises(ValueError):
            SSet(other_finite_primes=-1)
        with pytest.raises(ValueError):
            SSet(removed_above_2=frozenset({-1}))

    def test_json_document(self):
        s = SSet(frozenset({1}), frozenset(), 3)
        assert s.to_json() == {
            "removed_above_2": [1],
            "removed_above_3": [],
            "other_finite_primes": 3,
        }

    def test_s_for_inverted(self):
        assert s_for_inverted(6) == SSet(frozenset({0}), frozenset({0}), 0)
        assert s_for_inverted(2) == SSet(frozenset({0}), frozenset(), 0)
        assert s_for_inverted(9) == SSet(frozenset(), frozenset({0}), 0)
        assert s_for_inverted(35) == SSet(frozenset(), frozenset(), 2)
        assert s_for_inverted(30) == SSet(frozenset({0}), frozenset({0}), 1)
        # several integers: the union of their prime divisors
        assert s_for_inverted(10, 5, 21) == SSet(frozenset({0}), frozenset({0}), 2)
        with pytest.raises(ValueError):
            s_for_inverted(1)
        with pytest.raises(ValueError):
            s_for_inverted(6, 0)

    def test_s_for_inverted_bound(self):
        assert s_for_inverted(10**12) == SSet(frozenset({0}), frozenset(), 1)
        with pytest.raises(ValueError, match="at most"):
            s_for_inverted(10**12 + 1)

    def test_units_infinite(self):
        assert not units_infinite(Signature(1, 0).infinite_places, EMPTY_S)
        assert units_infinite(Signature(2, 0).infinite_places, EMPTY_S)
        assert units_infinite(
            Signature(0, 1).infinite_places, SSet(other_finite_primes=1)
        )
        assert not units_infinite(Signature(0, 1).infinite_places, EMPTY_S)


class TestChar0Formula:
    def test_argument_order_is_checked(self):
        split2, split3 = Quadratic(17).splittings()
        with pytest.raises(ValueError):
            UserNumberField(2, Signature(2, 0), split3, split2)

    def test_finite_units_gate(self):
        with pytest.raises(FiniteUnitsError) as exc:
            compute(ArithmeticRingSpec(Quadratic(-7)))
        assert str(exc.value) == (
            "infinitely many units are required (|S| >= 2), but |S| = 1 "
            "(1 infinite place(s), 0 finite); no known case covers this ring"
        )
        # a number field has at least one infinite place: a signature with
        # none matches no degree >= 1
        with pytest.raises(ValueError):
            UserNumberField(
                1,
                Signature(0, 0),
                SplittingData(2, 1, (PrimeAbove(2, 1, 1, "(2)"),)),
                SplittingData(3, 1, (PrimeAbove(3, 1, 1, "(3)"),)),
            )

    def test_summand_rules(self):
        # Z[1/5]: 2 and 3 both stay, each with e = f = 1 -> Z/4 + Z/3 = Z/12
        split2 = SplittingData(2, 1, (PrimeAbove(2, 1, 1, "(2)"),))
        split3 = SplittingData(3, 1, (PrimeAbove(3, 1, 1, "(3)"),))
        s = SSet(other_finite_primes=1)
        assert group_of(user_field(split2, split3, Signature(1, 0)), s) == Z12
        # ramified prime above 2 (e > 1, f = 1) gives Z/2 + Z/2 instead of Z/4
        ram2 = SplittingData(2, 2, (PrimeAbove(2, 2, 1, "(2, ramified)"),))
        inert3 = SplittingData(3, 2, (PrimeAbove(3, 1, 2, "(3, inert)"),))
        assert group_of(user_field(ram2, inert3, Signature(0, 1)), s) == V4
        # residue degree >= 2 contributes nothing on either side
        inert2 = SplittingData(2, 2, (PrimeAbove(2, 1, 2, "(2, inert)"),))
        assert (
            group_of(user_field(inert2, inert3, Signature(0, 1)), s) == TRIVIAL_GROUP
        )

    def test_removal_semantics(self):
        # 17: 2 splits (two primes, each -> Z/4); 17 = 2 mod 3: 3 inert, nothing
        assert group_of(Quadratic(17)) == AbelianGroup(0, (4, 4))
        one_removed = SSet(removed_above_2=frozenset({0}))
        assert group_of(Quadratic(17), one_removed) == AbelianGroup(0, (4,))
        with pytest.raises(ValueError) as exc:
            group_of(Quadratic(17), SSet(removed_above_2=frozenset({2})))
        assert str(exc.value) == "removal index 2 out of range: only 2 prime(s) above 2"


class TestQuadraticWrappers:
    """Quadratic rings through compute()."""

    def test_real_quadratic_values(self):
        expected = {
            5: TRIVIAL_GROUP,
            17: AbelianGroup(0, (4, 4)),
            7: AbelianGroup(0, (6, 6)),
            33: AbelianGroup(0, (4, 12)),
            2: V4,
            21: Z3,
            13: AbelianGroup(0, (3, 3)),
            3: AbelianGroup(0, (2, 6)),
        }
        for d, group in expected.items():
            assert group_of(Quadratic(d)) == group, f"d={d}"
        with pytest.raises(ValueError):
            Quadratic(12)

    def test_depends_only_on_d_mod_24(self):
        by_residue: dict[int, set[AbelianGroup]] = {}
        for d in range(2, 1001):
            if is_squarefree(d):
                by_residue.setdefault(d % 24, set()).add(group_of(Quadratic(d)))
        for residue, groups in by_residue.items():
            assert len(groups) == 1, f"residue {residue} gives {groups}"

    def test_imaginary_with_flags(self):
        # d = -15: the second prime above 2 inverted, the ramified prime above 3 stays
        assert group_of(Quadratic(-15), SSet(frozenset({1}))) == Z12
        # d = -5: the prime above 2 inverted, both split primes above 3 stay
        assert group_of(Quadratic(-5), SSet(frozenset({0}))) == AbelianGroup(
            0, (3, 3)
        )
        # inverting one of the primes above 3 drops one Z/3 summand
        assert group_of(Quadratic(-5), SSet(frozenset({0}), frozenset({1}))) == Z3

    def test_imaginary_unit_gate_and_flag_validation(self):
        with pytest.raises(FiniteUnitsError):
            group_of(Quadratic(-5))
        assert group_of(Quadratic(-1), SSet(frozenset({0}))) == TRIVIAL_GROUP
        assert group_of(Quadratic(-1), SSet(other_finite_primes=1)) == V4
        with pytest.raises(ValueError):
            group_of(Quadratic(-5), SSet(frozenset({0, 1}), frozenset({0, 1})))


class TestCharPFormula:
    def test_finite_units_gate(self):
        with pytest.raises(FiniteUnitsError):
            group_of(RationalFunction(2))

    def test_q2_and_q3(self):
        s = SSet(removed_above_2=frozenset({0}))
        assert group_of(RationalFunction(2), s) == V4  # (t-1) survives
        both = SSet(removed_above_2=frozenset({0, 1}))
        assert group_of(RationalFunction(2), both) == TRIVIAL_GROUP
        extra = SSet(other_finite_primes=1)
        assert group_of(RationalFunction(2), extra) == AbelianGroup(0, (2, 2, 2, 2))
        assert group_of(RationalFunction(3), extra) == AbelianGroup(0, (3, 3, 3))
        assert group_of(
            RationalFunction(3), SSet(removed_above_3=frozenset({1}))
        ) == AbelianGroup(0, (3, 3))

    def test_large_q_is_trivial(self):
        extra = SSet(other_finite_primes=1)
        for q in (4, 5, 8, 9, 25):
            assert group_of(RationalFunction(q), extra) == TRIVIAL_GROUP

    def test_wrong_slot_and_range_errors(self):
        with pytest.raises(ValueError) as exc:
            group_of(RationalFunction(2), SSet(removed_above_3=frozenset({0})))
        assert "slot 3 do not apply in characteristic 2 (use slot 2)" in str(exc.value)
        with pytest.raises(ValueError):
            group_of(RationalFunction(5), SSet(removed_above_2=frozenset({0})))
        with pytest.raises(ValueError) as exc:
            group_of(RationalFunction(2), SSet(removed_above_2=frozenset({2})))
        assert "only 2 relevant place(s)" in str(exc.value)
        with pytest.raises(ValueError):
            UserFunctionField(degree=1, q=6, infinite_places=2)


class TestGaloisWrapper:
    """Galois fields as user number fields through compute()."""

    def test_known_values(self):
        assert group_of(galois_field(3, 1, 1, 1, 1, Signature(3, 0))) == AbelianGroup(
            0, (12, 12, 12)
        )
        assert group_of(galois_field(4, 4, 1, 2, 1, Signature(0, 2))) == AbelianGroup(
            0, (6, 6)
        )
        assert group_of(galois_field(4, 1, 2, 1, 2, Signature(4, 0))) == TRIVIAL_GROUP
        # two ramified primes above 2 (Z/2+Z/2 each), four split above 3
        assert group_of(galois_field(4, 2, 1, 1, 1, Signature(0, 2))) == AbelianGroup(
            0, (6, 6, 6, 6)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SplittingData.uniform(2, 4, 3, 1)  # 3 does not divide 4
        with pytest.raises(ValueError):
            SplittingData.uniform(2, 4, 0, 1)

    def test_degree_bound(self):
        # up to degree primes are built at once; one prime of a degree past
        # every cyclotomic one is refused as well
        limit = CYCLOTOMIC_LIMIT
        assert SplittingData.uniform(2, limit, limit, 1).count == 1
        with pytest.raises(ValueError, match=f"at most {limit}, got {limit + 1}"):
            SplittingData.uniform(2, limit + 1, limit + 1, 1)


class TestCyclotomicWrapper:
    """Cyclotomic rings through compute()."""

    def test_values(self):
        expected = {
            1: Z12,
            2: Z12,
            3: Z3,
            6: Z3,
            4: V4,
            8: V4,
            16: V4,
            9: Z3,
            5: TRIVIAL_GROUP,
            7: TRIVIAL_GROUP,
            12: TRIVIAL_GROUP,
            24: TRIVIAL_GROUP,  # f = 2 above both 2 and 3
        }
        for n, group in expected.items():
            assert group_of(Cyclotomic(n)) == group, f"n={n}"

    def test_normalization(self):
        for n in (5, 9, 15):
            assert group_of(Cyclotomic(2 * n)) == group_of(Cyclotomic(n))


class TestKnownSmallCases:
    def test_covered_rings(self):
        assert known_small_cases(Rational()) == Z12
        assert known_small_cases(Quadratic(-1)) == V4
        assert known_small_cases(Quadratic(-3)) == Z3
        assert known_small_cases(Quadratic(-15)) == AbelianGroup(2, (12,))
        assert known_small_cases(Cyclotomic(1)) == Z12
        assert known_small_cases(Cyclotomic(4)) == V4
        assert known_small_cases(Cyclotomic(6)) == Z3

    def test_not_covered_is_none_not_an_error(self):
        assert known_small_cases(Quadratic(-7)) is None
        assert known_small_cases(Cyclotomic(5)) is None
        # matching is by literal field form: a polynomial that happens to
        # define the same field as Quadratic(-1) is not recognized
        assert known_small_cases(GeneralPoly(IntPoly((1, 0, 1)))) is None
        # a nonempty finite part of S always leaves the covered list
        assert known_small_cases(Rational(), SSet(other_finite_primes=1)) is None


class TestComputePipeline:
    def test_rational_routes(self):
        out = compute(ArithmeticRingSpec(Rational()))
        assert out.route == "known-case"
        assert out.group == Z12
        assert any("literature value" in w for w in out.warnings)
        assert len(out.splittings) == 2
        out = compute(ArithmeticRingSpec(Rational(), s_for_inverted(5)))
        assert out.route == "Main"
        assert out.group == Z12
        assert [c.summand for c in out.contributions] == ["Z/4", "Z/3"]
        assert not out.warnings

    def test_quadratic_route(self):
        out = compute(ArithmeticRingSpec(Quadratic(10)))
        assert out.route == "quadratic"
        assert out.group == AbelianGroup(0, (6, 6))
        out = compute(ArithmeticRingSpec(Quadratic(-15)))
        assert out.route == "known-case"
        assert out.group == AbelianGroup(2, (12,))
        with pytest.raises(FiniteUnitsError) as exc:
            compute(ArithmeticRingSpec(Quadratic(-7)))
        assert "no known case covers this ring" in str(exc.value)

    def test_cyclotomic_route(self):
        out = compute(ArithmeticRingSpec(Cyclotomic(8)))
        assert out.route == "cyclotomic"
        assert out.group == V4
        assert compute(ArithmeticRingSpec(Cyclotomic(4))).route == "known-case"

    def test_poly_route(self):
        out = compute(ArithmeticRingSpec(GeneralPoly(IntPoly((-5, 0, 0, 1)))))
        assert out.route == "Main"
        assert out.group == Z12
        assert not out.warnings
        assert [c.prime for c in out.contributions] == ["(2, x+1)", "(3, x+1)"]
        # x^4 + 1: reducible mod every prime, certified irreducible over Q
        out = compute(ArithmeticRingSpec(GeneralPoly(IntPoly((1, 0, 0, 0, 1)))))
        assert out.group == V4
        assert not out.warnings
        with pytest.raises(ValueError):
            compute(ArithmeticRingSpec(GeneralPoly(IntPoly((-1, 0, 1)))))
        with pytest.raises(ValueError, match="reducible over Q"):
            compute(ArithmeticRingSpec(GeneralPoly(IntPoly((2, 0, 3, 0, 1)))))
        with pytest.raises(NotPMaximalError):
            compute(ArithmeticRingSpec(GeneralPoly(IntPoly((-5, 0, 1)))))
        with pytest.raises(FiniteUnitsError):
            compute(ArithmeticRingSpec(GeneralPoly(IntPoly((5, 0, 1)))))

    def test_function_field_route(self):
        with pytest.raises(FiniteUnitsError):
            compute(ArithmeticRingSpec(RationalFunction(2)))
        out = compute(
            ArithmeticRingSpec(
                RationalFunction(2), SSet(removed_above_2=frozenset({0}))
            )
        )
        assert out.route == "main2"
        assert out.group == V4
        assert [c.prime for c in out.contributions] == ["(t-1)"]
        out = compute(
            ArithmeticRingSpec(RationalFunction(9), SSet(other_finite_primes=1))
        )
        assert out.group == TRIVIAL_GROUP
        assert out.splittings == ()

    def test_user_supplied_routes(self):
        char0 = UserNumberField(
            degree=2,
            signature=Signature(2, 0),
            split2=Quadratic(3).split_at(2),
            split3=Quadratic(3).split_at(3),
        )
        out = compute(ArithmeticRingSpec(char0))
        assert out.route == "Main"
        assert out.group == group_of(Quadratic(3))
        charp = UserFunctionField(
            degree=1,
            q=2,
            split_t=RationalFunction(2).splittings(),
            infinite_places=2,
        )
        out = compute(ArithmeticRingSpec(charp))
        assert out.route == "main2"
        assert out.group == AbelianGroup(0, (2, 2, 2, 2))

    def test_outcome_json_shape(self):
        out = compute(ArithmeticRingSpec(Rational(), s_for_inverted(6)))
        doc = out.to_json()
        assert doc["route"] == "Main"
        assert doc["group"] == {"free_rank": 0, "invariant_factors": []}
        assert doc["contributions"] == []
        assert doc["input"] == {
            "field": {"kind": "rational"},
            "s": {
                "other_finite_primes": 0,
                "removed_above_2": [0],
                "removed_above_3": [0],
            },
        }
        assert doc["warnings"] == []
        assert [sp["p"] for sp in doc["splittings"]] == [2, 3]

    def test_galois_result(self):
        out = compute(ArithmeticRingSpec(galois_field(3, 1, 1, 1, 1, Signature(3, 0))))
        assert out.route == "Main"
        assert out.group == AbelianGroup(0, (12, 12, 12))
        assert [c.prime for c in out.contributions] == [
            "(2, #1 of 3)",
            "(2, #2 of 3)",
            "(2, #3 of 3)",
            "(3, #1 of 3)",
            "(3, #2 of 3)",
            "(3, #3 of 3)",
        ]


@st.composite
def splitting_strategy(draw, p, degree):
    remaining = degree
    primes = []
    while remaining:
        ef = draw(st.integers(1, remaining))
        divisors = [e for e in range(1, ef + 1) if ef % e == 0]
        e = draw(st.sampled_from(divisors))
        primes.append(PrimeAbove(p, e, ef // e, f"({p}, #{len(primes) + 1})"))
        remaining -= ef
    return SplittingData(p, degree, tuple(primes))


@st.composite
def number_field_strategy(draw):
    """A user number field: one degree for both primes, r1 + 2 r2 = degree."""
    degree = draw(st.integers(1, 8))
    r2 = draw(st.integers(0, degree // 2))
    return UserNumberField(
        degree,
        Signature(degree - 2 * r2, r2),
        draw(splitting_strategy(2, degree)),
        draw(splitting_strategy(3, degree)),
    )


class TestFormulaProperties:
    @given(number_field_strategy(), st.integers(0, 3))
    @settings(max_examples=200)
    def test_char0_exponent_divides_12(self, field, extra):
        s = SSet(other_finite_primes=extra)
        if field.infinite_places + extra < 2:
            with pytest.raises(FiniteUnitsError):
                group_of(field, s)
            return
        g = group_of(field, s)
        assert g.free_rank == 0
        assert 12 % g.exponent() == 0

    @given(
        st.sampled_from([2, 3, 4, 5, 8, 9]),
        st.integers(1, 3),
        st.integers(0, 2),
    )
    @settings(max_examples=150)
    def test_charp_exponent_divides_6(self, q, infinite, extra):
        field = UserFunctionField(
            degree=1,
            q=q,
            split_t=RationalFunction(q).splittings(),
            infinite_places=infinite,
        )
        s = SSet(other_finite_primes=extra)
        if infinite + extra < 2:
            with pytest.raises(FiniteUnitsError):
                group_of(field, s)
            return
        g = group_of(field, s)
        assert 6 % g.exponent() == 0

    @given(st.integers(2, 500))
    def test_real_quadratic_exponent_divides_12(self, d):
        if not is_squarefree(d):
            return
        g = group_of(Quadratic(d))
        assert 12 % g.exponent() == 0
