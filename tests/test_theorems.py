"""Tests for the structure formulas: the unit-rank gate, the per-prime
summand rules in characteristic 0 and p, and the compute pipeline with its
routing and warnings.  Every group here comes from compute()."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ab import theorems
from sl2ab.abgroup import TRIVIAL_GROUP, AbelianGroup, direct_sum
from sl2ab.polyarith import INTEGER_LIMIT, IntPoly, is_squarefree
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
    FiniteUnitsError,
    SSet,
    compute,
    s_for_inverted,
    s_for_primes,
)

Z12 = AbelianGroup(0, (12,))
Z3 = AbelianGroup(0, (3,))
V4 = AbelianGroup(0, (2, 2))


def group_of(field, s=EMPTY_S):
    return compute(field, s).group


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

    def test_other_primes_bound(self):
        # the count is printed in reports, so it is bounded like every other
        # integer a caller supplies, and named by its digit count past it
        assert SSet(other_finite_primes=INTEGER_LIMIT).finite_count == INTEGER_LIMIT
        with pytest.raises(ValueError) as info:
            SSet(other_finite_primes=10**4000)
        assert str(info.value) == (
            f"|other_finite_primes| must be at most {INTEGER_LIMIT}, "
            "got a 4001-digit number"
        )

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
        # one shared, frozen S-set per shape
        assert s_for_inverted(6) is s_for_inverted(12, 18)
        assert s_for_inverted(35) is s_for_inverted(5, 7)
        # the same S-sets from the primes themselves, a set or a factorization
        assert s_for_primes({2, 3}) is s_for_inverted(6)
        assert s_for_primes({5: 1, 7: 2}) is s_for_inverted(245)
        for _ in range(2):  # a refused input is refused again, not cached
            with pytest.raises(ValueError):
                s_for_inverted(1)
            with pytest.raises(ValueError, match="at most"):
                s_for_inverted(10**12 + 1)
        maxsize = theorems._inverted_shape.cache_parameters()["maxsize"]
        assert maxsize == theorems._INVERTED_SHAPE_CACHE_SIZE

    def test_s_for_inverted_bound(self):
        assert s_for_inverted(10**12) == SSet(frozenset({0}), frozenset(), 1)
        with pytest.raises(ValueError, match="at most"):
            s_for_inverted(10**12 + 1)

    def test_unit_rank_gate(self):
        # |S| = infinite places + finite primes; the formulas need |S| >= 2.
        # User-supplied fields match no known case, so |S| < 2 is refused.
        one, two = Rational().splittings(), Quadratic(10).splittings()
        z6z6 = AbelianGroup(0, (6, 6))
        for sig, split, s, group in (
            (Signature(1, 0), one, EMPTY_S, None),
            (Signature(2, 0), two, EMPTY_S, z6z6),
            (Signature(0, 1), two, SSet(other_finite_primes=1), z6z6),
            (Signature(0, 1), two, EMPTY_S, None),
        ):
            field = user_field(*split, sig)
            if group is None:
                with pytest.raises(FiniteUnitsError):
                    compute(field, s)
            else:
                assert compute(field, s).group == group, sig

    def test_degree_opens_the_gate_for_number_fields_only(self):
        # r1 + 2 r2 = n gives a number field of degree n >= 3 two infinite
        # places at least; a function field's places at infinity do not
        # follow from its degree, so one of them and an empty S stay refused
        for degree in (1, 3, 5):
            with pytest.raises(FiniteUnitsError):
                compute(UserFunctionField(degree, 5))
        two = UserFunctionField(3, 5, infinite_places=2)
        assert compute(two).group == TRIVIAL_GROUP
        cubic = GeneralPoly(IntPoly((-5, 0, 0, 1)))
        assert compute(cubic).group == AbelianGroup(0, (12,))


class TestChar0Formula:
    def test_argument_order_is_checked(self):
        split2, split3 = Quadratic(17).splittings()
        with pytest.raises(ValueError):
            UserNumberField(2, Signature(2, 0), split3, split2)

    def test_finite_units_gate(self):
        with pytest.raises(FiniteUnitsError) as exc:
            compute(Quadratic(-7))
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
        # F_q(t) lists no place past q = 3; a user field over F_4 with a
        # degree-one place t - a reaches the guard: its residue field is F_4
        place = SplittingData(2, 1, (PrimeAbove(2, 1, 1, "(t)"),))
        field = UserFunctionField(degree=1, q=4, split_t=(place,), infinite_places=2)
        out = compute(field)
        assert out.group == TRIVIAL_GROUP
        assert out.contributions == ()

    def test_places_are_numbered_across_splittings(self):
        # two splittings of two degree-one places each: indices 0, 1 and then
        # 2, 3, so removing index 3 leaves the first three places
        labels = ["(t, P1)", "(t, P2)", "(t-1, P1)", "(t-1, P2)"]
        split_t = tuple(
            SplittingData(2, 2, tuple(PrimeAbove(2, 1, 1, label) for label in pair))
            for pair in (labels[:2], labels[2:])
        )
        field = UserFunctionField(degree=2, q=2, split_t=split_t)
        out = compute(field, SSet(removed_above_2=frozenset({3})))
        assert [c.prime for c in out.contributions] == labels[:3]
        assert out.group == AbelianGroup(0, (2,) * 6)

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
        # -4 is divisible by e f = 2, but there is no splitting of degree -4
        negatives = ((0, "0"), (-4, "-4"), (-(10**4000), "a 4001-digit number"))
        for degree, shown in negatives:
            with pytest.raises(ValueError) as info:
                SplittingData.uniform(2, degree, 1, 2)
            assert str(info.value) == f"degree must be >= 1, got {shown}"

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


KNOWN_CASE_WARNING = (
    "the unit group is finite (|S| >= 2 fails); reporting a known "
    "literature value, not a structure-formula result"
)


class TestKnownCases:
    def test_covered_rings(self):
        for field, group in (
            (Rational(), Z12),
            (Quadratic(-1), V4),
            (Quadratic(-3), Z3),
            (Quadratic(-15), AbelianGroup(2, (12,))),
            (Cyclotomic(1), Z12),
            (Cyclotomic(4), V4),
            (Cyclotomic(6), Z3),
        ):
            out = compute(field)
            assert out.route == "known-case", field
            assert out.group == group, field
            assert out.warnings == (KNOWN_CASE_WARNING,), field
            assert out.contributions == ()

    def test_not_covered(self):
        with pytest.raises(FiniteUnitsError):
            compute(Quadratic(-7))
        # |S| = 2 already: the formula applies, no known case is consulted
        out = compute(Cyclotomic(5))
        assert (out.route, out.group, out.warnings) == ("cyclotomic", TRIVIAL_GROUP, ())
        # matching is by literal field form: a polynomial that happens to
        # define the same field as Quadratic(-1) is not recognized
        with pytest.raises(FiniteUnitsError):
            compute(GeneralPoly(IntPoly((1, 0, 1))))
        # a nonempty finite part of S leaves the known cases for the formula
        out = compute(Rational(), SSet(other_finite_primes=1))
        assert (out.route, out.group, out.warnings) == ("Main", Z12, ())


class TestComputePipeline:
    def test_rational_routes(self):
        out = compute(Rational())
        assert out.route == "known-case"
        assert out.group == Z12
        assert any("literature value" in w for w in out.warnings)
        assert len(out.splittings) == 2
        out = compute(Rational(), s_for_inverted(5))
        assert out.route == "Main"
        assert out.group == Z12
        assert [c.summand for c in out.contributions] == ["Z/4", "Z/3"]
        assert not out.warnings

    def test_quadratic_route(self):
        out = compute(Quadratic(10))
        assert out.route == "quadratic"
        assert out.group == AbelianGroup(0, (6, 6))
        out = compute(Quadratic(-15))
        assert out.route == "known-case"
        assert out.group == AbelianGroup(2, (12,))
        with pytest.raises(FiniteUnitsError) as exc:
            compute(Quadratic(-7))
        assert "no known case covers this ring" in str(exc.value)

    def test_cyclotomic_route(self):
        out = compute(Cyclotomic(8))
        assert out.route == "cyclotomic"
        assert out.group == V4
        assert compute(Cyclotomic(4)).route == "known-case"

    def test_poly_route(self):
        out = compute(GeneralPoly(IntPoly((-5, 0, 0, 1))))
        assert out.route == "Main"
        assert out.group == Z12
        assert not out.warnings
        assert [c.prime for c in out.contributions] == ["(2, x+1)", "(3, x+1)"]
        # x^4 + 1: reducible mod every prime, certified irreducible over Q
        out = compute(GeneralPoly(IntPoly((1, 0, 0, 0, 1))))
        assert out.group == V4
        assert not out.warnings
        with pytest.raises(ValueError):
            compute(GeneralPoly(IntPoly((-1, 0, 1))))
        with pytest.raises(ValueError, match="reducible over Q"):
            compute(GeneralPoly(IntPoly((2, 0, 3, 0, 1))))
        with pytest.raises(NotPMaximalError):
            compute(GeneralPoly(IntPoly((-5, 0, 1))))
        with pytest.raises(FiniteUnitsError):
            compute(GeneralPoly(IntPoly((5, 0, 1))))

    def test_function_field_route(self):
        with pytest.raises(FiniteUnitsError):
            compute(RationalFunction(2))
        out = compute(RationalFunction(2), SSet(removed_above_2=frozenset({0})))
        assert out.route == "main2"
        assert out.group == V4
        assert [c.prime for c in out.contributions] == ["(t-1)"]
        out = compute(RationalFunction(9), SSet(other_finite_primes=1))
        assert out.group == TRIVIAL_GROUP
        assert out.splittings == ()

    def test_user_supplied_routes(self):
        char0 = UserNumberField(
            degree=2,
            signature=Signature(2, 0),
            split2=Quadratic(3).split_at(2),
            split3=Quadratic(3).split_at(3),
        )
        out = compute(char0)
        assert out.route == "Main"
        assert out.group == group_of(Quadratic(3))
        charp = UserFunctionField(
            degree=1,
            q=2,
            split_t=RationalFunction(2).splittings(),
            infinite_places=2,
        )
        out = compute(charp)
        assert out.route == "main2"
        assert out.group == AbelianGroup(0, (2, 2, 2, 2))

    def test_outcome_json_shape(self):
        out = compute(Rational(), s_for_inverted(6))
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

    def test_records_are_immutable_values(self):
        out = compute(Quadratic(10))
        contribution = out.contributions[0]
        for record, name in ((out, "group"), (out, "route"), (contribution, "prime")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        # equality is field by field
        assert out == compute(Quadratic(10)) and out != compute(Quadratic(13))
        prime, group = contribution
        assert contribution == type(contribution)(prime, group)
        assert contribution != type(contribution)("(2, other)", group)

    def test_cyclotomic_residue_degree_is_found_when_read(self, monkeypatch):
        # f > 1 at both 2 and 3 for n = 7, so the group reads no order, and
        # reading the primes (or checking an index against their count)
        # finds it once per splitting
        from sl2ab import splitting

        calls = []
        order = splitting.multiplicative_order
        monkeypatch.setattr(
            splitting, "multiplicative_order", lambda *a: calls.append(a) or order(*a)
        )
        out = compute(Cyclotomic(7))
        assert out.group == TRIVIAL_GROUP and calls == []
        assert [sp.count for sp in out.splittings] == [2, 1]  # f = 3 and 6
        assert calls == [(2, 7, 6), (3, 7, 6)]
        assert [len(sp.primes) for sp in out.splittings] == [2, 1]
        assert len(calls) == 2
        with pytest.raises(ValueError, match="only 2 prime"):
            compute(Cyclotomic(7), SSet(removed_above_2=frozenset({2})))

    def test_galois_result(self):
        out = compute(galois_field(3, 1, 1, 1, 1, Signature(3, 0)))
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


def assert_sum_of_contributions(out):
    """compute()'s group is the direct sum of its contributions; with none,
    it is TRIVIAL_GROUP itself, and only then is it trivial."""
    assert out.group == direct_sum(*(c.group for c in out.contributions))
    assert (out.group == TRIVIAL_GROUP) == (out.contributions == ())
    if out.contributions == ():
        assert out.group is TRIVIAL_GROUP


class TestFormulaProperties:
    @given(number_field_strategy(), st.integers(0, 3))
    @settings(max_examples=200)
    def test_char0_exponent_divides_12(self, field, extra):
        s = SSet(other_finite_primes=extra)
        if field.infinite_places + extra < 2:
            with pytest.raises(FiniteUnitsError):
                group_of(field, s)
            return
        out = compute(field, s)
        assert_sum_of_contributions(out)
        g = out.group
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
        out = compute(field, s)
        assert_sum_of_contributions(out)
        assert 6 % out.group.exponent() == 0

    @given(st.integers(2, 500))
    def test_real_quadratic_exponent_divides_12(self, d):
        if not is_squarefree(d):
            return
        g = group_of(Quadratic(d))
        assert 12 % g.exponent() == 0


def test_readme_library_block():
    """The README's Library block runs, and each line commented with an
    AbelianGroup(...) is that value: its expression is evaluated and compared."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        shown = re.search(r"# (AbelianGroup\(.*\))$", lines[stmt.end_lineno - 1])
        if shown is None:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == eval(shown[1], {"AbelianGroup": AbelianGroup}), shown[1]
        checked += 1
    assert checked == block.count("# AbelianGroup(") >= 4
