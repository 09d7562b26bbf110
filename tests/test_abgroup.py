"""Tests for finitely generated abelian groups in invariant-factor form."""

from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ab.abgroup import (
    TRIVIAL_GROUP,
    AbelianGroup,
    canonicalize,
    direct_sum,
    from_relations,
)
from sl2ab.polyarith import INTEGER_LIMIT


class TestConstruction:
    def test_validates_divisibility_chain(self):
        AbelianGroup(0, (4, 12))
        AbelianGroup(2, (12,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (12, 4))
        with pytest.raises(ValueError):
            AbelianGroup(0, (2, 3))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1, 2))
        with pytest.raises(ValueError):
            AbelianGroup(-1, ())

    def test_chain_refusal_names_the_first_bad_pair(self):
        with pytest.raises(ValueError) as info:
            AbelianGroup(0, (2, 4, 6, 5))
        assert str(info.value) == "not a divisibility chain: 4 does not divide 6"
        # a long torsion tuple is not printed, a long factor is named by its digits
        with pytest.raises(ValueError) as info:
            AbelianGroup(0, (2,) * 100_000 + (3,))
        assert str(info.value) == "not a divisibility chain: 2 does not divide 3"
        with pytest.raises(ValueError) as info:
            AbelianGroup(0, (3, 10**4000))
        assert str(info.value) == (
            "not a divisibility chain: 3 does not divide a 4001-digit number"
        )

    def test_order_and_exponent(self):
        g = AbelianGroup(0, (4, 12))
        assert g.order() == 48
        assert g.exponent() == 12
        assert TRIVIAL_GROUP.order() == 1
        assert TRIVIAL_GROUP.exponent() == 1
        free = AbelianGroup(1, (2,))
        assert free.order() is None
        assert free.exponent() is None

    def test_primary_parts(self):
        assert AbelianGroup(0, (12,)).primary_parts() == ((2, 2), (3, 1))
        assert AbelianGroup(0, (2, 6)).primary_parts() == ((2, 1), (2, 1), (3, 1))
        assert TRIVIAL_GROUP.primary_parts() == ()

    def test_str(self):
        assert str(TRIVIAL_GROUP) == "0"
        assert str(AbelianGroup(1, ())) == "Z"
        assert str(AbelianGroup(2, ())) == "Z^2"
        assert str(AbelianGroup(0, (4, 12))) == "Z/4 + Z/12"
        assert str(AbelianGroup(2, (12,))) == "Z/12 + Z^2"

    def test_primary_str(self):
        assert AbelianGroup(0, (12,)).primary_str() == "Z/3 + Z/4"
        assert AbelianGroup(0, (2, 6)).primary_str() == "(Z/2)^2 + Z/3"
        assert TRIVIAL_GROUP.primary_str() == "0"

    def test_json_document(self):
        g = AbelianGroup(1, (2, 6))
        assert g.to_json() == {"free_rank": 1, "invariant_factors": [2, 6]}


def reference_canonicalize(factors, free_rank=0):
    """Invariant factors by pairwise (gcd, lcm) exchange, with no memo: after
    row i, entry i divides every later entry, and each exchange keeps the
    multiset of prime powers."""
    fs = list(factors)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            fs[i], fs[j] = gcd(fs[i], fs[j]), lcm(fs[i], fs[j])
    return AbelianGroup(free_rank, tuple(f for f in fs if f > 1))


class TestCanonicalize:
    def test_known_forms(self):
        assert canonicalize([12, 4]) == AbelianGroup(0, (4, 12))
        assert canonicalize([2, 3]) == AbelianGroup(0, (6,))
        assert canonicalize([4, 6]) == AbelianGroup(0, (2, 12))
        assert canonicalize([2, 2, 3, 3]) == AbelianGroup(0, (6, 6))
        assert canonicalize([8, 3, 9, 2]) == AbelianGroup(0, (6, 72))
        assert canonicalize([]) == TRIVIAL_GROUP
        assert canonicalize([5], free_rank=2) == AbelianGroup(2, (5,))

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            canonicalize([1, 2])
        with pytest.raises(ValueError):
            canonicalize([0])
        # a rejected input is not memoized: it raises again
        for _ in range(2):
            with pytest.raises(ValueError):
                canonicalize([1])

    def test_bounds_factors_before_factoring(self):
        # 2^40 factors at once, but a prime past INTEGER_LIMIT would run
        # trial division for minutes: every value past it is refused
        big = 2**40
        message = f"must be at most {INTEGER_LIMIT}, got {big}"
        assert canonicalize([INTEGER_LIMIT]).torsion == (INTEGER_LIMIT,)
        with pytest.raises(ValueError, match=message):
            canonicalize([big])
        with pytest.raises(ValueError, match=message):
            from_relations([[big]], 1)
        with pytest.raises(ValueError, match=message):
            AbelianGroup(0, (big,)).primary_str()

    @given(
        st.lists(st.integers(2, 64), max_size=8),
        st.integers(0, 3),
        st.randoms(use_true_random=False),
    )
    def test_memoized_matches_reference(self, factors, free_rank, rng):
        want = reference_canonicalize(factors, free_rank)
        shuffled = list(factors)
        rng.shuffle(shuffled)
        assert canonicalize(shuffled, free_rank) == want
        assert canonicalize((f for f in factors), free_rank) == want
        assert canonicalize(factors, free_rank) == want

    @given(st.lists(st.integers(2, 40), max_size=6))
    def test_idempotent_and_order_preserving(self, factors):
        g = canonicalize(factors)
        assert canonicalize(g.torsion) == g
        prod = 1
        for d in factors:
            prod *= d
        assert g.order() == prod
        if g.torsion:
            assert g.exponent() == g.torsion[-1]
            assert g.exponent() == lcm(*factors)

    @given(st.lists(st.integers(2, 40), max_size=6))
    def test_invariant_under_permutation(self, factors):
        assert canonicalize(factors) == canonicalize(sorted(factors, reverse=True))


class TestDirectSum:
    def test_examples(self):
        assert direct_sum(AbelianGroup(0, (4,)), AbelianGroup(0, (3,))) == AbelianGroup(
            0, (12,)
        )
        assert direct_sum(
            AbelianGroup(0, (2, 2)), AbelianGroup(0, (3, 3))
        ) == AbelianGroup(0, (6, 6))
        assert direct_sum(AbelianGroup(1, (2,)), AbelianGroup(2, (6,))) == AbelianGroup(
            3, (2, 6)
        )
        assert direct_sum(TRIVIAL_GROUP, TRIVIAL_GROUP) == TRIVIAL_GROUP
        assert direct_sum(TRIVIAL_GROUP, AbelianGroup(0, (7,))) == AbelianGroup(0, (7,))

    def test_any_number_of_groups(self):
        assert direct_sum() == TRIVIAL_GROUP
        assert direct_sum(AbelianGroup(1, (4,))) == AbelianGroup(1, (4,))
        groups = [AbelianGroup(0, (4,)), AbelianGroup(0, (2, 2)), AbelianGroup(2, (3,))]
        assert direct_sum(*groups) == AbelianGroup(2, (2, 2, 12))

    @given(st.lists(st.lists(st.integers(2, 20), max_size=3), max_size=4))
    def test_equals_the_pairwise_sums(self, factor_lists):
        groups = [canonicalize(xs, len(xs) % 2) for xs in factor_lists]
        pairwise = TRIVIAL_GROUP
        for g in groups:
            pairwise = direct_sum(pairwise, g)
        assert direct_sum(*groups) == pairwise

    @given(
        st.lists(st.integers(2, 20), max_size=4),
        st.lists(st.integers(2, 20), max_size=4),
    )
    def test_order_multiplicative(self, xs, ys):
        a, b = canonicalize(xs), canonicalize(ys)
        assert direct_sum(a, b).order() == a.order() * b.order()
        assert direct_sum(a, b) == direct_sum(b, a)


def unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1: the identity after
    random row additions, swaps and sign changes."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i], m[j] = [-a for a in m[j]], m[i]
    return m


def matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def mixed_relations(rng, diagonal):
    """Rows presenting Z^n / <diagonal>, n = len(diagonal), in other bases:
    U D V for random unimodular U and V, plus a repeated row and the sum of
    the first two, which add nothing to the lattice."""
    n = len(diagonal)
    d = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    rows = matmul(matmul(unimodular(rng, n), d), unimodular(rng, n))
    if n > 1:
        rows += [rows[0], [a + b for a, b in zip(rows[0], rows[1])]]
    rng.shuffle(rows)
    return rows


class TestFromRelations:
    def test_known_groups(self):
        assert from_relations([[12]], 1) == AbelianGroup(0, (12,))
        assert from_relations([[2, 0], [0, 4]], 2) == AbelianGroup(0, (2, 4))
        assert from_relations([], 0) == TRIVIAL_GROUP
        assert from_relations([[2, 0], [0, 2]], 2) == AbelianGroup(0, (2, 2))
        # not diagonal: gcd of the entries 2 and determinant -20
        assert from_relations([[4, 6], [6, 4]], 2) == AbelianGroup(0, (2, 10))
        assert from_relations([[2, 4], [0, 6]], 2) == AbelianGroup(0, (2, 6))
        assert from_relations([[1, 5], [0, 7]], 2) == AbelianGroup(0, (7,))
        # repeated and zero rows add nothing
        rows = [[3, 0], [3, 0], [0, 0], [0, -1], [6, 5]]
        assert from_relations(rows, 2) == AbelianGroup(0, (3,))
        assert from_relations(iter([(5, 0), (0, 5)]), 2) == AbelianGroup(0, (5, 5))

    def test_rejects_relations_not_of_full_rank(self):
        # Z^2 / <(2, 4)> is Z/2 + Z, and Z / <> is Z: infinite quotients
        for rows, n in (([[2, 4]], 2), ([[1, 1], [2, 2]], 2), ([], 1), ([[0, 0]], 2)):
            with pytest.raises(ValueError, match="rank"):
                from_relations(rows, n)

    @given(st.lists(st.integers(2, 16), max_size=4), st.integers(0, 2), st.randoms())
    @settings(max_examples=120)
    def test_inverts_mixed_diagonal_relations(self, factors, extra, rng):
        # extra generators killed by a relation 1 mix with the others
        g = canonicalize(factors)
        rows = mixed_relations(rng, list(factors) + [1] * extra)
        assert from_relations(rows, len(factors) + extra) == g
