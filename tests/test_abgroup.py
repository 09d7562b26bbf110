"""Tests for finitely generated abelian groups in invariant-factor form."""

import itertools
from collections import Counter
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ab.abgroup import (
    TRIVIAL_GROUP,
    AbelianGroup,
    InvalidProfileError,
    canonicalize,
    direct_sum,
    from_order_statistics,
)


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

    def test_order_and_exponent(self):
        g = AbelianGroup(0, (4, 12))
        assert g.order() == 48
        assert g.exponent() == 12
        assert TRIVIAL_GROUP.order() == 1
        assert TRIVIAL_GROUP.exponent() == 1
        free = AbelianGroup(1, (2,))
        assert free.order() is None
        assert free.exponent() is None
        assert not free.is_trivial
        assert TRIVIAL_GROUP.is_trivial

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

    def test_json_round_trip(self):
        g = AbelianGroup(1, (2, 6))
        assert g.to_json() == {"free_rank": 1, "invariant_factors": [2, 6]}
        assert AbelianGroup.from_json(g.to_json()) == g
        # non-chain input is canonicalized on the way in
        assert AbelianGroup.from_json(
            {"free_rank": 0, "invariant_factors": [4, 3]}
        ) == AbelianGroup(0, (12,))


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

    @given(
        st.lists(st.integers(2, 20), max_size=4),
        st.lists(st.integers(2, 20), max_size=4),
    )
    def test_order_multiplicative(self, xs, ys):
        a, b = canonicalize(xs), canonicalize(ys)
        assert direct_sum(a, b).order() == a.order() * b.order()
        assert direct_sum(a, b) == direct_sum(b, a)


def brute_order_profile(torsion):
    """Element-order census of Z/d1 x ... x Z/dk by direct enumeration."""
    counts = Counter()
    for tup in itertools.product(*(range(d) for d in torsion)):
        o = 1
        for x, d in zip(tup, torsion):
            o = lcm(o, d // gcd(x, d))
        counts[o] += 1
    return dict(counts)


class TestFromOrderStatistics:
    def test_known_profiles(self):
        assert from_order_statistics(
            {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}
        ) == AbelianGroup(0, (12,))
        assert from_order_statistics({1: 1, 2: 3, 4: 4}) == AbelianGroup(0, (2, 4))
        assert from_order_statistics({1: 1}) == TRIVIAL_GROUP
        assert from_order_statistics({1: 1, 2: 3}) == AbelianGroup(0, (2, 2))

    def test_rejects_nonabelian_profiles(self):
        # the quaternion group of order 8: one element of order 2, six of order 4
        with pytest.raises(InvalidProfileError):
            from_order_statistics({1: 1, 2: 1, 4: 6})
        with pytest.raises(InvalidProfileError):
            from_order_statistics({1: 2, 2: 2})
        with pytest.raises(InvalidProfileError):
            from_order_statistics({2: 3})
        with pytest.raises(InvalidProfileError):
            from_order_statistics({1: 1, 2: 2})  # 3 elements of 2-power order
        assert issubclass(InvalidProfileError, ValueError)

    @given(st.lists(st.integers(2, 16), max_size=4))
    @settings(max_examples=120)
    def test_inverts_direct_enumeration(self, factors):
        g = canonicalize(factors)
        if g.order() > 400:
            return
        assert from_order_statistics(brute_order_profile(g.torsion)) == g
