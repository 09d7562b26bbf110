"""Tests for the brute-force SL2 engine: ring construction, enumeration,
generation by elementary matrices, the orbit of e1 on the unimodular
columns, abelianizations, the enumeration budget, and the local-ring closed
form.  The abelianization read from the orbit, the ring tables and the
|R|^3 enumeration are compared with test-only references: the closure of
all pairwise commutators with an order profile read from a coset dict over
the whole group, elementwise ring tables, the |R|^4 determinant scan and a
local formula that sums over the irreducible factors of h mod p."""

import itertools
import json
import random
import time
from functools import cached_property
from math import gcd, lcm, prod

import pytest

from sl2ab import oracle, polyarith
from sl2ab.abgroup import (
    TRIVIAL_GROUP,
    AbelianGroup,
    canonicalize,
    direct_sum,
    from_relations,
)
from sl2ab.oracle import (
    DEFAULT_RING_CAP,
    BudgetExceededError,
    FiniteRing,
    FiniteRingSpec,
    RingFactor,
    prop_local_formula,
    sl2ab_by_factors,
    _unpack,
)
from sl2ab.cli import dump_json
from sl2ab.polyarith import ModPoly, cyclotomic_polynomial, factor_mod_p
from sl2ab.verify import GE2_RINGS, LOCAL_RINGS

F2 = FiniteRingSpec((RingFactor(2, 1),))
F3 = FiniteRingSpec((RingFactor(3, 1),))
F5 = FiniteRingSpec((RingFactor(5, 1),))
Z4 = FiniteRingSpec((RingFactor(2, 2),))
Z8 = FiniteRingSpec((RingFactor(2, 3),))
F4 = FiniteRingSpec((RingFactor(2, 1, (1, 1, 1)),))
EPS2 = FiniteRingSpec((RingFactor(2, 1, (0, 0, 1)),))  # F_2[x]/(x^2)
GR4_2 = FiniteRingSpec((RingFactor(2, 2, (1, 1, 1)),))  # the Galois ring GR(4, 2)
Z4_RAMIFIED = FiniteRingSpec((RingFactor(2, 2, (-2, 0, 1)),))  # (Z/4)[x]/(x^2-2)

# the local factor documents of the oracle-cold benchmark workload
BENCHMARK_FACTORS = [
    {"kind": "zmodpk", "p": 2, "k": 1},
    {"kind": "zmodpk", "p": 3, "k": 1},
    {"kind": "zmodpk", "p": 2, "k": 2},
    {"kind": "polyquot", "p": 2, "h": [1, 1, 1]},
    {"kind": "polyquot", "p": 2, "h": [0, 0, 1]},
    {"kind": "zmodpk", "p": 2, "k": 3},
    {"kind": "polyquot", "p": 2, "h": [1, 1, 0, 1]},
    {"kind": "polyquot", "p": 2, "h": [0, 0, 0, 1]},
    {"kind": "zmodpk", "p": 3, "k": 2},
    {"kind": "polyquot", "p": 3, "h": [1, 0, 1]},
    {"kind": "polyquot", "p": 3, "h": [0, 0, 1]},
]


class TestSpecs:
    def test_factor_validation(self):
        bad = [
            (4, 1, (0, 1)),  # p not prime
            (2, 0, (0, 1)),  # k < 1
            (3, 1, (1, 2)),  # not monic
            (2, 2, (1, 1, 2)),  # not monic mod 4
            (3, 1, (1,)),  # constant
            (3, 1, (2, 0, 3)),  # constant once reduced mod 3
        ]
        for p, k, h in bad:
            with pytest.raises(ValueError):
                RingFactor(p, k, h)
        with pytest.raises(ValueError):
            FiniteRingSpec(())
        # p, k, deg h and the ring order are bounded before any is worked
        # with; k and deg h each on its own, the order by FiniteRingSpec
        assert RingFactor(2, 39).order == 2**39
        assert RingFactor(2, 13, (1, 1, 0, 1)).order == 2**39
        assert RingFactor(2, 39, (0,) * 64 + (1,)).order == 2 ** (39 * 64)
        for make in (
            lambda: RingFactor(10**12 + 39),
            lambda: RingFactor(2, 40),
            lambda: RingFactor(2, 1, (0,) * 65 + (1,)),
            lambda: FiniteRingSpec((RingFactor(2, 20, (1, 1, 1)),)),
            lambda: FiniteRingSpec((RingFactor(2, 39), RingFactor(2))),
            lambda: FiniteRingSpec.zmod(10**12 + 1),
        ):
            with pytest.raises(ValueError, match="must be at most"):
                make()

    def test_orders_and_describe(self):
        assert RingFactor(2, 3).order == 8
        assert RingFactor(3, 1, (1, 0, 1)).order == 9
        assert FiniteRingSpec.zmod(12).order == 12
        assert FiniteRingSpec.zmod(12).describe() == "Z/4 x Z/3"
        assert F4.describe() == "F_2[x]/(x^2+x+1)"
        assert GR4_2.order == 16
        assert GR4_2.describe() == "(Z/4)[x]/(x^2+x+1)"
        assert Z4_RAMIFIED.describe() == "(Z/4)[x]/(x^2+2)"
        assert RingFactor(5, 1, (0, 1)) == RingFactor(5, 1)  # F_5[x]/(x) is Z/5
        assert str(RingFactor(5, 1, (5, 1))) == "Z/5"
        with pytest.raises(ValueError):
            FiniteRingSpec.zmod(1)

    def test_zmod_uses_prime_power_factors(self):
        assert FiniteRingSpec.zmod(12).factors == (RingFactor(2, 2), RingFactor(3, 1))
        assert FiniteRingSpec.zmod(7).factors == (RingFactor(7, 1),)

    def test_json_round_trips(self):
        for spec in (F2, F4, FiniteRingSpec.zmod(12), EPS2, GR4_2, Z4_RAMIFIED):
            assert FiniteRingSpec.from_json(spec.to_json()) == spec
        assert FiniteRingSpec.from_json({"zmod": 12}) == FiniteRingSpec.zmod(12)
        with pytest.raises(ValueError):
            FiniteRingSpec.from_json({"factors": [{"kind": "mystery"}]})
        # the README example, the local factors of the oracle-cold benchmark
        # workload and a polyquot over Z/4 each dump as they were read
        documents = [
            {"factors": [{"kind": "zmodpk", "p": 2, "k": 2},
                         {"kind": "polyquot", "p": 3, "h": [1, 0, 1]}]},
            {"factors": [{"kind": "polyquot", "p": 2, "k": 2, "h": [1, 1, 1]}]},
        ]
        documents += [{"factors": [factor]} for factor in BENCHMARK_FACTORS]
        for doc in documents:
            text = dump_json(doc)
            spec = FiniteRingSpec.from_json(json.loads(text))
            assert dump_json(spec.to_json()) == text


    def test_malformed_values_shown_up_to_shown_length(self):
        # a value is echoed in full up to SHOWN_LENGTH characters and named by
        # its length past that
        h_short, h_long = [0.5] * 10, [0.5] * 11  # reprs of 50 and 55 characters
        cases = [
            ({"zmod": "x" * 50}, f"got {'x' * 50!r}"),
            ({"zmod": "x" * 51}, "got a string of 51 characters"),
            ({"zmod": 0.5}, "got 0.5"),
            ({"factors": [{"kind": "polyquot", "p": 2, "h": h_short}]},
             f"got {h_short!r}"),
            ({"factors": [{"kind": "polyquot", "p": 2, "h": h_long}]},
             "got a list of 11 items"),
            ({"factors": [{"kind": "y" * 50}]}, f"kind: {'y' * 50!r}"),
            ({"factors": [{"kind": "y" * 51}]}, "kind: a string of 51 characters"),
        ]
        for doc, tail in cases:
            with pytest.raises(ValueError) as exc:
                FiniteRingSpec.from_json(doc)
            assert str(exc.value).endswith(tail), (doc, str(exc.value))


def _ring(spec):
    """The tables of spec, whatever its order under the construction cap."""
    return FiniteRing(spec, cap=spec.order)


class TestFiniteRing:
    def test_table_sanity(self):
        for spec in (FiniteRingSpec.zmod(6), F4, GR4_2, Z4_RAMIFIED):
            ring = FiniteRing(spec)
            n = ring.order
            add, mul = ring.add_table, ring.mul_table
            for i in range(n):
                assert add[i][ring.zero_index] == i
                assert mul[i][ring.one_index] == i
                assert mul[i][ring.zero_index] == ring.zero_index
                assert add[i][ring.neg[i]] == ring.zero_index
                for j in range(n):
                    assert add[i][j] == add[j][i]
                    assert mul[i][j] == mul[j][i]

    def test_ring_memos(self):
        # a ring counts SL2 and abelianizes it once, and keeps no list of the
        # group or of the orbit: sl2_elements() and sl2_orbit() walk them on
        # each call
        ring = FiniteRing(F4)
        assert ring.sl2ab is ring.sl2ab == TRIVIAL_GROUP
        assert ring.sl2_order == len(list(ring.sl2_elements())) == 60
        memos = [
            name
            for name, value in vars(oracle.FiniteRing).items()
            if isinstance(value, cached_property)
        ]
        assert memos == ["sl2_order", "sl2ab"]

    def test_oracle_keeps_no_module_level_memo(self):
        # every call builds its own ring, so a new process and a warm one
        # answer alike and nothing is held between calls
        spec = FiniteRingSpec((RingFactor(2, 2), RingFactor(3)))
        assert FiniteRing(spec).sl2ab == AbelianGroup(0, (12,))
        assert len(list(FiniteRing(spec).sl2_elements())) == 1152
        state = {
            name: value
            for name, value in vars(oracle).items()
            if not name.startswith("__")
        }
        assert not [
            name
            for name, value in state.items()
            if isinstance(value, (dict, list, set)) and value
        ]
        assert not [
            name
            for name, value in state.items()
            if getattr(value, "__module__", None) == oracle.__name__
            and hasattr(value, "cache_info")
        ]
        # FiniteRing is the one way in, and sl2ab_by_factors reads each factor
        # through it: no wrapper restates it
        removed = (
            "_ring_cache", "ring_for", "_check_budget", "Mat2",
            "sl2_abelianization", "enumerate_sl2_direct",
            "_sl2_quotient", "_sl2_indices", "_extend", "_Quotient",
            "_derived_quotient", "_mmul", "_identity", "_inverse", "_elementary",
            "_additive_order",
        )
        for name in removed:
            assert not hasattr(oracle, name), name
        assert not hasattr(FiniteRing, "sl2_quotient")

    def test_budget_is_checked_before_any_table(self, monkeypatch):
        def refuse(factor):
            raise AssertionError("ring tables built")

        monkeypatch.setattr(oracle, "_factor_tables", refuse)
        # the factor-by-factor reading bounds the order of the whole ring, as
        # FiniteRing does, though each factor of Z/20 or Z/1000 is in budget
        for read in (FiniteRing, sl2ab_by_factors):
            with pytest.raises(BudgetExceededError) as exc:
                read(FiniteRingSpec.zmod(1000))
            assert str(exc.value) == (
                "ring order 1000 exceeds the enumeration cap 16 (the SL2 orbit "
                "takes about 1000^2 = 1000000 steps); raise the cap explicitly to "
                "override"
            )
            with pytest.raises(BudgetExceededError, match="enumeration cap 16"):
                read(FiniteRingSpec.zmod(20))
            # the enumeration cap is checked first, then the construction cap
            with pytest.raises(BudgetExceededError) as exc:
                read(FiniteRingSpec.zmod(2048))
            assert "enumeration cap 16" in str(exc.value)
            for n, cap in ((1031, 2000), (2048, 2048)):
                with pytest.raises(BudgetExceededError) as exc:
                    read(FiniteRingSpec.zmod(n), cap=cap)
                assert str(exc.value) == (
                    f"ring of order {n} exceeds the construction cap 1024"
                )


SL2_ORDERS = {
    "F2": (F2, 6),
    "F3": (F3, 24),
    "Z4": (Z4, 48),
    "F4": (F4, 60),
    "F5": (F5, 120),
    "Z6": (FiniteRingSpec.zmod(6), 144),
    "Z8": (Z8, 384),
    "F2[x]/(x^2)": (EPS2, 48),  # |A|^3 (1 - |k|^-2) with |A| = 4, k = F_2
}


def _mat_mul(ring, x, y):
    """x y for index 4-tuples, entry by entry from the ring tables."""
    A, M = ring.add_table, ring.mul_table
    a, b, c, d = x
    e, f, g, h = y
    return (
        A[M[a][e]][M[b][g]],
        A[M[a][f]][M[b][h]],
        A[M[c][e]][M[d][g]],
        A[M[c][f]][M[d][h]],
    )


def _mat_inv(ring, m):
    a, b, c, d = m
    return (d, ring.neg[b], ring.neg[c], a)


def _lexicographic_elements(ring):
    """Every element of the ring as its factors' coefficient tuples, in
    lexicographic order, built here; the ring's numbering is checked to give
    the i-th of them index i."""
    factors = ring.spec.factors
    els = list(
        itertools.product(
            *(itertools.product(range(f.modulus), repeat=f.degree) for f in factors)
        )
    )
    indexes = [
        sum(d * v for d, (_, v) in zip(itertools.chain(*value), ring.digits))
        for value in els
    ]
    assert indexes == list(range(ring.order)), ring.spec.describe()
    return els


class TestEnumeration:
    def test_known_group_orders(self):
        for name, (spec, size) in SL2_ORDERS.items():
            assert len(list(FiniteRing(spec).sl2_elements())) == size, name

    def test_contains_identity_and_is_closed(self):
        ring = FiniteRing(F3)
        group = list(ring.sl2_elements())
        one, zero = ring.one_index, ring.zero_index
        assert (one, zero, zero, one) in group
        gset = set(group)
        for x in group[:8]:
            assert _mat_mul(ring, x, _mat_inv(ring, x)) == (one, zero, zero, one)
            for y in group:
                assert _mat_mul(ring, x, y) in gset

    def test_index_tuples_in_lexicographic_order(self):
        # indexes number the elements lexicographically, so the index tuples
        # and the matrices of element values are listed in the same order
        for spec in (F3, F4, FiniteRingSpec.zmod(6)):
            ring = FiniteRing(spec)
            els = _lexicographic_elements(ring)
            group = list(ring.sl2_elements())
            assert group == sorted(group)
            values = [tuple(els[i] for i in m) for m in group]
            assert values == sorted(values)

    def test_elementary_matrices_generate(self):
        for spec in (F2, F3, Z4, F4, EPS2, FiniteRingSpec.zmod(6)):
            ring = FiniteRing(spec)
            generated = _generated_subgroup(ring, _walk_gens(ring))
            assert generated == list(ring.sl2_elements())

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as exc:
            FiniteRing(FiniteRingSpec.zmod(20))
        assert str(exc.value) == (
            "ring order 20 exceeds the enumeration cap 16 (the SL2 orbit takes "
            "about 20^2 = 400 steps); raise the cap explicitly to override"
        )
        assert DEFAULT_RING_CAP == 16
        group = list(FiniteRing(FiniteRingSpec.zmod(17), cap=17).sl2_elements())
        assert len(group) == 4896  # 17^3 (1 - 17^-2)


def _derived_order(ring):
    """|G'| = |G| / |G^ab| for G = SL2(R)."""
    return ring.sl2_order // ring.sl2ab.order()


class TestCommutatorsAndAbelianization:
    def test_sl2_f2_is_symmetric_group_s3(self):
        ring = FiniteRing(F2)
        assert ring.sl2ab == AbelianGroup(0, (2,))
        assert _derived_order(ring) == 3

    def test_sl2_f4_is_perfect(self):
        ring = FiniteRing(F4)
        assert ring.sl2ab == TRIVIAL_GROUP
        assert _derived_order(ring) == len(list(ring.sl2_elements())) == 60

    def test_sl2_f3_derived_is_quaternion(self):
        ring = FiniteRing(F3)
        assert ring.sl2ab == AbelianGroup(0, (3,))
        assert _derived_order(ring) == 8

    def test_sl2_abelianization_values(self):
        assert FiniteRing(F3).sl2ab == AbelianGroup(0, (3,))
        assert FiniteRing(Z4).sl2ab == AbelianGroup(0, (4,))
        assert FiniteRing(EPS2).sl2ab == AbelianGroup(0, (2, 2))
        assert FiniteRing(FiniteRingSpec.zmod(6)).sl2ab == AbelianGroup(0, (6,))

    def test_abelianization_of_products_is_the_direct_sum(self):
        pairs = [
            (F2, F2),
            (F2, F3),
            (F2, Z4),
            (F3, F3),
            (F2, F5),
            (F3, F4),
        ]
        for left, right in pairs:
            product = FiniteRingSpec(left.factors + right.factors)
            assert FiniteRing(product).sl2ab == direct_sum(
                FiniteRing(left).sl2ab, FiniteRing(right).sl2ab
            ), product.describe()


# every factor (Z/p^k)[x]/(h) with p^(k deg h) <= 16
SMALL_FACTORS = [
    RingFactor(p, k, (*low, 1))
    for p in (2, 3, 5, 7, 11, 13)
    for k in range(1, 5)
    for n in range(1, 5)
    if p ** (k * n) <= 16
    for low in itertools.product(range(p**k), repeat=n)
]


class TestLocalFormula:
    def test_frozen_values(self):
        cases = [
            (RingFactor(2, 1), AbelianGroup(0, (2,))),
            (RingFactor(3, 1), AbelianGroup(0, (3,))),
            (RingFactor(2, 2), AbelianGroup(0, (4,))),
            (RingFactor(2, 1, (1, 1, 1)), TRIVIAL_GROUP),
            (RingFactor(2, 1, (0, 0, 1)), AbelianGroup(0, (2, 2))),
            (RingFactor(2, 3), AbelianGroup(0, (4,))),
            (RingFactor(2, 1, (1, 1, 0, 1)), TRIVIAL_GROUP),
            (RingFactor(2, 1, (0, 0, 0, 1)), AbelianGroup(0, (2, 2))),
            (RingFactor(3, 2), AbelianGroup(0, (3,))),
            (RingFactor(3, 1, (1, 0, 1)), TRIVIAL_GROUP),
            (RingFactor(3, 1, (0, 0, 1)), AbelianGroup(0, (3,))),
            # over Z/4: GR(4, 2), (Z/4)[x]/(x^2) and (Z/4)[x]/(x^2-2)
            (RingFactor(2, 2, (1, 1, 1)), TRIVIAL_GROUP),
            (RingFactor(2, 2, (0, 0, 1)), AbelianGroup(0, (2, 4))),
            (RingFactor(2, 2, (-2, 0, 1)), AbelianGroup(0, (2, 2))),
            # not local: x(x+1) over F_2 and Z/4, (x+1)(x+2) over F_3
            (RingFactor(2, 1, (0, 1, 1)), AbelianGroup(0, (2, 2))),
            (RingFactor(2, 2, (0, 1, 1)), AbelianGroup(0, (4, 4))),
            (RingFactor(3, 1, (2, 0, 1)), AbelianGroup(0, (3, 3))),
        ]
        for factor, expected in cases:
            assert prop_local_formula(factor) == expected, factor
            assert FiniteRing(FiniteRingSpec((factor,))).sl2ab == expected, factor

    def test_every_factor_of_order_at_most_16(self):
        # the formula is the oracle's answer on every factor, local or not;
        # a ring is local exactly when its non-units are closed under
        # addition, read off the ring tables
        local = 0
        for factor in SMALL_FACTORS:
            ring = FiniteRing(FiniteRingSpec((factor,)))
            assert prop_local_formula(factor) == ring.sl2ab, factor
            A, one = ring.add_table, ring.one_index
            nonunits = [i for i, row in enumerate(ring.mul_table) if one not in row]
            local += {A[a][b] for a in nonunits for b in nonunits} <= set(nonunits)
        assert (len(SMALL_FACTORS), local) == (131, 109)

    def test_factors_past_the_construction_cap(self, monkeypatch):
        # the formula reads the roots of h mod 2 and 3: it builds no ring
        # table and factors nothing
        def refuse(*args):
            raise AssertionError("ring tables built or h factored")

        monkeypatch.setattr(oracle, "_factor_tables", refuse)
        monkeypatch.setattr(polyarith, "factor_mod_p", refuse)
        monkeypatch.setattr(polyarith, "_squarefree_parts", refuse)
        cases = [
            (RingFactor(2, 20), AbelianGroup(0, (4,))),  # Z/2^20
            (RingFactor(2, 11, (0, 0, 1)), AbelianGroup(0, (2, 4))),  # h(0) = 0
            (RingFactor(2, 11, (2, 0, 1)), AbelianGroup(0, (2, 2))),  # h(0) = 2
            # x^2 (x+1): Z/2 + Z/4 at x, Z/4 at x+1
            (RingFactor(2, 11, (0, 0, 1, 1)), AbelianGroup(0, (2, 4, 4))),
            # x^62 (x+1)^2 over Z/4, k deg h = 128: h(0) = 0 and h(1) = 4
            (RingFactor(2, 2, (0,) * 62 + (1, 2, 1)), AbelianGroup(0, (2, 2, 4, 4))),
        ]
        # Phi_n mod 4 with phi(n) = 20, k deg h = 40: 2 is inert in
        # Q(zeta_25), has two primes of degree 10 in Q(zeta_33) and one
        # ramified of degree 10 in Q(zeta_44), so no residue field is F_2
        for n in (25, 33, 44):
            h = cyclotomic_polynomial(n).coeffs
            cases.append((RingFactor(2, 2, h), TRIVIAL_GROUP))
        # every residue field of a large p has q >= 4
        p, rng = 999999999989, random.Random(26)
        h = [rng.randrange(p) for _ in range(64)] + [1]
        cases.append((RingFactor(p, 1, h), TRIVIAL_GROUP))
        for factor, expected in cases:
            assert prop_local_formula(factor) == expected, factor


# --------------------------------------------------------------------------
# test-only references for the production algorithms


def _sl2_indices_r4(ring):
    """SL2(R) by scanning all of R^4 for determinant one, in scan order."""
    n = ring.order
    M, A = ring.mul_table, ring.add_table
    neg, one = ring.neg, ring.one_index
    out = []
    rng = range(n)
    for a in rng:
        Ma = M[a]
        for b in rng:
            negMb = [neg[x] for x in M[b]]
            for c in rng:
                nbc = negMb[c]
                for d in rng:
                    if A[Ma[d]][nbc] == one:
                        out.append((a, b, c, d))
    return out


def _all_pairs_commutator_closure(ring, group_idx):
    """[G, G] as the multiplicative closure of the commutators g h g^-1 h^-1
    of all pairs of elements.  Unordered pairs suffice, because [h, g] is the
    inverse of [g, h] and a finite group is closed under inverses anyway."""
    inverses = [_mat_inv(ring, m) for m in group_idx]
    comms = set()
    for i, (g, g_inv) in enumerate(zip(group_idx, inverses)):
        for h, h_inv in zip(group_idx[i:], inverses[i:]):
            gh = _mat_mul(ring, g, h)
            comms.add(_mat_mul(ring, _mat_mul(ring, gh, g_inv), h_inv))
    return set(_generated_subgroup(ring, sorted(comms)))


def _walk_gens(ring):
    """X as FiniteRing.sl2_orbit moves by it: E12(v) for the place value v of
    each digit, in digit order, then E21(1)."""
    one, zero = ring.one_index, ring.zero_index
    return [(one, v, zero, one) for _, v in ring.digits] + [(one, zero, one, one)]


def _generated_subgroup(ring, gens):
    one, zero = ring.one_index, ring.zero_index
    closed = {(one, zero, zero, one)}
    queue = list(closed)
    while queue:
        x = queue.pop()
        for g in gens:
            y = _mat_mul(ring, x, g)
            if y not in closed:
                closed.add(y)
                queue.append(y)
    return sorted(closed)


def _factor_mul_reference(factor, a, b):
    """a b in (Z/p^k)[x]/(h): a schoolbook product whose terms of degree
    d >= n = deg h are rewritten, top down, by x^d = x^d - x^(d-n) h."""
    m, n = factor.modulus, factor.degree
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d]
        for i, hc in enumerate(factor.h):
            prod[d - n + i] -= c * hc
    return tuple(c % m for c in prod[:n])


def _tables_reference(ring):
    """Both ring tables, one element pair at a time, factor by factor."""
    els, factors = _lexicographic_elements(ring), ring.spec.factors
    idx = {v: i for i, v in enumerate(els)}

    def add(factor, a, b):
        return tuple((x + y) % factor.modulus for x, y in zip(a, b))

    def table(op):
        return [[idx[tuple(map(op, factors, a, b))] for b in els] for a in els]

    return [table(add), table(_factor_mul_reference)]


def _local_formula_reference(factor):
    """The local formula summed over the irreducible factors (g, e) of h mod
    p: a summand only when the residue field F_p[x]/(g) has q <= 3 elements,
    with the case analysis of prop_local_formula at the root a of g = x - a."""
    p, k, h = factor.p, factor.k, factor.h
    torsion = []
    for g, e in factor_mod_p(ModPoly(p, h)):
        if p > 3 or g.degree > 1:  # q >= 4
            continue
        if p == 3:
            torsion.append(3)
        elif k == 1:
            torsion += [2] * min(e, 2)
        elif e == 1:
            torsion.append(4)
        else:
            a = g.coeffs[0]  # x - a = x + a over F_2
            h_a = sum(c * a**i for i, c in enumerate(h))
            torsion += [2, 4] if h_a % 4 == 0 else [2, 2]
    return canonicalize(torsion)


def _full_group_profile_reference(ring, group_idx, subgroup):
    """The order profile of G/N (element order -> count), every element of G
    filed in a coset dict first, and each representative's powers walked back
    to N's coset."""
    coset_of = {}
    reps = []
    for g in group_idx:
        if g not in coset_of:
            for n in subgroup:
                coset_of[_mat_mul(ring, g, n)] = len(reps)
            reps.append(g)
    one, zero = ring.one_index, ring.zero_index
    identity_coset = coset_of[(one, zero, zero, one)]
    profile = {}
    for rep in reps:
        k, cur = 1, rep
        while coset_of[cur] != identity_coset:
            cur = _mat_mul(ring, cur, rep)
            k += 1
        profile[k] = profile.get(k, 0) + 1
    return profile


def _order_profile(torsion):
    """The order profile of Z/d1 + ... + Z/dk, by listing its elements."""
    profile = {}
    for element in itertools.product(*(range(d) for d in torsion)):
        k = lcm(*(d // gcd(x, d) for x, d in zip(element, torsion)))
        profile[k] = profile.get(k, 0) + 1
    return profile


_LOCAL = dict(LOCAL_RINGS)

# The rings of order <= 12 that are not Z/n, as products of local factors
# (the --ring requests of the oracle-cold benchmark workload).
PRODUCT_RINGS = tuple(
    FiniteRingSpec(tuple(_LOCAL[name] for name in names))
    for names in (
        ("F_4",), ("F_2[x]/(x^2)",), ("F_2", "F_2"),
        ("F_8",), ("F_2[x]/(x^3)",), ("F_2", "Z/4"), ("F_2", "F_4"),
        ("F_2", "F_2[x]/(x^2)"), ("F_2", "F_2", "F_2"),
        ("F_9",), ("F_3[x]/(x^2)",), ("F_3", "F_3"),
        ("F_4", "F_3"), ("F_2[x]/(x^2)", "F_3"), ("F_2", "F_2", "F_3"),
    )
)


# rings past the default cap, of orders 128 to 1024: Z/1024 and the cubic
# (Z/8)[x]/(x^3+5x+3), of order 512, are walked at the construction cap
LARGE_FACTORS = [
    RingFactor(2, 7),
    RingFactor(3, 5),
    RingFactor(2, 8),
    RingFactor(2, 1, (1, 1, 0, 0, 0, 0, 0, 1)),
    RingFactor(2, 10),
    RingFactor(2, 3, (3, 5, 0, 1)),
]

# every factor (Z/p^k)[x]/(h) with p^(k deg h) <= 32: every prime p, every k
# and every monic h
FACTORS_UP_TO_32 = [
    RingFactor(p, k, (*low, 1))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for k in range(1, 6)
    for n in range(1, 6)
    if p ** (k * n) <= 32
    for low in itertools.product(range(p**k), repeat=n)
]


class TestAgainstReferences:
    def test_local_formula_matches_factoring_reference(self):
        # every monic h of degree n >= 1 over Z/p^k up to these degrees
        bounds = {(2, 1): 7, (2, 2): 5, (2, 3): 4, (3, 1): 5, (3, 2): 3, (5, 1): 3}
        factors = [
            RingFactor(p, k, (*low, 1))
            for (p, k), top in bounds.items()
            for n in range(1, top + 1)
            for low in itertools.product(range(p**k), repeat=n)
        ]
        assert len(factors) == 7635
        rng = random.Random(16)
        for _ in range(3000):
            p, k, n = rng.choice((2, 3, 5, 7)), rng.randint(1, 3), rng.randint(1, 8)
            low = [rng.randrange(p**k) for _ in range(n)]
            factors.append(RingFactor(p, k, (*low, 1)))
        for factor in factors:
            expected = _local_formula_reference(factor)
            assert prop_local_formula(factor) == expected, factor

    def test_abelianization_matches_all_pairs_profile_on_sl2(self):
        # the reference shares no code with the orbit: G' is the closure of
        # all pairwise commutators, and G/G' is profiled from a coset dict
        # over the whole group.  It takes |G|^2 steps, 17M for SL2(F_16), so
        # the rings of order 13 to 16 are left to the local-formula checks
        specs = [spec for _, spec in GE2_RINGS if spec.order <= 12]
        specs += [spec for spec in PRODUCT_RINGS if spec not in specs]
        assert len(specs) == 25
        for spec in specs:
            ring = _ring(spec)
            group = list(ring.sl2_elements())
            derived = _all_pairs_commutator_closure(ring, group)
            expected = _full_group_profile_reference(ring, group, derived)
            assert _order_profile(ring.sl2ab.torsion) == expected, spec.describe()

    def test_orbit_is_every_unimodular_column(self):
        # every ring the oracle handles under the default cap, and two past
        # it: the digits' place values are the additive basis, so X is E12
        # of the basis in digit order, then E21(1), and the orbit of e1 under
        # X is every first column of SL2(R)
        specs = [spec for _, spec in GE2_RINGS] + list(PRODUCT_RINGS)
        specs += [FiniteRingSpec.zmod(n) for n in (13, 14, 15, 16, 25, 27)]
        for spec in dict.fromkeys(specs):
            ring = _ring(spec)
            els = _lexicographic_elements(ring)
            digits = [tuple(itertools.chain(*els[v])) for _, v in ring.digits]
            n = len(digits)
            assert digits == [tuple(int(i == j) for i in range(n)) for j in range(n)]
            size, relations = ring.sl2_orbit()
            columns = {(a, c) for a, _, c, _ in ring.sl2_elements()}
            assert size == len(columns), spec.describe()
            assert {len(row) for row in relations} == {n + 1}

    def test_relation_rows_are_reduced_mod_the_additive_orders(self):
        # field i of a Schreier row is reduced mod m_i, the additive order of
        # generator i's entry: p^k for x^i in a factor (Z/p^k)[x]/(h), and
        # for E21(1) the additive order of 1; the rows m_i e_i, E21's among
        # them, are the only other rows
        specs = [spec for _, spec in GE2_RINGS] + list(PRODUCT_RINGS)
        specs += [FiniteRingSpec.zmod(n) for n in (13, 14, 15, 16, 25, 27)]
        for spec in dict.fromkeys(specs):
            moduli = [f.modulus for f in spec.factors for _ in range(f.degree)]
            moduli.append(lcm(*(f.modulus for f in spec.factors)))
            n = len(moduli)
            units = {
                tuple(m * (i == j) for j in range(n)) for i, m in enumerate(moduli)
            }
            _, relations = _ring(spec).sl2_orbit()
            assert len(set(relations)) == len(relations) <= prod(moduli) + n
            assert units <= set(relations), spec.describe()
            for row in set(relations) - units:
                assert all(0 <= e < m for e, m in zip(row, moduli)), spec.describe()
        # 8 generators of additive order 2, where the unreduced Schreier rows
        # number 35 807
        spec = FiniteRingSpec((RingFactor(2, 1, (1, 1, 0, 0, 0, 0, 0, 1)),))
        _, relations = _ring(spec).sl2_orbit()
        assert len(relations) <= 2**8 + 8

    def test_factorwise_reading_is_the_whole_ring_reading(self):
        # sl2ab_by_factors reads SL2 one factor at a time, FiniteRing over the
        # whole ring, so the product lemma stays a check: on the rings of the
        # oracle-cold benchmark workload, Z/4 to Z/12 and the products, and
        # the README's ring of order 36
        readme = FiniteRingSpec.from_json(
            {"factors": [{"kind": "zmodpk", "p": 2, "k": 2},
                         {"kind": "polyquot", "p": 3, "h": [1, 0, 1]}]}
        )
        cases = [(FiniteRingSpec.zmod(n), DEFAULT_RING_CAP) for n in range(4, 13)]
        cases += [(spec, DEFAULT_RING_CAP) for spec in PRODUCT_RINGS]
        cases.append((readme, 36))
        assert len(cases) == 25
        for spec, cap in cases:
            ring = FiniteRing(spec, cap)
            expected = (ring.sl2_order, ring.sl2ab)
            assert sl2ab_by_factors(spec, cap) == expected, spec.describe()

    def test_packed_exponent_vectors_round_trip(self):
        # signed entries up to the bound the construction cap gives, each
        # field read back mod its modulus; a modulus past twice the bound
        # gives the signed entry back exactly, and vectors that agree mod
        # the moduli are read once
        rng = random.Random(36)
        bound = 1024**2 + 1024
        for n in (1, 2, 5, 11):
            for _ in range(200):
                row = [rng.randint(-bound, bound) for _ in range(n)]
                moduli = [rng.choice((2, 3, 4, 9, 1024, 2 * bound + 1)) for _ in row]
                packed = sum(e << (oracle._FIELD * i) for i, e in enumerate(row))
                step = rng.choice((-1, 1)) * moduli[-1]
                shifted = packed + (step << oracle._FIELD * (n - 1))
                expected = tuple(e % m for e, m in zip(row, moduli))
                assert _unpack([packed], moduli) == {expected}
                assert _unpack([packed, shifted], moduli) == {expected}

    @pytest.mark.parametrize("factor", LARGE_FACTORS, ids=str)
    def test_large_rings_match_local_formula(self, factor):
        # past the default cap: the walk meets about |R| (1 + 1/q) lines under
        # deg + 1 generators and marks the |SL2(R)| / |R| columns they hold
        start = time.perf_counter()
        ring = _ring(FiniteRingSpec((factor,)))
        assert ring.sl2ab == prop_local_formula(factor)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"took {elapsed:.2f}s"

    def test_residue_field_f9_rings(self):
        # order 81, past the default cap: GR(9, 2) and F_3[x]/((x^2+1)^2)
        factors = (RingFactor(3, 2, (1, 0, 1)), RingFactor(3, 1, (1, 0, 2, 0, 1)))
        for factor in factors:
            ring = FiniteRing(FiniteRingSpec((factor,)), cap=81)
            assert ring.sl2ab == prop_local_formula(factor)
            # |A|^3 (1 - |k|^-2) with |A| = 81, k = F_9
            assert ring.sl2_order == len(list(ring.sl2_elements())) == 81**3 - 81**2

    def test_sl2_certificate_failure_raises(self, monkeypatch):
        # with the independent count of SL2(R) one too large, |orbit| |R|
        # falls short of it, and the abelianization must be refused, not
        # read from the relations
        count = FiniteRing.sl2_order.func
        monkeypatch.setattr(
            FiniteRing, "sl2_order", property(lambda ring: count(ring) + 1)
        )
        for spec in (F2, Z4, FiniteRingSpec.zmod(6)):
            with pytest.raises(RuntimeError, match="generate"):
                FiniteRing(spec).sl2ab

    def test_sl2_abelianization_is_the_sum_of_local_formulas(self):
        for n in (13, 14, 15, 16, 25, 27):
            spec = FiniteRingSpec.zmod(n)
            expected = direct_sum(*map(prop_local_formula, spec.factors))
            assert FiniteRing(spec, cap=n).sl2ab == expected, n

    def test_every_factor_of_order_at_most_32_against_tuples(self):
        # every prime p, every k and every monic h with |R| <= 32: the orbit
        # reads the formula's group, and one, negation and the generators'
        # additive orders, read off the numbering, are those the coefficient
        # tuples give (an order is the largest entry of its relation column:
        # the row m_i e_i, every other entry reduced below m_i)
        assert len(FACTORS_UP_TO_32) == 418
        for factor in FACTORS_UP_TO_32:
            ring, m = _ring(FiniteRingSpec((factor,))), factor.modulus
            els = _lexicographic_elements(ring)
            idx = {v: i for i, v in enumerate(els)}
            assert els[ring.one_index] == ((1,) + (0,) * (factor.degree - 1),)
            assert ring.neg == [idx[(tuple(-c % m for c in v),)] for (v,) in els]

            def additive_order(value):
                (v,) = value
                order, acc = 1, v
                while any(acc):
                    order, acc = order + 1, tuple((a + c) % m for a, c in zip(acc, v))
                return order

            entries = [v for _, v in ring.digits] + [ring.one_index]
            _, relations = ring.sl2_orbit()
            expected = [additive_order(els[s]) for s in entries]
            assert [max(column) for column in zip(*relations)] == expected, factor
            assert ring.sl2ab == prop_local_formula(factor), factor

    def test_torus_words_multiply_out(self):
        # the words the walk reads the torus and E21 through, multiplied out
        # on the ring tables: w(u) = E12(u) E21(-u^-1) E12(u), w(l) w(-1) =
        # diag(l, l^-1) for every unit l, and w(1) E12(-r) w(1)^-1 = E21(r)
        # for every r, on every factor of order at most 32 and the product
        # rings of order at most 12
        specs = [FiniteRingSpec((factor,)) for factor in FACTORS_UP_TO_32]
        specs += PRODUCT_RINGS
        for spec in specs:
            ring = _ring(spec)
            M, neg = ring.mul_table, ring.neg
            one, zero = ring.one_index, ring.zero_index

            def e12(r):
                return (one, r, zero, one)

            def e21(r):
                return (one, zero, r, one)

            def w(u, u_inverse):
                upper = e12(u)
                return _mat_mul(ring, _mat_mul(ring, upper, e21(neg[u_inverse])), upper)

            inverses = {a: row.index(one) for a, row in enumerate(M) if one in row}
            w_minus_one = w(neg[one], neg[one])
            for lam, lam_inverse in inverses.items():
                torus = _mat_mul(ring, w(lam, lam_inverse), w_minus_one)
                assert torus == (lam, zero, zero, lam_inverse), spec.describe()
            w_one = w(one, one)
            for r in range(ring.order):
                conjugate = _mat_mul(ring, w_one, e12(neg[r]))
                conjugate = _mat_mul(ring, conjugate, _mat_inv(ring, w_one))
                assert conjugate == e21(r), spec.describe()

    def test_ring_tables_match_elementwise_reference(self):
        specs = [spec for _, spec in GE2_RINGS] + list(PRODUCT_RINGS)
        specs += [GR4_2, Z4_RAMIFIED, FiniteRingSpec((RingFactor(3, 2, (0, 0, 1)),))]
        specs.append(FiniteRingSpec(GR4_2.factors + F3.factors + EPS2.factors))
        for spec in specs:
            ring = _ring(spec)
            expected = _tables_reference(ring)
            assert [ring.add_table, ring.mul_table] == expected, spec.describe()

    def test_cubic_enumeration_matches_quartic_scan(self):
        specs = [FiniteRingSpec.zmod(n) for n in range(2, 17)]
        specs += [spec for _, spec in GE2_RINGS] + list(PRODUCT_RINGS)
        for spec in specs:
            ring = _ring(spec)
            assert list(ring.sl2_elements()) == _sl2_indices_r4(ring), spec.describe()

    def test_sl2_order_counts_the_enumeration(self):
        specs = [spec for _, spec in GE2_RINGS] + list(PRODUCT_RINGS)
        specs += [FiniteRingSpec.zmod(n) for n in (13, 14, 15, 16)]
        specs += [GR4_2, Z4_RAMIFIED, FiniteRingSpec((RingFactor(2, 2, (0, 0, 1)),))]
        specs += [FiniteRingSpec.zmod(n) for n in (25, 27)]  # past the default cap
        for spec in dict.fromkeys(specs):
            ring = _ring(spec)
            assert ring.sl2_order == len(list(ring.sl2_elements()))
            # and the closed form: |A|^3 (1 - q^-2) per local factor A, with
            # q = |A| / |m| the order of its residue field
            expected = 1
            for factor in spec.factors:
                local = _ring(FiniteRingSpec((factor,)))
                units = sum(local.one_index in row for row in local.mul_table)
                q = local.order // (local.order - units)
                expected *= local.order**3 * (q * q - 1) // (q * q)
            assert ring.sl2_order == expected, spec.describe()
