"""Exact arithmetic tests: integer helpers, polynomials over Z and F_p,
factorization, irreducibility, Sturm sequences, cyclotomic polynomials."""

import bisect
import collections
import functools
import itertools
import json
import random
import time
import types
from fractions import Fraction
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ab import polyarith
from sl2ab.cli import EXIT_BUDGET, run
from sl2ab.polyarith import (
    CYCLOTOMIC_POLY_LIMIT,
    FACTOR_DEGREE_LIMIT,
    INTEGER_LIMIT,
    RECOMBINATION_BUDGET,
    SHOWN_LENGTH,
    IntPoly,
    ModPoly,
    cyclotomic_polynomial,
    dedekind_obstruction,
    euler_phi_factored,
    factor_mod_p,
    factorint,
    factorizations_up_to,
    irreducible_over_q_check,
    is_prime,
    is_prime_power,
    is_squarefree,
    multiplicative_order,
    primes_dividing,
    squarefree_sieve,
    sturm_real_roots,
    _F2,
    _F3,
    _Lists,
    _ModF,
    _kernel,
    _ladd,
    _ldivmod,
    _lgcd,
    _lmul,
    _lsub,
    _trim,
    _distinct_degree,
    _equal_degree,
    _split_parts,
    _squarefree_parts,
    _squarefree_over_q,
    brief_poly,
)
from zpoly import combination, product, shift


def _sieve_primes(limit):
    """The primes up to limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p, flag in enumerate(sieve) if flag]


def _is_prime_by_trial_division(n, primes):
    """n is prime, for n up to the square of the last of the given primes."""
    if n < 2:
        return False
    for p in primes:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return True


class TestIntegerHelpers:
    def test_factorint(self):
        assert factorint(360) == {2: 3, 3: 2, 5: 1}
        assert factorint(97) == {97: 1}
        assert factorint(1) == {}
        assert factorint(0) == {}
        assert factorint(-12) == {2: 2, 3: 1}

    @given(st.integers(2, 5000))
    def test_factorint_reconstructs(self, n):
        prod = 1
        for p, e in factorint(n).items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n

    def test_powers_of_two(self):
        for k in range(40):
            for n in (2**k, -(2**k)):
                assert factorint(n) == ({2: k} if k else {}), n
                assert is_squarefree(n) == (k <= 1), n
                assert primes_dividing(n) == ((2,) if k else ()), n

    def test_primes_near_a_million(self):
        # trial division runs up to the smaller prime factor, about 10^6
        # here, so the cases are few
        near = [p for p in range(10**6 - 30, 10**6 + 35) if is_prime(p)]
        assert near == [999979, 999983, 1000003, 1000033]
        for p in near:
            assert factorint(p * p) == {p: 2}, p
            assert not is_squarefree(p * p), p
            assert primes_dividing(p * p) == (p,), p
        for p, q in ((999979, 1000033), (999983, 1000003)):
            for n, rest in ((-p * q, {}), (12 * p * q, {2: 2, 3: 1})):
                fac = factorint(n)
                assert fac == {**rest, p: 1, q: 1} and list(fac) == [*rest, p, q]
                assert is_squarefree(n) == (not rest), n
                assert primes_dividing(n) == (*rest, p, q), n

    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(-3, 50):
            assert is_prime(n) == (n in primes)

    def test_is_prime_matches_trial_division(self, monkeypatch):
        # is_prime trial-divides up to 10^6 and runs Miller-Rabin to the bases
        # 2-37 past it; factorint tests its cofactor once trial division
        # passes 1000.  The reference divides by the primes of a sieve.
        primes = _sieve_primes(10**6)
        small = set(primes)
        for n in range(10**5 + 1):
            assert is_prime(n) == (n in small), n
            if n > 37 and n % 2:
                assert polyarith._strong_probable_prime(n) == (n in small), n
        rng = random.Random(12)
        draws = [rng.randint(2, INTEGER_LIMIT) for _ in range(600)]
        draws += [p * q for p, q in ((1009, 999983), (1013, 1019), (1009, 10**9 + 7))]
        for n in draws:
            expected = _is_prime_by_trial_division(n, primes)
            assert is_prime(n) == expected, n
            fac = factorint(n)
            assert prod(p**e for p, e in fac.items()) == n, n
            assert all(_is_prime_by_trial_division(p, primes) for p in fac), n
        # 151 * 751 * 28351 is a strong pseudoprime to the bases 2, 3, 5 and 7
        pseudoprime = 3215031751
        assert not is_prime(pseudoprime)
        assert factorint(pseudoprime) == {151: 1, 751: 1, 28351: 1}
        monkeypatch.setattr(polyarith, "_MILLER_RABIN_BASES", (2, 3, 5, 7))
        assert polyarith._strong_probable_prime(pseudoprime)

    def test_primes_near_the_integer_limit_are_settled_at_once(self):
        # trial division would run to 10^6 for each: about 2 s for these 32
        primes = _sieve_primes(10**6)
        largest = []
        n = INTEGER_LIMIT - 1
        while len(largest) < 32:
            if _is_prime_by_trial_division(n, primes):
                largest.append(n)
            n -= 2
        start = time.perf_counter()
        assert all(is_prime(p) and factorint(p) == {p: 1} for p in largest)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"took {elapsed:.2f}s"

    def test_is_squarefree(self):
        assert is_squarefree(1)
        assert is_squarefree(-10)
        assert is_squarefree(30)
        assert not is_squarefree(0)
        assert not is_squarefree(4)
        assert not is_squarefree(-12)
        assert not is_squarefree(45)

    def test_is_squarefree_matches_factorint(self):
        # the reference: no exponent above 1 in the factorization
        for n in range(1, 200_001):
            expected = all(e == 1 for e in factorint(n).values())
            assert is_squarefree(n) == is_squarefree(-n) == expected, n

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, INTEGER_LIMIT)
        | st.sampled_from([2, 3, 7, 997, 999983]).flatmap(
            lambda p: st.integers(1, INTEGER_LIMIT // (p * p)).map(lambda m: p * p * m)
        )
    )
    def test_is_squarefree_matches_factorint_up_to_the_limit(self, n):
        # beside plain draws, a prime square up to 10^12 times a cofactor
        expected = all(e == 1 for e in factorint(n).values())
        assert is_squarefree(n) == is_squarefree(-n) == expected, n

    def test_squarefree_sieve_matches_is_squarefree(self):
        # seeded ranges near 2, 10^6 and 10^12, the squares of the largest
        # primes below 10^6 (999983^2 = 999966000289) with and without their
        # neighbours, and one-row ranges
        rng = random.Random(26)
        ranges = [(1, 3000), (2, 2), (4, 4), (1, 1)]
        for low, high in ((2, 5000), (10**6 - 5000, 10**6), (INTEGER_LIMIT - 10**5, INTEGER_LIMIT)):
            for _ in range(3):
                lo = rng.randint(low, high)
                ranges.append((lo, min(lo + rng.randrange(2000), INTEGER_LIMIT)))
                ranges.append((lo, lo))
        for p in (999961, 999979, 999983):
            ranges += [(p * p - 60, p * p + 60), (p * p, p * p), (p * p - 1, p * p)]
        ranges.append((INTEGER_LIMIT, INTEGER_LIMIT))
        # the squares of p are struck by the sieve up to c = icbrt(hi), and
        # one by one past it: ranges ending at, just below and just above a
        # cube, where c changes, and around p^2 for the first primes past c,
        # with one-row ranges among them
        for c in (2, 3, 10, 21, 46, 100, 999, 9999):
            for hi in (c**3 - 1, c**3, c**3 + 1):
                ranges += [(max(1, hi - 500), hi), (hi, hi)]
        primes = _sieve_primes(10**4 + 100)
        for hi in (10**4, 10**6, 10**9, 10**12 - 1):
            c = next(x for x in range(1, 10**4 + 1) if (x + 1) ** 3 > hi)
            for p in primes[bisect.bisect(primes, c) :][:3]:
                for k in (1, 2, hi // p**2):
                    if p * p * k <= hi:
                        d = p * p * k
                        ranges += [(max(1, d - 40), min(hi, d + 40)), (d, d)]
                ranges.append((max(1, hi - 40), hi))
        for lo, hi in ranges:
            flags = squarefree_sieve(lo, hi)
            assert flags == bytearray(map(is_squarefree, range(lo, hi + 1))), (lo, hi)
        assert squarefree_sieve(999983**2, 999983**2) == b"\x00"

    def test_factorizations_up_to_match_factorint(self):
        # every n up to 10^4, and seeded n up to 100 001 from one sieve
        assert list(factorizations_up_to(1)) == [{}]
        assert list(factorizations_up_to(4)) == [{}, {2: 1}, {3: 1}, {2: 2}]
        rows = list(factorizations_up_to(100_001))
        assert len(rows) == 100_001
        rng = random.Random(43)
        checked = [*range(1, 10**4 + 1), *rng.sample(range(10**4, 100_002), 3000)]
        for n in checked + [100_001, 65536, 99991, 97 * 1021]:
            factors = rows[n - 1]
            assert factors == factorint(n), n
            assert list(factors) == sorted(factors), n
        for n in (0, -1, 10**6 + 1):
            with pytest.raises(ValueError):
                factorizations_up_to(n)  # refused before any row is read

    @pytest.mark.parametrize(
        "lo, hi", [(0, 5), (-3, 5), (6, 5), (INTEGER_LIMIT, INTEGER_LIMIT + 1)]
    )
    def test_squarefree_sieve_refuses_bad_ranges(self, lo, hi):
        with pytest.raises(ValueError):
            squarefree_sieve(lo, hi)

    def test_factorint_splits_composite_cofactors(self):
        # semiprimes, prime squares and prime cubes from primes past 1000,
        # times a 1000-smooth cofactor or not, up to 10^12: Pollard's rho
        # splits what trial division below 1000 leaves, and each factorization
        # is known from how the number was built
        primes = _sieve_primes(10**6)
        rough = primes[bisect.bisect(primes, 1000) :]
        rng = random.Random(42)
        cases = []
        for _ in range(150):
            p = rng.choice(rough)
            q = rng.choice(rough[: bisect.bisect(rough, INTEGER_LIMIT // p)])
            cases.append({p: 1, q: 1} if p != q else {p: 2})
        cases += [{p: 2} for p in rng.sample(rough, 60) + rough[-3:]]
        cases += [{p: 3} for p in rough[: bisect.bisect(rough, 10**4)][-20:]]
        cases += [{p: 3} for p in rng.sample(rough[: bisect.bisect(rough, 10**4)], 20)]
        for fac in cases:
            n = prod(p**e for p, e in fac.items())
            small = {}
            for p in rng.sample(primes[:168], 3):  # primes below 1000
                if n * p <= INTEGER_LIMIT:
                    n *= p
                    small[p] = small.get(p, 0) + 1
            expected = dict(sorted({**small, **fac}.items()))
            got = factorint(n)
            assert got == expected and list(got) == list(expected), n
            rest = prod(p**e for p, e in fac.items())  # odd and composite
            d = polyarith._brent_rho(rest)
            assert 1 < d < rest and rest % d == 0, rest

    def test_semiprimes_near_the_integer_limit_are_split_at_once(self):
        # trial division would run to the smaller prime, near 10^6, for each:
        # about 1.5 s for these 32
        primes = _sieve_primes(1_100_000)
        below = [p for p in reversed(primes) if p < 10**6][:32]
        semiprimes = []
        for p in below:
            q = primes[bisect.bisect(primes, INTEGER_LIMIT // p) - 1]
            semiprimes.append((p * q, {p: 1, q: 1}))
        start = time.perf_counter()
        assert all(factorint(n) == fac for n, fac in semiprimes)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"took {elapsed:.2f}s"

    def test_is_prime_power(self):
        assert is_prime_power(8) == (2, 3)
        assert is_prime_power(7) == (7, 1)
        assert is_prime_power(9) == (3, 2)
        assert is_prime_power(1) is None
        assert is_prime_power(12) is None
        assert is_prime_power(0) is None

    def test_primes_dividing(self):
        assert primes_dividing(360) == (2, 3, 5)
        assert primes_dividing(1) == ()

    def test_euler_phi(self):
        values = {1: 1, 2: 1, 3: 2, 4: 2, 8: 4, 9: 6, 12: 4, 60: 16}
        for n, expected in values.items():
            assert euler_phi_factored(factorint(n)) == expected

    @given(st.integers(1, 300))
    def test_euler_phi_counts_coprime_residues(self, n):
        coprime = sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)
        assert euler_phi_factored(factorint(n)) == coprime

    def test_multiplicative_order(self):
        assert multiplicative_order(2, 9, 6) == 6
        assert multiplicative_order(3, 8, 4) == 2
        assert multiplicative_order(2, 7, 6) == 3
        assert multiplicative_order(5, 1, 1) == 1
        # an exponent that a does not reach 1 at is refused, not reduced
        for exponent in (4, 0):
            with pytest.raises(ValueError, match="is not 1 mod 7"):
                multiplicative_order(2, 7, exponent)

    def test_order_matches_the_loop(self):
        # the loop that the order computation once ran, kept as the reference:
        # it finds the least order, not just one that divides phi(s), from
        # phi(s) and from any multiple of it
        def loop_order(a, s):
            x, f = a % s, 1
            while x != 1 % s:
                x, f = (x * a) % s, f + 1
            return f

        for s in range(1, 2001):
            phi = euler_phi_factored(factorint(s))
            for a in (2, 3, 5, 7, 10):
                if gcd(a, s) == 1:
                    expected = loop_order(a, s)
                    assert multiplicative_order(a, s, phi) == expected, (a, s)
                    assert multiplicative_order(a, s, 12 * phi) == expected, (a, s)

    @given(st.integers(2, 400))
    def test_order_divides_phi(self, s):
        for a in range(2, min(s, 12)):
            if gcd(a, s) == 1:
                phi = euler_phi_factored(factorint(s))
                f = multiplicative_order(a, s, phi)
                assert phi % f == 0
                assert pow(a, f, s) == 1


class TestIntPoly:
    def test_brief_poly(self):
        # shown in full up to SHOWN_LENGTH characters, past that by degree
        at = IntPoly([10 ** (SHOWN_LENGTH - 5), 0, 1])  # x^2+ and the constant
        assert len(str(at)) == SHOWN_LENGTH
        assert brief_poly(at) == str(at)
        past = IntPoly([10 ** (SHOWN_LENGTH - 4), 0, 1])
        assert brief_poly(past) == "a polynomial of degree 2"
        assert brief_poly(IntPoly([2, 3]), repr) == "IntPoly([2, 3])"
        assert brief_poly(IntPoly([7] * 5000 + [2]), repr) == (
            "a polynomial of degree 5000"
        )
        # a coefficient past the int-to-string digit limit is not rendered
        assert brief_poly(IntPoly([10**5000, 1])) == "a polynomial of degree 1"
        assert brief_poly(ModPoly(2, [1] * 60)) == "a polynomial of degree 59"

    def test_normalization_and_degree(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly(()).degree == -1
        assert IntPoly(()).coeffs == ()
        assert IntPoly((0, 0, 1)).degree == 2
        assert IntPoly((0, 0, 1)).is_monic
        assert not IntPoly((0, 2)).is_monic

    def test_from_csv(self):
        assert IntPoly.from_csv("-5,0,0,1") == IntPoly((-5, 0, 0, 1))
        assert IntPoly.from_csv("−5, 0, 0, 1") == IntPoly((-5, 0, 0, 1))
        with pytest.raises(ValueError):
            IntPoly.from_csv("1,a,2")
        with pytest.raises(ValueError):
            IntPoly.from_csv("")

    def test_is_a_value(self):
        # it parses, evaluates, compares and prints; Z[x] arithmetic runs on
        # coefficient lists, so it defines no operators
        # only what the class defines: Python 3.13 adds bookkeeping entries
        # such as __firstlineno__ to every class dict
        defined = {
            name
            for name, value in vars(IntPoly).items()
            if isinstance(value, (types.FunctionType, property, classmethod))
        }
        assert defined == {
            "__init__", "from_csv", "degree", "is_monic", "__eq__", "__hash__",
            "__call__", "__str__", "__repr__",
        }
        assert {IntPoly((1, 2)), IntPoly((1, 2, 0))} == {IntPoly([1, 2])}

    def test_evaluate(self):
        f = IntPoly((-5, 0, 0, 1))  # x^3 - 5
        assert f(2) == 3
        assert f(0) == -5

    def test_str(self):
        assert str(IntPoly((-5, 0, 0, 1))) == "x^3-5"
        assert str(IntPoly((-4, -1, 1))) == "x^2-x-4"
        assert str(IntPoly((1, 1))) == "x+1"
        assert str(IntPoly(())) == "0"
        assert str(IntPoly((3,))) == "3"
        assert IntPoly.from_csv("-4,-1,1") == IntPoly((-4, -1, 1))


def _schoolbook_mul(a, b, m):
    """Reference product of residue lists, one coefficient product at a time."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([c % m for c in out])


def _schoolbook_divmod(a, b, m):
    """Reference long division by b, whose leading coefficient is a unit."""
    inv = pow(b[-1], -1, m)
    rem = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(q))):
        q[i] = c = rem[i + len(b) - 1] * inv % m
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % m
    return _trim(q), _trim(rem[: len(b) - 1])


def _square_and_multiply(a, e, f, m):
    """Reference a**e mod a monic f on the schoolbook kernels."""
    result, base = [1], _schoolbook_divmod(a, f, m)[1]
    while e:
        if e & 1:
            result = _schoolbook_divmod(_schoolbook_mul(result, base, m), f, m)[1]
        e >>= 1
        base = _schoolbook_divmod(_schoolbook_mul(base, base, m), f, m)[1]
    return result


# moduli from F_2 to past 2^256: slots of 1, 2, 4 and 8 bytes and wider
_MODULI = st.one_of(
    st.sampled_from([2, 3, 4, 5, 9, 255, 256, 257, 2**31 - 1, 2**32, 2**61 - 1]),
    st.integers(2, 2**16),
    st.integers(2**256, 2**260),
)


@st.composite
def _residue_lists(draw, m, max_len=129):
    """Residue lists mod m of length 0 to max_len, trimmed: random, sparse
    (zero interior coefficients), or all m - 1, the fullest slots."""
    n = draw(st.one_of(st.integers(0, min(8, max_len)), st.integers(0, max_len)))
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "sparse", "largest"]))
    if kind == "largest":
        return [m - 1] * n
    zero = 0.8 if kind == "sparse" else 0.0
    a = [0 if rnd.random() < zero else rnd.randrange(m) for _ in range(n)]
    if a:
        a[-1] = a[-1] or 1
    return a


class TestKernels:
    """The packed kernels against schoolbook references: a wrong slot width
    or packing shows as a wrong coefficient."""

    @given(_MODULI, st.integers(1, 300))
    def test_slot_holds_its_sum(self, m, terms):
        size = polyarith._slot_bytes(m, terms)
        assert terms * (m - 1) ** 2 < 256**size
        assert size <= 8 or size == (2 * m.bit_length() + terms.bit_length() + 7) // 8

    @given(st.data(), _MODULI)
    @settings(max_examples=300, deadline=None)
    def test_product_matches_schoolbook(self, data, m):
        a = data.draw(_residue_lists(m))
        b = data.draw(_residue_lists(m))
        assert _lmul(a, b, m) == _schoolbook_mul(a, b, m)

    @given(st.data(), _MODULI)
    @settings(max_examples=300, deadline=None)
    def test_division_matches_schoolbook(self, data, m):
        a = data.draw(_residue_lists(m))
        b = data.draw(_residue_lists(m, 65))
        b = b[:-1] + [data.draw(st.sampled_from([1, m - 1]))]  # a unit
        q, r = _ldivmod(a, b, m)
        assert (q, r) == _schoolbook_divmod(a, b, m)
        assert _ladd(_lmul(q, b, m), r, m) == a  # a = q b + r
        assert len(r) < len(b)

    @pytest.mark.parametrize(
        "m", [2, 3, 255, 256, 2**31 - 1, 2**32, 2**61 - 1, 2**64 + 13]
    )
    @pytest.mark.parametrize(
        "codes", [polyarith._SLOT_CODES, {}], ids=["array", "bytes"]
    )
    def test_fullest_slots(self, monkeypatch, codes, m):
        # every coefficient m - 1, the largest slot sums there are; and f with
        # x^n = -(1 + x + ... + x^(n - 1)) mod f, a table row all m - 1 too.
        # Slots of 1-8 bytes go through array, or through bytes, as on a
        # big-endian machine, which has no array codes.
        monkeypatch.setattr(polyarith, "_SLOT_CODES", codes)
        for n in (1, 2, 3, 4, 5, 8, 16, 31, 64, 129):
            a = [m - 1] * n
            assert _lmul(a, a, m) == _schoolbook_mul(a, a, m)
            assert _lmul(a, a[:3], m) == _schoolbook_mul(a, a[:3], m)
            f = [1] * (n + 1)
            assert _ldivmod(a + a, f, m) == _schoolbook_divmod(a + a, f, m)
            ring = _ModF(f, m)
            expected = _schoolbook_divmod(_schoolbook_mul(a, a, m), f, m)[1]
            assert ring.mul(a, a) == ring.mul(a, a) == expected
        if m in (3, 2**31 - 1):  # and a factorization round trip at a prime
            rng = random.Random(m)
            f = ModPoly(m, [rng.randrange(m) for _ in range(40)] + [1])
            assert _product(factor_mod_p(f)) == f

    @given(
        st.sampled_from([2, 3, 5, 7, 101, 65537, 2**31 - 1, 2**61 - 1]),
        st.integers(1, 16),
        st.integers(1, 16),
        st.sampled_from([(1, 2), (2, 3), (2, 4), (3, 5), (3, 6)]),
        st.booleans(),
        st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_hensel_step_matches_schoolbook(self, p, dg, dh, ij, lift_inverse, seed):
        # g and h monic and coprime mod p, with s g + t h = 1 mod p, and
        # f = g h mod p with random p-adic digits above, lifted by reference
        # steps to p^i, then one step to p^j, i < j <= 2 i: the quadratic
        # step, and a step to a modulus between m and m^2, as the precision
        # chain takes
        i, j = ij
        rnd = random.Random(seed)
        while True:
            g = [rnd.randrange(p) for _ in range(dg)] + [1]
            h = [rnd.randrange(p) for _ in range(dh)] + [1]
            if len(polyarith._lgcd(g, h, p)) == 1:
                break
        s, t = polyarith._lxgcd(g, h, p)
        assert _ladd(_schoolbook_mul(s, g, p), _schoolbook_mul(t, h, p), p) == [1]
        assert len(s) < len(h) and len(t) < len(g)
        m2 = p**j
        gh = _schoolbook_mul(g, h, m2)
        f = [(c + p * rnd.randrange(m2)) % m2 for c in gh[:-1]] + [1]
        k = 1
        while k < i:
            k = min(2 * k, i)
            g, h, s, t = _schoolbook_hensel_step(f, g, h, s, t, p**k, True)
        step = polyarith._hensel_step(f, g, h, s, t, m2, lift_inverse)
        expected = _schoolbook_hensel_step(f, g, h, s, t, m2, lift_inverse)
        if not lift_inverse:
            step, expected = step[:2], expected[:2]
        assert step == expected
        assert _schoolbook_mul(step[0], step[1], m2) == f

    @given(st.data(), _MODULI)
    @settings(max_examples=200, deadline=None)
    def test_reduction_table_matches_schoolbook(self, data, m):
        f = data.draw(_residue_lists(m, 65))
        f = f[:-1] + [1] if f else [0, 1]
        n = len(f) - 1
        a = data.draw(_residue_lists(m, n))
        b = data.draw(_residue_lists(m, n))
        expected = _schoolbook_divmod(_schoolbook_mul(a, b, m), f, m)[1]
        ring = _ModF(f, m)
        # from the table, built at the first product, and from it again
        assert ring.mul(a, b) == expected
        assert ring.mul(a, b) == expected


def _schoolbook_hensel_step(f, g, h, s, t, m2, lift_inverse):
    """Reference quadratic Hensel step (von zur Gathen & Gerhard, Alg. 15.10)
    to the modulus m2 on the schoolbook kernels."""

    def mul(a, b):
        return _schoolbook_mul(a, b, m2)

    def add(*terms):
        out = [0] * max(map(len, terms))
        for a in terms:
            for i, c in enumerate(a):
                out[i] += c
        return _trim([c % m2 for c in out])

    def neg(a):
        return [-c % m2 for c in a]

    e = add(f, neg(mul(g, h)))
    q, r = _schoolbook_divmod(mul(s, e), h, m2)
    g, h = add(g, mul(t, e), mul(q, g)), add(h, r)
    if lift_inverse:
        b = add(mul(s, g), mul(t, h), [m2 - 1])
        c, d = _schoolbook_divmod(mul(s, b), h, m2)
        s, t = add(s, neg(d)), add(t, neg(mul(t, b)), neg(mul(c, g)))
    return g, h, s, t


def _golden_polys():
    """The --poly arguments of tests/compute_golden.json."""
    golden = json.loads((Path(__file__).parent / "compute_golden.json").read_text())
    return [a for case in golden for a in case["args"] if a.startswith("--poly=")]


class TestPackedOperands:
    """Packing needs every coefficient to be a residue in [0, m): a negative
    or larger one would spill into the neighbouring slot.  Spies on every
    kernel that packs check each list it is given, on the --poly inputs of
    the golden file, the shifted cyclotomic polynomials of degree 4-20, and
    a factorization over a prime past 2^32."""

    def test_every_operand_is_a_residue_list(self, monkeypatch, capsys):
        counts = collections.Counter()

        def check(name, m, *lists):
            counts[name] += 1
            for a in lists:
                assert all(0 <= c < m for c in a), (name, m, a)

        def spy(owner, name, operands):
            real = getattr(owner, name)

            def wrapped(*args):
                check(name, *operands(*args))
                return real(*args)

            monkeypatch.setattr(owner, name, wrapped)

        spy(polyarith, "_lmul", lambda a, b, m: (m, a, b))
        spy(polyarith, "_ldivmod", lambda a, b, m: (m, a, b))
        spy(polyarith, "_hensel_step", lambda f, g, h, s, t, m2, _: (m2, g, h, s, t))
        spy(_ModF, "mul", lambda ring, a, b: (ring.m, a, b))
        spy(_ModF, "frobenius", lambda ring, a: (ring.m, a))
        polys = _golden_polys() + [
            "--poly=" + ",".join(map(str, shift(cyclotomic_polynomial(n), k).coeffs))
            for n in range(3, 100)
            if 4 <= euler_phi_factored(factorint(n)) <= 20
            for k in (-17, 7, 19)
        ]
        for arg in polys:
            assert run(["compute", arg]) in (0, 3), arg
        capsys.readouterr()
        rng = random.Random(64)
        p = 999999999989
        factor_mod_p(ModPoly(p, [rng.randrange(p) for _ in range(64)] + [1]))
        assert set(counts) == {"_lmul", "_ldivmod", "_hensel_step", "mul", "frobenius"}


class TestModPoly:
    def test_construction(self):
        f = ModPoly(3, (4, 6, 1))
        assert f.coeffs == (1, 0, 1)
        with pytest.raises(ValueError):
            ModPoly(4, (1,))
        assert ModPoly(2, (2, 4)).is_zero

    def test_division_and_gcd(self):
        p = 5
        f = ModPoly(p, _lmul((1, 0, 1), (2, 1), p))
        q, r = divmod(f, ModPoly(p, (2, 1)))
        assert r.is_zero
        assert q == ModPoly(p, (1, 0, 1))
        with pytest.raises(ValueError):
            divmod(ModPoly(2, (1,)), ModPoly(3, (1,)))
        with pytest.raises(ZeroDivisionError):
            divmod(ModPoly(2, (1,)), ModPoly(2, ()))

    def test_modulus_is_checked_once(self, monkeypatch):
        # trial division costs sqrt(p): the modulus is checked when a
        # polynomial is built from outside, not for each arithmetic result
        checked = []
        monkeypatch.setattr(
            polyarith, "is_prime", lambda n: checked.append(n) or is_prime(n)
        )
        p = 999999999989
        f = ModPoly(p, [1, 0, 1])
        assert checked == [p]
        assert [g.degree for g, _ in factor_mod_p(f)] == [1, 1]
        assert checked == [p]
        with pytest.raises(ValueError, match="modulus must be prime"):
            ModPoly(4, [1, 1])

    def test_modulus_is_bounded(self, monkeypatch):
        # a prime past INTEGER_LIMIT is refused before any trial division,
        # which near 10^16 takes seconds
        assert is_prime(10**12 + 39)

        def no_trial_division(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(polyarith, "is_prime", no_trial_division)
        for p in (10**12 + 39, 10**16 + 61):
            with pytest.raises(ValueError, match=r"\|p\| must be at most"):
                ModPoly(p, [1, 1])

    @given(
        st.sampled_from([2, 3, 5]),
        st.lists(st.integers(0, 4), max_size=6),
        st.lists(st.integers(0, 4), min_size=1, max_size=4),
    )
    def test_divmod_identity(self, p, fc, gc):
        f = ModPoly(p, fc)
        g = ModPoly(p, gc + [1])
        q, r = divmod(f, g)
        assert _ladd(_lmul(q.coeffs, g.coeffs, p), r.coeffs, p) == list(f.coeffs)
        assert r.degree < g.degree


def _product(factors):
    out = [1]
    for g, m in factors:
        for _ in range(m):
            out = _lmul(out, g.coeffs, g.p)
    return ModPoly(g.p, out)


def _trial_division_squarefree(f):
    """Reference: irreducible factors of a squarefree monic f over F_p by
    exhaustive trial division.  Candidates are tried in increasing degree, so
    every successful divisor is irreducible; whatever survives past degree
    deg/2 is itself irreducible.  Exponential in deg f: small inputs only."""
    factors = []
    rem = f
    d = 1
    while rem.degree >= 1:
        if d > rem.degree // 2:
            factors.append(rem)
            return factors
        for lower in itertools.product(range(f.p), repeat=d):
            cand = ModPoly(f.p, lower + (1,))
            q, r = divmod(rem, cand)
            if r.is_zero:
                factors.append(cand)
                rem = q
        d += 1
    return factors


def _squarefree_lists(K, coeffs):
    """_squarefree_parts on the kernel K, its parts as residue lists."""
    return [(K.decode(g), m) for g, m in _squarefree_parts(K, K.encode(coeffs))]


def _reference_factor_mod_p(f):
    found = {}
    for part, mult in _squarefree_lists(_Lists(f.p), f.coeffs):
        for irr in _trial_division_squarefree(ModPoly(f.p, part)):
            found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))


class TestFactorModP:
    def test_known_factorizations(self):
        # x^3 - 5 = (x+1)(x^2+x+1) mod 2
        fac = factor_mod_p(ModPoly(2, (-5, 0, 0, 1)))
        assert fac == [
            (ModPoly(2, (1, 1)), 1),
            (ModPoly(2, (1, 1, 1)), 1),
        ]
        # x^3 - 5 = (x+1)^3 mod 3
        assert factor_mod_p(ModPoly(3, (-5, 0, 0, 1))) == [(ModPoly(3, (1, 1)), 3)]
        # x^2 - x - 4 = x(x+1) mod 2
        assert factor_mod_p(ModPoly(2, (-4, -1, 1))) == [
            (ModPoly(2, (0, 1)), 1),
            (ModPoly(2, (1, 1)), 1),
        ]
        # x^4 + 1 = (x+1)^4 mod 2
        assert factor_mod_p(ModPoly(2, (1, 0, 0, 0, 1))) == [(ModPoly(2, (1, 1)), 4)]

    def test_rejects_bad_inputs(self):
        # any prime is accepted: x^2+1 is irreducible mod 11, x^2-1 splits
        assert factor_mod_p(ModPoly(11, (1, 0, 1))) == [(ModPoly(11, (1, 0, 1)), 1)]
        assert factor_mod_p(ModPoly(11, (-1, 0, 1))) == [
            (ModPoly(11, (1, 1)), 1),
            (ModPoly(11, (10, 1)), 1),
        ]
        with pytest.raises(ValueError):
            factor_mod_p(ModPoly(2, (1,)))
        with pytest.raises(ValueError):
            factor_mod_p(ModPoly(5, (1, 2)))  # not monic: 2x + 1
        with pytest.raises(ValueError) as exc:
            factor_mod_p(ModPoly(5, (1,) * 100 + (2,)))
        assert str(exc.value) == (
            "need a monic polynomial, got a polynomial of degree 100"
        )

    def test_degree_is_bounded(self):
        # refused before any arithmetic: a monic degree-129 polynomial, and
        # one that is not monic either, get the same one-line error
        assert FACTOR_DEGREE_LIMIT == 128
        for lead in (1, 2):
            with pytest.raises(ValueError) as exc:
                factor_mod_p(ModPoly(5, (1,) * 129 + (lead,)))
            assert str(exc.value) == "|degree| must be at most 128, got 129"

    def test_squarefree_decomposition_known(self):
        # (x^2+1)^2 (x+1) over F_3: x^2+1 is squarefree, multiplicity 2
        # on residue lists and on bit-planes
        f = _product([(ModPoly(3, (1, 0, 1)), 2), (ModPoly(3, (1, 1)), 1)])
        sq = _product([(ModPoly(2, (1, 1)), 2)])
        for K3, K2 in ((_Lists(3), _Lists(2)), (_F3, _F2)):
            parts = dict()
            for g, m in _squarefree_lists(K3, f.coeffs):
                parts[m] = _lmul(parts.get(m, [1]), g, 3)
            assert parts == {1: [1, 1], 2: [1, 0, 1]}
            # p-th power branch: (x+1)^2 over F_2 has zero derivative
            assert _squarefree_lists(K2, sq.coeffs) == [([1, 1], 2)]
            # a monic constant is the empty product
            for K in (K2, K3):
                assert _squarefree_lists(K, [1]) == []

    def test_squarefree_decomposition_nested_pth_powers(self):
        # multiplicities divisible by p, by p^2, and past p but prime to it,
        # all in one polynomial: the p-th root recursion meets Yun's loop
        cases = {
            2: {1: (0, 1), 3: (1, 1, 1), 4: (1, 1), 5: (1, 1, 0, 1)},
            3: {1: (0, 1), 2: (2, 1), 3: (1, 0, 1), 4: (1, 2, 0, 1), 9: (1, 1)},
        }
        for p, expected in cases.items():
            f = _product([(ModPoly(p, g), m) for m, g in expected.items()])
            for K in (_Lists(p), _kernel(p)):
                parts = dict()
                for g, m in _squarefree_lists(K, f.coeffs):
                    assert g[-1] == 1 and len(g) >= 2
                    parts[m] = _lmul(parts.get(m, [1]), g, p)
                assert parts == {m: list(g) for m, g in expected.items()}, (p, K)

    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.lists(st.integers(0, 6), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_trial_division_reference(self, p, lower):
        f = ModPoly(p, lower + [1])
        assert factor_mod_p(f) == _reference_factor_mod_p(f)

    def test_equal_degree_splitting(self):
        # p = 2 (trace map): the three irreducible quartics over F_2
        quartics = [
            (ModPoly(2, c), 1) for c in ((1, 0, 0, 1, 1), (1, 1, 0, 0, 1), (1, 1, 1, 1, 1))
        ]
        f = _product(quartics)
        assert factor_mod_p(f) == quartics == _reference_factor_mod_p(f)
        # the two degree-1 factors over F_2, and x^2+x+1 squared alongside
        f = _product(
            [(ModPoly(2, (0, 1)), 1), (ModPoly(2, (1, 1)), 1), (ModPoly(2, (1, 1, 1)), 2)]
        )
        assert factor_mod_p(f) == _reference_factor_mod_p(f)
        # odd p: two irreducible cubics over F_3, x^3-x+1 and x^3-x-1
        cubics = [(ModPoly(3, (1, 2, 0, 1)), 1), (ModPoly(3, (2, 2, 0, 1)), 1)]
        f = _product(cubics)
        assert factor_mod_p(f) == cubics == _reference_factor_mod_p(f)

    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13, 17, 999999999989, 2**61 - 1]),
        st.integers(1, 24),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_frobenius_matches_square_and_multiply(self, p, n, rnd):
        # the Frobenius matrix's rows x^(p i) mod f against a^p by schoolbook
        # square-and-multiply, for small p and for p past 2^32, where slots
        # no longer fit a machine word
        f = [rnd.randrange(p) for _ in range(n)] + [1]
        a = _trim([rnd.randrange(p) for _ in range(n)])
        ring = _ModF(f, p)
        expected = _square_and_multiply(a, p, f, p)
        # as powers until they have cost the matrix's k + n - 1 products, k
        # those of one power, then from the matrix, at every p
        k = p.bit_length() + p.bit_count() - 2
        powers = 0
        for _ in range(n + 2):
            assert ring.frobenius(a) == expected
            powers += not ring.matrix
        assert ring.matrix and (powers - 1) * k < k + n - 1 <= powers * k

    def test_large_prime_and_degree(self):
        # x^p - x is the product of all x - a over F_p
        p = 101
        f = ModPoly(p, [0, -1] + [0] * (p - 2) + [1])
        assert factor_mod_p(f) == [(ModPoly(p, (a, 1)), 1) for a in range(p)]
        # Phi_29 mod 3: 3 has order 28 mod 29, so it stays irreducible
        phi29 = ModPoly(3, cyclotomic_polynomial(29).coeffs)
        assert factor_mod_p(phi29) == [(phi29, 1)]

    @given(
        st.sampled_from([2, 3]),
        st.lists(st.integers(0, 2), min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_factorization_reconstructs_and_is_irreducible(self, p, lower):
        f = ModPoly(p, lower + [1])
        if f.degree < 1:
            return
        factors = factor_mod_p(f)
        assert _product(factors) == f
        for g, _ in factors:
            assert g.is_monic
            assert _trial_division_squarefree(g) == [g]


def _stages(K, coeffs):
    """factor_mod_p's stages on the kernel K, as residue lists: the
    squarefree parts, the distinct-degree parts of each, and the irreducible
    factors in factor_mod_p's order."""
    squarefree = _squarefree_parts(K, K.encode(coeffs))
    ddf = [_distinct_degree(K, g) for g, _ in squarefree]
    factors = [
        (K.decode(g), m)
        for (_, m), parts in zip(squarefree, ddf)
        for g in _split_parts(K, parts)
    ]
    return (
        [(K.decode(g), m) for g, m in squarefree],
        [[(K.decode(g), d) for g, d in parts] for parts in ddf],
        sorted(factors, key=lambda gm: (len(gm[0]), gm[0])),
    )


def _assert_bits_match_lists(p, coeffs):
    """Every stage on F_p's bit-planes gives what it gives on residue lists,
    and factor_mod_p returns the factors of that last stage."""
    stages = _stages(_kernel(p), coeffs)
    assert stages == _stages(_Lists(p), coeffs), (p, coeffs)
    assert factor_mod_p(ModPoly(p, coeffs)) == [
        (ModPoly(p, g), m) for g, m in stages[2]
    ]


class TestBitSlicedKernels:
    """F_2 on ints and F_3 on bit-planes against the residue-list kernels,
    which stay the path for p >= 5 and so serve as the reference."""

    def test_f3_sum_and_negation_on_every_pair(self):
        pairs = list(itertools.product(range(3), repeat=2))
        for a, b in pairs:
            assert _F3.add(_F3.encode([a]), _F3.encode([b])) == _F3.encode([(a + b) % 3])
            assert _F3.sub(_F3.encode([a]), _F3.encode([b])) == _F3.encode([(a - b) % 3])
            assert _F3.sub(_F3.encode([]), _F3.encode([a])) == _F3.encode([-a % 3])
        # all nine at once, one pair per coefficient
        a, b = (_F3.encode([pair[i] for pair in pairs]) for i in (0, 1))
        assert _F3.decode(_F3.add(a, b)) == _trim([(x + y) % 3 for x, y in pairs])
        assert _F3.decode(_F3.sub(a, b)) == _trim([(x - y) % 3 for x, y in pairs])

    @pytest.mark.parametrize("p, top", [(2, 12), (3, 7)])
    def test_every_monic_polynomial(self, p, top):
        # every monic polynomial over F_2 of degree <= 12, over F_3 <= 7
        for n in range(1, top + 1):
            for lower in itertools.product(range(p), repeat=n):
                _assert_bits_match_lists(p, list(lower) + [1])

    @given(
        st.sampled_from([2, 3]),
        st.integers(0, 8),
        st.integers(1, 64),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_lists_up_to_degree_64(self, p, db, n, rnd):
        # f = a b^2 of degree at most 64, a squared factor b when db > 0
        db = min(db, (n - 1) // 2)
        b = [rnd.randrange(p) for _ in range(db)] + [1]
        a = [rnd.randrange(p) for _ in range(n - 2 * db)] + [1]
        f = _schoolbook_mul(a, _schoolbook_mul(b, b, p), p)
        _assert_bits_match_lists(p, f)
        # the kernels one by one, from the encoded f and a random c
        K, L = _kernel(p), _Lists(p)
        c = _trim([rnd.randrange(p) for _ in range(n)])
        assert K.decode(K.encode(f)) == f and K.decode(K.encode(c)) == c
        F, C = K.encode(f), K.encode(c)
        assert K.deg(F) == L.deg(f) and K.deg(C) == L.deg(c)
        assert [K.decode(r) for r in K.divmod(C, F)] == list(L.divmod(c, f))
        if C != K.encode([]):
            q, r = K.divmod(F, C)
            assert (K.decode(q), K.decode(r)) == L.divmod(f, c)
            assert K.decode(K.mod(F, C)) == L.mod(f, c)
        assert K.decode(K.gcd(F, C)) == L.gcd(f, c)
        assert K.decode(K.deriv(F)) == L.deriv(f)
        spread = [0] * (p * len(c) - p + 1) if c else []  # c(x^p)
        spread[::p] = c
        assert K.decode(K.root(K.encode(spread))) == L.root(spread) == c
        assert K.decode(K.sub(F, C)) == L.sub(f, c)
        ring, lists = K.ring(F), L.ring(f)
        r = K.mod(C, F)
        assert K.decode(K.add(F, C)) == L.add(f, c)
        assert K.decode(ring.frobenius(r)) == lists.frobenius(L.mod(c, f))


def _irreducible_count(p, d):
    """Gauss's count of the monic irreducibles of degree d over F_p: the sum
    of mu(e) p^(d/e) over the divisors e of d, divided by d."""
    primes = [q for q in range(2, d + 1) if d % q == 0 and is_prime(q)]
    return sum(
        (-1) ** r * p ** (d // prod(ps))
        for r in range(len(primes) + 1)
        for ps in itertools.combinations(primes, r)
    ) // d


def _irreducibles(p, d, count, rnd):
    """Up to count distinct monic irreducibles of degree d over F_p, drawn
    at random and kept when trial division finds no factor."""
    found = set()
    while len(found) < min(count, _irreducible_count(p, d)):
        g = ModPoly(p, [rnd.randrange(p) for _ in range(d)] + [1])
        if _trial_division_squarefree(g) == [g]:
            found.add(g)
    return sorted(found, key=lambda g: g.coeffs)


class TestTraceSplitting:
    """Equal-degree splitting by the absolute trace at every p, raised to
    (p - 1)/2 above 3."""

    @pytest.mark.parametrize(
        "p, d",
        [(p, d) for p in (2, 3) for d in range(1, 9)]
        + [(5, d) for d in range(1, 5)]
        + [(7, d) for d in range(1, 4)],
    )
    def test_products_of_one_degree(self, p, d):
        # r = 2..6 distinct irreducibles of degree d, as many as exist
        rnd = random.Random(p * 100 + d)
        pool = _irreducibles(p, d, 6, rnd)
        for r in range(2, len(pool) + 1):
            factors = [(g, 1) for g in rnd.sample(pool, r)]
            f = _product(factors)
            expected = sorted(factors, key=lambda gm: gm[0].coeffs)
            assert factor_mod_p(f) == expected, (p, d, r)
            if p**d <= 3**6:  # the reference tries every monic of degree <= d
                assert _reference_factor_mod_p(f) == expected
            _assert_bits_match_lists(p, list(f.coeffs))

    @pytest.mark.parametrize(
        "p, d", [(2, 1), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 3)]
    )
    def test_a_draw_that_splits_nothing_is_drawn_again(self, p, d):
        # a constant a has the trace d a in every factor's residue field, and
        # so one quadratic character, so the first draw (1, 0, ..., 0) parts
        # nothing and the loop draws again
        factors = _irreducibles(p, d, 3, random.Random(d))
        g = _product([(h, 1) for h in factors]).coeffs

        class Stub:
            def __init__(self):
                self.draws = 0
                self.rest = random.Random(0)

            def randrange(self, n):
                self.draws += 1
                if self.draws <= len(g) - 1:
                    return int(self.draws == 1)
                return self.rest.randrange(n)

        for K in (_kernel(p), _Lists(p)):
            rng = Stub()
            found = _equal_degree(K, K.encode(list(g)), d, rng)
            expected = sorted(list(h.coeffs) for h in factors)
            assert sorted(map(K.decode, found)) == expected
            assert rng.draws > len(g) - 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_only_primes_above_3_take_the_power_map(self, p, monkeypatch):
        # on residue lists the ring mod g powers to p for p-th powers, and
        # above 3 also to (p - 1)/2, for the trace's quadratic character
        exponents = set()
        pow_ = _ModF.pow

        def spy(self, a, e):
            exponents.add(e)
            return pow_(self, a, e)

        monkeypatch.setattr(_ModF, "pow", spy)
        factors = _irreducibles(p, 3, 4, random.Random(p))
        f = _product([(h, 1) for h in factors])
        L = _Lists(p)
        found = _split_parts(L, [(list(f.coeffs), 3)])
        assert sorted(found) == sorted(list(h.coeffs) for h in factors)
        assert exponents == ({p} if p <= 3 else {p, (p - 1) // 2})


def _reference_obstruction(f, p, factors):
    """Dedekind's criterion as first written: the cofactor h as the product
    of the repeated factors, each e - 1 times, and both gcds on residue
    lists."""
    repeated = [g.coeffs for g, e in factors for _ in range(e - 1)]
    if not repeated:
        return ModPoly(p, [1])
    radical, cofactor = (
        functools.reduce(lambda a, b: _lmul(a, b, p), gs)
        for gs in ([g.coeffs for g, _ in factors], repeated)
    )
    p2 = p * p
    t = [c // p for c in _lsub(_lmul(radical, cofactor, p2), f.coeffs, p2)]
    return ModPoly(p, _lgcd(_lgcd(t, radical, p), cofactor, p))


class TestDedekindObstruction:
    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.lists(st.integers(-9, 9), min_size=1, max_size=3),
        st.integers(2, 4),
        st.lists(st.integers(-9, 9), max_size=3),
        st.lists(st.integers(-9, 9), max_size=10),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_product_of_repeated_factors(self, p, g, e, h, r):
        # f = g^e h + p r, monic, has the factor g mod p at least e >= 2
        # times; whether Z[x]/(f) is p-maximal depends on r
        top = product(*[g + [1]] * e, h + [1])
        f = combination((1, top), (p, r[: top.degree]))
        factors = factor_mod_p(ModPoly(p, f.coeffs))
        assert any(m > 1 for _, m in factors)
        assert dedekind_obstruction(f, p, factors) == _reference_obstruction(
            f, p, factors
        )

    def test_both_verdicts(self):
        for f, p, maximal in (
            ((-2, 0, 1), 2, True),
            ((-5, 0, 1), 5, True),
            ((-5, 0, 0, 1), 3, True),
            ((-5, 0, 1), 2, False),
            ((-10, 0, 0, 1), 3, False),
            ((-98, 0, 1), 7, False),
        ):
            f = IntPoly(f)
            factors = factor_mod_p(ModPoly(p, f.coeffs))
            verdict = dedekind_obstruction(f, p, factors)
            assert verdict == _reference_obstruction(f, p, factors)
            assert (verdict.coeffs == (1,)) == maximal, (f, p)

    def test_exit_3_message_is_unchanged(self, capsys):
        assert run(["compute", "--poly=-5,0,1"]) == 3
        assert capsys.readouterr().err == (
            "error: Z[x]/(x^2-5) is not maximal at 2 (Dedekind criterion "
            "obstruction: x+1); give its splitting of 2 and 3 through "
            "sl2ab.UserNumberField, or use --quadratic or --cyclotomic when "
            "the field is one of those\n"
        )


class TestClosedForm:
    @pytest.mark.parametrize(
        "p, k, counts",
        [
            (2, 6, {1: 2, 2: 1, 3: 2, 6: 9}),
            (3, 4, {1: 3, 2: 3, 4: 18}),
            (5, 2, {1: 5, 2: 10}),
            (7, 2, {1: 7, 2: 21}),
        ],
    )
    def test_every_irreducible_of_degree_dividing_k_once(self, p, k, counts):
        # x^(p^k) - x is the product of the monic irreducibles over F_p whose
        # degree divides k, each once; Gauss's formula counts them
        f = ModPoly(p, [0, -1] + [0] * (p**k - 2) + [1])
        factors = factor_mod_p(f)
        assert all(m == 1 for _, m in factors)
        assert len(set(g for g, _ in factors)) == len(factors)
        assert _product(factors) == f
        assert collections.Counter(g.degree for g, _ in factors) == counts
        assert counts == {d: _irreducible_count(p, d) for d in counts}
        for g, _ in factors:
            assert g.is_monic and _trial_division_squarefree(g) == [g]


def swinnerton_dyer(primes) -> IntPoly:
    """The product of x - (+-sqrt(p1) +- sqrt(p2) ...) over all signs, built
    in integers: each p turns f into f(x + sqrt p) f(x - sqrt p) = A^2 - p B^2,
    where f(x + sqrt p) = A + B sqrt p is expanded by Horner's rule."""
    x = (0, 1)
    f = IntPoly(x)
    for p in primes:
        a = b = IntPoly(())
        for c in reversed(f.coeffs):
            a, b = (
                combination((1, product(a, x)), (p, b), (c, [1])),
                combination((1, a), (1, product(b, x))),
            )
        f = combination((1, product(a, a)), (-p, product(b, b)))
    return f


class TestIrreducibility:
    def test_over_q_check(self):
        assert irreducible_over_q_check(IntPoly((-2, 0, 1))) is True  # x^2-2
        assert irreducible_over_q_check(IntPoly((-5, 0, 0, 1))) is True  # x^3-5
        assert irreducible_over_q_check(IntPoly((-1, 0, 1))) is False  # x^2-1
        assert irreducible_over_q_check(IntPoly((0, 0, 1))) is False  # x^2
        # x^4+1 is irreducible over Q but reducible mod every prime
        assert irreducible_over_q_check(IntPoly((1, 0, 0, 0, 1))) is True
        assert irreducible_over_q_check(IntPoly((7, 1))) is True
        with pytest.raises(ValueError):
            irreducible_over_q_check(IntPoly((1, 2)))

    def test_over_q_check_is_exact(self):
        # reducible mod every prime, irreducible over Q: needs recombination
        assert irreducible_over_q_check(IntPoly((1, 0, -10, 0, 1))) is True
        for n in (15, 21, 24, 32, 33, 35, 44, 66):
            assert irreducible_over_q_check(cyclotomic_polynomial(n)) is True
        # (x^2+1)(x^2+2): no rational root, no small-prime certificate
        assert irreducible_over_q_check(IntPoly((2, 0, 3, 0, 1))) is False
        for a, b in ((3, 4), (5, 7), (5, 12), (8, 9), (15, 20)):
            f = product(cyclotomic_polynomial(a), cyclotomic_polynomial(b))
            assert irreducible_over_q_check(f) is False
        # a repeated factor leaves no prime at which f is squarefree
        phi15 = cyclotomic_polynomial(15)
        assert irreducible_over_q_check(product(phi15, phi15)) is False
        # constant term beyond the rational-root search
        assert irreducible_over_q_check(IntPoly((10**7 + 19, 0, 1))) is True
        assert irreducible_over_q_check(IntPoly((-(10**4 + 7) ** 2, 0, 1))) is False

    @pytest.mark.parametrize("n, k", [(17, 19), (34, -17), (7, 7)])
    def test_given_factorizations_are_all_read(self, monkeypatch, n, k):
        # two factors mod 2, one mod 3: the factorization mod 3 the caller
        # gave settles irreducibility, so nothing is lifted
        f = shift(cyclotomic_polynomial(n), k)
        known = {p: factor_mod_p(ModPoly(p, f.coeffs)) for p in (2, 3)}
        assert [len(known[p]) for p in (2, 3)] == [2, 1]
        assert irreducible_over_q_check(f) is True
        lifts = []
        has_factor = polyarith._has_factor_over_z
        monkeypatch.setattr(
            polyarith,
            "_has_factor_over_z",
            lambda *args: lifts.append(args) or has_factor(*args),
        )
        assert irreducible_over_q_check(f, known) is True
        assert lifts == []

    def test_local_degrees_keep_the_verdict(self, monkeypatch):
        # the local degrees GeneralPoly gives, at each of 2 and 3 where
        # Z[x]/(f) is p-maximal, change no verdict: on Phi_a Phi_b(x + k), on
        # squares g(x + k)^2, which are maximal nowhere, and on random monic
        # f = g^2 h + p r, ramified at p whenever the criterion holds there
        rng = random.Random(33)
        ns = [n for n in range(3, 40) if cyclotomic_polynomial(n).degree <= 10]
        cases = []
        for _ in range(40):
            a, b = rng.sample(ns, 2)
            f = product(cyclotomic_polynomial(a), cyclotomic_polynomial(b))
            cases.append(("product", shift(f, rng.randint(-9, 9))))
        for _ in range(40):
            g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1]
            cases.append(("square", shift(product(g, g), rng.randint(-9, 9))))
        for _ in range(120):
            p = rng.choice((2, 3))
            g, h = (
                [rng.randrange(p) for _ in range(rng.randint(lo, 3))] + [1]
                for lo in (1, 0)
            )
            base = product(g, g, h)
            r = [rng.randint(-5, 5) for _ in range(base.degree)]
            f = combination((1, base), (p, r))
            if rng.random() < 0.3:
                f = product(f, [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1])
            cases.append(("ramified", f))
        lifts = []
        has_factor = polyarith._has_factor_over_z
        monkeypatch.setattr(
            polyarith,
            "_has_factor_over_z",
            lambda *args: lifts.append(args) or has_factor(*args),
        )
        seen = collections.Counter()
        for kind, f in cases:
            known = {p: factor_mod_p(ModPoly(p, f.coeffs)) for p in (2, 3)}
            local = {
                p: [e * g.degree for g, e in fs]
                for p, fs in known.items()
                if dedekind_obstruction(f, p, fs).coeffs == (1,)
            }
            expected = irreducible_over_q_check(f)
            lifts.clear()
            assert irreducible_over_q_check(f, known, local) is expected, (kind, f)
            if kind == "square":
                assert local == {}, f
            seen[kind, expected, bool(local), bool(lifts)] += 1
        assert seen["product", False, True, True] >= 30
        # irreducible, and certified by the local degrees with nothing lifted
        assert seen["ramified", True, True, False] >= 40
        assert seen["ramified", False, True, True] >= 8

    def test_lift_stops_at_the_least_power_above_the_bound(self, monkeypatch):
        # Phi_24(x + 13), of the poly-split workload: Zassenhaus lifts its four
        # quadratic factors mod 5 through 5^2, 5^3, 5^5 and 5^9 to 5^17, the
        # least power of 5 above twice its Mignotte bound, and not to 5^32.
        # GeneralPoly certifies it without lifting, from its one local degree
        # 8 at 2, so the check is called here without the local degrees.
        coeffs = [815702161, 501979348, 135149638, 20792356, 1999269, 123032, 4732, 104, 1]
        assert IntPoly(coeffs) == shift(cyclotomic_polynomial(24), 13)
        bound = 2 * 2**8 * (isqrt(sum(c * c for c in coeffs)) + 1)
        assert 5**16 <= bound < 5**17
        calls = []
        lift = polyarith._hensel_lift

        def spy(f, factors, p, moduli):
            lifted = lift(f, factors, p, moduli)
            calls.append((p, moduli, factors, lifted))
            return lifted

        monkeypatch.setattr(polyarith, "_hensel_lift", spy)
        assert irreducible_over_q_check(IntPoly(coeffs)) is True
        p, moduli, factors, lifted = calls[-1]  # the root of the factor tree
        assert (p, len(factors)) == (5, 4)
        assert moduli == [5**2, 5**3, 5**5, 5**9, 5**17]
        m = 5**17
        product_mod_m = [1]
        for g in lifted:
            assert g[-1] == 1 and all(0 <= c < m for c in g)
            product_mod_m = _lmul(product_mod_m, g, m)
        assert product_mod_m == [c % m for c in coeffs]

    def test_swinnerton_dyer_certified(self):
        # irreducible, but a product of linear and quadratic factors mod every
        # prime: recombination tries up to 2^(r-1) - 1 subsets of r factors
        assert swinnerton_dyer([2, 3]) == IntPoly((1, 0, -10, 0, 1))
        assert irreducible_over_q_check(swinnerton_dyer([2, 3, 5, 7])) is True
        degree_32 = swinnerton_dyer([2, 3, 5, 7, 11])
        assert degree_32.degree == 32
        assert irreducible_over_q_check(degree_32) is True

    def test_recombination_budget_exits_5(self, capsys):
        degree_64 = swinnerton_dyer([2, 3, 5, 7, 11, 13])
        assert degree_64.degree == 64
        start = time.perf_counter()
        code = run(["compute", "--poly=" + ",".join(map(str, degree_64.coeffs))])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_BUDGET == 5, err
        assert f"more than {RECOMBINATION_BUDGET} subsets" in err
        assert elapsed < 30.0, f"took {elapsed:.2f}s"

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_products_are_reducible(self, ac, bc):
        f = product(ac + [1], bc + [1])
        assert irreducible_over_q_check(f) is False

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(2)
        for _ in range(150):
            f = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 8))] + [1])
            if rng.random() < 0.4:
                g = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [1])
                f = product(f, g)
            expected = sympy.Poly(list(reversed(f.coeffs)), x).is_irreducible
            assert irreducible_over_q_check(f) is expected, f


def _reference_sturm(f):
    """Reference: (distinct real roots, squarefree) of f by the Sturm chain
    over Q.  f is first divided by the monic gcd(f, f') so that repeated
    roots count once; signs at the two infinities come from leading
    coefficients alone."""

    def strip(cs):
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    def deriv(cs):
        return strip([i * c for i, c in enumerate(cs)][1:])

    def divmod_(a, b):
        r = list(a)
        db = len(b) - 1
        q = [Fraction(0)] * max(len(r) - db, 0)
        for i in range(len(r) - db - 1, -1, -1):
            q[i] = c = r[i + db] / b[-1]
            for j, bc in enumerate(b):
                r[i + j] -= c * bc
        return strip(q), strip(r[:db])

    fq = [Fraction(c) for c in f.coeffs]
    a, b = fq, deriv(fq)
    while b:
        a, b = b, divmod_(a, b)[1]
    g = [c / a[-1] for c in a]
    if len(g) > 1:
        fq, r = divmod_(fq, g)
        assert not r, "division was not exact"
    chain = [fq, deriv(fq)]
    while len(chain[-1]) > 1:
        r = [-c for c in divmod_(chain[-2], chain[-1])[1]]
        if not r:
            break
        chain.append(r)
    at_pos = [1 if cs[-1] > 0 else -1 for cs in chain]
    at_neg = [s * (-1) ** (len(cs) - 1) for s, cs in zip(at_pos, chain)]
    changes = lambda signs: sum(a != b for a, b in zip(signs, signs[1:]))  # noqa: E731
    return changes(at_neg) - changes(at_pos), len(g) == 1


def _int_polys(max_degree):
    """Integer polynomials of degree 1 to max_degree, mostly not monic."""
    return (
        st.lists(st.integers(-30, 30), min_size=2, max_size=max_degree + 1)
        .filter(lambda cs: cs[-1] != 0)
        .map(IntPoly)
    )


class TestSturm:
    def test_root_counts(self):
        assert sturm_real_roots(IntPoly((-2, 0, 1))) == 2  # x^2-2
        assert sturm_real_roots(IntPoly((1, 0, 1))) == 0  # x^2+1
        assert sturm_real_roots(IntPoly((-5, 0, 0, 1))) == 1  # x^3-5
        assert sturm_real_roots(IntPoly((0, -1, 0, 1))) == 3  # x^3-x
        assert sturm_real_roots(IntPoly((1, -2, 1))) == 1  # (x-1)^2, counted once
        assert sturm_real_roots(IntPoly((3,))) == 0
        assert sturm_real_roots(IntPoly((-3, -2))) == 1  # negative leading coefficient
        assert sturm_real_roots(IntPoly((1, 0, -1))) == 2  # 1 - x^2
        with pytest.raises(ValueError):
            sturm_real_roots(IntPoly(()))

    def test_mixed_product(self):
        # (x^2+1) * (x-2) * (x+3) * x has real roots {2, -3, 0}
        f = product((1, 0, 1), (-2, 1), (3, 1), (0, 1))
        assert sturm_real_roots(f) == 3

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_counts_distinct_integer_roots_of_split_polys(self, roots):
        f = product(*[(-r, 1) for r in roots])
        assert sturm_real_roots(f) == len(set(roots))

    @given(_int_polys(10))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, f):
        count, squarefree = _reference_sturm(f)
        assert sturm_real_roots(f) == count
        assert _squarefree_over_q(f) is squarefree

    @given(_int_polys(6), _int_polys(2))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_with_squared_factor(self, h, g):
        f = product(h, g, g)  # degree <= 10
        count, squarefree = _reference_sturm(f)
        assert not squarefree
        assert sturm_real_roots(f) == count
        assert _squarefree_over_q(f) is False

    def test_shifted_cyclotomics_have_no_real_root(self):
        phis = {n: euler_phi_factored(factorint(n)) for n in range(3, 100)}
        ns = [n for n, phi in phis.items() if 4 <= phi <= 20]
        assert len(ns) == 36
        for n in ns:
            for k in (-17, -11, 7, 13, 19):
                assert sturm_real_roots(shift(cyclotomic_polynomial(n), k)) == 0, (n, k)

    def test_swinnerton_dyer_roots_are_all_real(self):
        for primes in ([2, 3, 5, 7], [2, 3, 5, 7, 11], [2, 3, 5, 7, 11, 13]):
            f = swinnerton_dyer(primes)
            assert sturm_real_roots(f) == f.degree == 2 ** len(primes)
            if f.degree <= 32:
                assert sturm_real_roots(product(f, f)) == f.degree
                assert _squarefree_over_q(f) and not _squarefree_over_q(product(f, f))

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(3)
        for _ in range(200):
            f = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(2, 9))])
            if rng.random() < 0.3:
                g = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 3))])
                f = product(f, g, g)
            if f.degree < 1:
                continue
            sqf = sympy.Poly(list(reversed(f.coeffs)), x).sqf_part()
            assert sturm_real_roots(f) == sqf.count_roots(), f


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic_polynomial(1) == IntPoly((-1, 1))
        assert cyclotomic_polynomial(2) == IntPoly((1, 1))
        assert cyclotomic_polynomial(6) == IntPoly((1, -1, 1))
        assert cyclotomic_polynomial(8) == IntPoly((1, 0, 0, 0, 1))
        assert cyclotomic_polynomial(12) == IntPoly((1, 0, -1, 0, 1))

    def test_bounded(self):
        assert cyclotomic_polynomial(CYCLOTOMIC_POLY_LIMIT).degree == 400
        for n in (CYCLOTOMIC_POLY_LIMIT + 1, -1):
            with pytest.raises(ValueError):
                cyclotomic_polynomial(n)

    def test_degree_is_totient(self):
        for n in range(1, 41):
            assert cyclotomic_polynomial(n).degree == euler_phi_factored(factorint(n))

    def test_product_over_divisors(self):
        # x^n - 1 is the product of Phi_d over d | n, which fixes every Phi_n
        # by induction on n
        for n in range(1, 301):
            phis = [cyclotomic_polynomial(d) for d in range(1, n + 1) if n % d == 0]
            assert product(*phis) == IntPoly([-1] + [0] * (n - 1) + [1]), n

    def test_not_memoized(self):
        # built afresh on each call, with no cache to grow
        assert not hasattr(cyclotomic_polynomial, "cache_info")
        assert cyclotomic_polynomial(30) is not cyclotomic_polynomial(30)
