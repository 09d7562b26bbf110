"""Exact polynomial arithmetic over Z and F_p on coefficient lists, with IntPoly
and ModPoly as the values at the boundary, plus small number-theory helpers.

Everything is arbitrary-precision integer arithmetic; no floats enter any
code path.  Polynomials store coefficients lowest degree first with no
trailing zeros, so the zero polynomial has an empty coefficient tuple and
degree -1.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence


class BudgetExceededError(Exception):
    """A search would run past its fixed budget: the ring is too large for
    the oracle's enumeration, or recombination would try too many subsets."""


# ---------------------------------------------------------------------------
# integer helpers

# Inputs that reach trial division (factorint, is_prime) are bounded, so that
# every such run is short.
INTEGER_LIMIT = 10**12


# Error messages show an input in full only up to this many characters.
SHOWN_LENGTH = 50


def _digit_count(n: int) -> int:
    """Decimal digits of n >= 1, counted without str(), which has a limit."""
    d = (n.bit_length() - 1) * 3 // 10  # 10^d <= 2^(bit_length - 1) <= n
    while 10**d <= n:
        d += 1
    return d


def brief(value: int | str) -> str:
    """value as an error message names it: in full up to SHOWN_LENGTH
    characters, a string quoted; past that, a number by its digit count ("a
    4000-digit number") and a string, after the noun it follows, by its
    length ("of 5000 characters")."""
    if isinstance(value, str):
        if len(value) <= SHOWN_LENGTH:
            return repr(value)
        return f"of {len(value)} characters"
    if abs(value) < 10**SHOWN_LENGTH:
        return str(value)
    return f"a {_digit_count(abs(value))}-digit number"


def brief_poly(f: "IntPoly | ModPoly", render=str) -> str:
    """f as an error message names it: render(f) in full up to SHOWN_LENGTH
    characters, past that by its degree ("a polynomial of degree 64").  A
    coefficient that long is not rendered, as str() may refuse it."""
    if all(abs(c) < 10**SHOWN_LENGTH for c in f.coeffs):
        text = render(f)
        if len(text) <= SHOWN_LENGTH:
            return text
    return f"a polynomial of degree {f.degree}"


def check_limit(value: int, limit: int, name: str) -> None:
    """Raise ValueError when |value| exceeds limit."""
    if abs(value) > limit:
        raise ValueError(f"|{name}| must be at most {limit}, got {brief(value)}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division, as {prime: exponent}."""
    n = abs(n)
    if n < 2:
        return {}
    out: dict[int, int] = {}
    twos = (n & -n).bit_length() - 1  # the 2s are the trailing zero bits
    if twos:
        out[2] = twos
        n >>= twos
    p = 3
    while p * p <= n:
        if n % p == 0:
            n //= p
            k = 1
            while n % p == 0:
                n //= p
                k += 1
            out[p] = k
        p += 2
    if n > 1:  # a prime past the square root of what is left
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > n:
            return True
        if n % p == 0:
            return False
    return True


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n (|n| taken; 0 is not squarefree)."""
    n = abs(n)
    if n == 0:
        return False
    return all(e == 1 for e in factorint(n).values())


def is_prime_power(q: int) -> tuple[int, int] | None:
    """(p, r) with q = p**r, or None when q is not a prime power."""
    if q < 2:
        return None
    fac = factorint(q)
    if len(fac) != 1:
        return None
    ((p, r),) = fac.items()
    return p, r


def primes_dividing(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorint(n)))


def euler_phi_factored(factors: Mapping[int, int]) -> int:
    """Euler totient of the integer with prime factorization {p: k}."""
    return prod((p - 1) * p ** (k - 1) for p, k in factors.items())


def multiplicative_order_factored(a: int, factors: Mapping[int, int]) -> int:
    """The least f >= 1 with a^f = 1 mod s, for s = prod p^k over {p: k} and
    a prime to s.  The order divides the Carmichael exponent lambda(s), so
    each prime is divided out of lambda(s) for as long as a still has order
    dividing the rest."""
    s = f = 1
    for p, k in factors.items():
        s *= p**k
        f = lcm(f, 2 ** (k - 2) if p == 2 and k >= 3 else (p - 1) * p ** (k - 1))
    for p in factorint(f):
        while f % p == 0 and pow(a, f // p, s) == 1:
            f //= p
    return f


# ---------------------------------------------------------------------------
# integer polynomials


class IntPoly:
    """Univariate integer polynomial as a value, coefficients lowest degree
    first: it parses, evaluates, compares and prints.  Arithmetic in Z[x]
    runs on coefficient lists."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs: tuple[int, ...] = tuple(_trim(list(coeffs)))

    @classmethod
    def from_csv(cls, text: str) -> "IntPoly":
        """Parse comma-separated coefficients, constant term first.

        "-5,0,0,1" is x^3 - 5.  A unicode minus sign is accepted.
        """
        body = text.replace("−", "-").strip()
        if not body:
            raise ValueError("empty polynomial")
        coeffs = []
        for part in body.split(","):
            try:
                coeffs.append(int(part))
            except ValueError:  # also a run of digits past the parse limit
                shown = brief(part.strip())
                raise ValueError(f"bad polynomial coefficient {shown}") from None
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return _render_poly(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


def _render_poly(coeffs: tuple[int, ...]) -> str:
    if not coeffs:
        return "0"
    parts: list[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if abs(c) == 1 else f"{abs(c)}{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# coefficient lists mod m
#
# The factoring and lifting algorithms, and ModPoly division, share these
# helpers on plain sequences of residues in [0, m), lowest degree first, with
# no trailing zeros; results are lists.  Division by a monic polynomial works
# for any modulus m; gcds and inverses need m prime.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _ladd(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _trim(out)


def _lsub(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _trim(out)


def _lmul(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % m for c in out])


def _ldivmod(
    a: Sequence[int], b: Sequence[int], m: int
) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b; b's leading coefficient is a unit mod m."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    inv = pow(b[-1], -1, m)
    rem = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[i + db] * inv % m
        if c:
            q[i] = c
            for j in range(db):
                rem[i + j] -= c * b[j]
    return q, _trim([c % m for c in rem[:db]])


def _lderiv(a: Sequence[int], m: int) -> list[int]:
    return _trim([i * c % m for i, c in enumerate(a)][1:])


def _lmonic(a: Sequence[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _lgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    while b:
        a, b = b, _ldivmod(a, b, p)[1]
    return _lmonic(a, p)


def _lxgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s a + t b = 1 over F_p, deg s < deg b and deg t < deg a,
    for coprime a and b of positive degree."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _ldivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _lsub(s0, _lmul(q, s1, p), p)
        t0, t1 = t1, _lsub(t0, _lmul(q, t1, p), p)
    inv = pow(r0[0], -1, p)  # r0 is the gcd, a nonzero constant
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _lpowmod(a: Sequence[int], e: int, f: Sequence[int], m: int) -> list[int]:
    """a**e mod f, for monic f, by square-and-multiply."""
    result, base = [1], _ldivmod(a, f, m)[1]
    while e:
        if e & 1:
            result = _ldivmod(_lmul(result, base, m), f, m)[1]
        e >>= 1
        if e:
            base = _ldivmod(_lmul(base, base, m), f, m)[1]
    return result


# Up to this prime a^p mod f is taken as a(x^p) mod f, the last p at which
# that beat square-and-multiply at every degree measured (8-64, four random f
# each, on a Xeon): 1.3-3.4 times as fast at p = 2 and 3, 1.1-2.4 at p = 5.
# At p = 7 it lost at degree 64, and from p = 11 on at several degrees.
_FROBENIUS_SPREAD_LIMIT = 5


def _lfrobenius(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """a**p mod f over F_p, for monic f.  For small p it is a(x^p) mod f, the
    coefficients spread p apart and reduced once, exact since c^p = c on F_p
    (von zur Gathen & Gerhard, sections 14.3 and 14.5)."""
    if p > _FROBENIUS_SPREAD_LIMIT:
        return _lpowmod(a, p, f, p)
    spread = [0] * (p * (len(a) - 1) + 1)
    spread[::p] = a
    return _ldivmod(spread, f, p)[1]


# ---------------------------------------------------------------------------
# polynomials over F_p


class ModPoly:
    """Univariate polynomial over F_p, p prime; coefficients lowest degree first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int]):
        check_limit(p, INTEGER_LIMIT, "p")  # bounded before trial division
        if p < 2 or not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self._fill(p, coeffs)

    def _fill(self, p: int, coeffs: Iterable[int]) -> None:
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs: tuple[int, ...] = tuple(cs)

    def _new(self, coeffs: Iterable[int]) -> "ModPoly":
        """A polynomial over this one's F_p.  The modulus was checked prime
        when this polynomial came in, so it is not checked again: trial
        division costs sqrt(p), on every quotient and factor returned."""
        poly = ModPoly.__new__(ModPoly)
        poly._fill(self.p, coeffs)
        return poly

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(("ModPoly", self.p, self.coeffs))

    def _check(self, other: "ModPoly") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __divmod__(self, g: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        self._check(g)
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _ldivmod(self.coeffs, g.coeffs, self.p)
        return self._new(q), self._new(r)

    def __str__(self) -> str:
        return _render_poly(self.coeffs)

    def __repr__(self) -> str:
        return f"ModPoly({self.p}, {list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# factoring over F_p


def _squarefree_parts(f: Sequence[int], p: int) -> list[tuple[list[int], int]]:
    """Pairs (g, m): the monic squarefree pairwise-coprime parts g of a monic f
    over F_p with multiplicities m, product f; none for f = 1.

    Yun's algorithm, characteristic-p aware (mandatory for p = 2 and 3, where
    repeated factors often kill the derivative): what it leaves of gcd(f, f')
    lies in F_p[x^p], the p-th power of the polynomial of its coefficients at
    multiples of p (a^p = a on F_p), and is decomposed recursively.
    """
    if len(f) < 2:
        return []
    out = []
    c = _lgcd(f, _lderiv(f, p), p)
    w = _ldivmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = _lgcd(w, c, p)
        z = _ldivmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        i += 1
        w, c = y, _ldivmod(c, y, p)[0]
    return out + [(g, m * p) for g, m in _squarefree_parts(c[::p], p)]


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Pairs (g, d): g is the product of the irreducible factors of degree d of
    a squarefree monic f over F_p (von zur Gathen & Gerhard, Alg. 14.3).

    g = gcd(x^(p^d) - x, f) once the factors of lower degree are divided out;
    whatever is left when 2d exceeds its degree is irreducible.
    """
    out = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _lfrobenius(h, f, p)
        g = _lgcd(f, _lsub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _ldivmod(f, g, p)[0]
            h = _ldivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Irreducible factors of a squarefree monic g over F_p all of whose
    irreducible factors have degree d (Cantor & Zassenhaus 1981).

    A random a splits g by gcd(a^((p^d-1)/2) - 1, g) for odd p, and by
    gcd(a + a^2 + a^4 + ... + a^(2^(d-1)), g), the trace map, for p = 2.
    Both run on p-th powers: (p^d-1)/2 = (p-1)/2 (1 + p + ... + p^(d-1)), so
    for odd p the power is c c^p ... c^(p^(d-1)) with c = a^((p-1)/2).
    """
    n = len(g) - 1
    if n == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = _lfrobenius(t, g, 2)
                b = _ladd(b, t, 2)
        else:
            b = t = _lpowmod(a, (p - 1) // 2, g, p)
            for _ in range(d - 1):
                t = _lfrobenius(t, g, p)
                b = _ldivmod(_lmul(b, t, p), g, p)[1]
            b = _lsub(b, [1], p)
        c = _lgcd(g, b, p)
        if 0 < len(c) - 1 < n:
            rest = _ldivmod(g, c, p)[0]
            return _equal_degree(c, d, p, rng) + _equal_degree(rest, d, p, rng)


def _split_parts(parts: list[tuple[list[int], int]], p: int) -> list[list[int]]:
    """Irreducible factors behind distinct-degree parts over F_p.  The
    splitting elements come from a generator seeded here, so every run takes
    the same steps; it is built at the first part that holds more than one
    factor, as a part of one factor draws nothing."""
    rng = None
    out = []
    for g, d in parts:
        if len(g) - 1 == d:
            out.append(g)
            continue
        if rng is None:
            rng = random.Random(0)
        out += _equal_degree(g, d, p, rng)
    return out


POLY_DEGREE_LIMIT = 64  # of a --poly input and of a ring factor's h
# Past this degree factor_mod_p refuses its input: the work grows about eight
# times per doubling of the degree.  The package's own calls stop at POLY_DEGREE_LIMIT.
FACTOR_DEGREE_LIMIT = 128


def factor_mod_p(f: ModPoly) -> list[tuple[ModPoly, int]]:
    """Complete factorization of monic f over F_p into (irreducible, multiplicity).

    Squarefree decomposition first, then distinct-degree factorization and
    Cantor–Zassenhaus splitting of each squarefree part; any prime p works,
    and the degree is at most FACTOR_DEGREE_LIMIT.  The pairs are sorted by
    degree, then by coefficients (lowest degree first), and the result does
    not depend on the random splitting elements.
    """
    check_limit(f.degree, FACTOR_DEGREE_LIMIT, "degree")
    if f.degree < 1:
        raise ValueError(f"need degree >= 1, got {brief_poly(f, repr)}")
    if not f.is_monic:
        raise ValueError(f"need a monic polynomial, got {brief_poly(f, repr)}")
    p = f.p
    found = [
        (g, m)
        for part, m in _squarefree_parts(f.coeffs, p)
        for g in _split_parts(_distinct_degree(part, p), p)
    ]
    found.sort(key=lambda gm: _factor_order(gm[0]))
    return [(f._new(g), m) for g, m in found]


def _factor_order(g: list[int]) -> tuple[int, list[int]]:
    """Sort key of a factor: degree, then coefficients lowest degree first."""
    return len(g), g


# ---------------------------------------------------------------------------
# Dedekind's criterion


def dedekind_obstruction(
    f: IntPoly, p: int, factors: list[tuple[ModPoly, int]]
) -> ModPoly:
    """Dedekind's criterion for a monic f at the prime p, from factors =
    factor_mod_p(f mod p) (Cohen, GTM 138, section 6.1).  With g the radical
    and h the cofactor of f mod p, lifted to [0, p), and t = (g h - f) / p,
    the obstruction is gcd(t, g, h) over F_p, the product of the repeated
    factors of f mod p that divide t; Z[x]/(f) is p-maximal exactly when it
    is 1."""
    radical = cofactor = [1]
    for gbar, e in factors:
        radical = _lmul(radical, gbar.coeffs, p)
        for _ in range(e - 1):
            cofactor = _lmul(cofactor, gbar.coeffs, p)
    p2 = p * p
    t = [c // p for c in _lsub(_lmul(radical, cofactor, p2), f.coeffs, p2)]
    return ModPoly(p, _lgcd(_lgcd(t, radical, p), cofactor, p))


# ---------------------------------------------------------------------------
# irreducibility over Q

# Good primes (f mod p squarefree) whose distinct-degree pattern is read
# before Zassenhaus's algorithm runs at the one with the fewest factors.
# More cost a distinct-degree factorization each and rarely pay: on the
# Phi_n(x + k) of the poly-split workload and on random polynomials, one was
# fastest and four or more slowest, but one prime can leave many factors
# where the next leaves few.
_PATTERN_PRIMES = 3
# Primes at which f mod p has a repeated factor before f itself is tested for
# one over Q; a squarefree f has only finitely many such primes.
_BAD_PRIMES_BEFORE_GCD = 8
# Subsets Zassenhaus recombination may try, a few microseconds each.  r
# factors mod p need up to 2^(r-1) - 1 of them: the degree-32 Swinnerton-Dyer
# polynomial (r = 16) needs 32767, the degree-64 one (r = 32) about 2^31.
RECOMBINATION_BUDGET = 1 << 18


def _primes() -> Iterator[int]:
    return (p for p in itertools.count(2) if is_prime(p))


def _squarefree_over_q(f: IntPoly) -> bool:
    """gcd(f, f') is a constant, for deg f >= 1."""
    return len(_sturm_sequence(f)[-1]) == 1


def _degree_mask(parts: list[tuple[list[int], int]]) -> int:
    """Bit k set when a product of the irreducible factors behind the
    distinct-degree parts has degree k."""
    mask = 1
    for g, d in parts:
        for _ in range((len(g) - 1) // d):
            mask |= mask << d
    return mask


def _hensel_step(
    f: list[int],
    g: list[int],
    h: list[int],
    s: list[int],
    t: list[int],
    m: int,
    lift_inverse: bool,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Quadratic Hensel step (von zur Gathen & Gerhard, Alg. 15.10): from
    f = g h and s g + t h = 1 mod m, with g and h monic, to the same mod m^2.
    The inverse pair (s, t) is lifted only when a further step needs it."""
    m2 = m * m
    e = _lsub(f, _lmul(g, h, m2), m2)
    q, r = _ldivmod(_lmul(s, e, m2), h, m2)
    g = _ladd(g, _ladd(_lmul(t, e, m2), _lmul(q, g, m2), m2), m2)
    h = _ladd(h, r, m2)
    if lift_inverse:
        b = _lsub(_ladd(_lmul(s, g, m2), _lmul(t, h, m2), m2), [1], m2)
        c, d = _ldivmod(_lmul(s, b, m2), h, m2)
        s = _lsub(s, d, m2)
        t = _lsub(t, _ladd(_lmul(t, b, m2), _lmul(c, g, m2), m2), m2)
    return g, h, s, t


def _hensel_lift(
    f: list[int], factors: list[list[int]], p: int, modulus: int
) -> list[list[int]]:
    """Monic factors of f mod modulus = p^(2^j) lifting the pairwise coprime
    monic factors mod p whose product is f mod p, along a balanced factor
    tree (von zur Gathen & Gerhard, Alg. 15.17)."""
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g = functools.reduce(lambda a, b: _lmul(a, b, p), factors[:half])
    h = functools.reduce(lambda a, b: _lmul(a, b, p), factors[half:])
    s, t = _lxgcd(g, h, p)
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m, m * m < modulus)
        m *= m
    return _hensel_lift(g, factors[:half], p, modulus) + _hensel_lift(
        h, factors[half:], p, modulus
    )


def _has_factor_over_z(
    f: IntPoly, factors: list[list[int]], p: int, degrees: int
) -> bool:
    """Zassenhaus recombination: does f have a monic factor over Z of degree
    strictly between 0 and deg f?

    factors are the irreducible factors of f mod p, f squarefree mod p, and
    degrees is a bit mask of the factor degrees still possible.  Every
    coefficient of a factor of f is at most B = 2^n ||f||_2 in absolute value
    (Mignotte), so once lifted mod p^k > 2B, the product of a subset of the
    lifted factors, in symmetric residues, is the factor itself when it is
    one.  A factor or its cofactor comes from at most half of the factors.
    Raises BudgetExceededError past RECOMBINATION_BUDGET subsets.
    """
    bound = 2 * 2**f.degree * (isqrt(sum(c * c for c in f.coeffs)) + 1)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    lifted = _hensel_lift([c % modulus for c in f.coeffs], factors, p, modulus)
    half = modulus // 2
    c0 = f.coeffs[0]
    r = len(lifted)
    tried = 0
    for size in range(1, r // 2 + 1):
        for subset in itertools.combinations(range(r), size):
            if 2 * size == r and subset[0]:
                break  # the rest are the complements of subsets already tried
            tried += 1
            if tried > RECOMBINATION_BUDGET:
                raise BudgetExceededError(
                    f"recombining {r} factors mod {p} would try more than "
                    f"{RECOMBINATION_BUDGET} subsets"
                )
            if not degrees >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            const = 1
            for i in subset:
                const = const * lifted[i][0] % modulus
            if const > half:
                const -= modulus
            if const == 0 or c0 % const:
                continue
            prod = [1]
            for i in subset:
                prod = _lmul(prod, lifted[i], modulus)
            g = [c - modulus if c > half else c for c in prod]
            if not _neg_pseudo_remainder(list(f.coeffs), g):  # g monic: exact
                return True
    return False


def irreducible_over_q_check(
    f: IntPoly, factorizations: Mapping[int, list[tuple[ModPoly, int]]] | None = None
) -> bool:
    """Exact irreducibility of a monic integer polynomial over Q.

    Cheap certificates come first: degree 1; a zero constant term; an integer
    root, searched when |f(0)| <= 10^6 (without one, degree 2 or 3 is
    irreducible); a good prime p (f mod p squarefree) at which f has one
    irreducible factor, or good primes whose factor degrees leave no degree a
    proper factor over Z could have.  Otherwise Zassenhaus's algorithm decides
    at the good prime with the fewest factors: split f fully mod p, lift the
    factors quadratically past twice a Mignotte bound, and try the products of
    at most half of them as factors over Z.

    factorizations maps a prime p to factor_mod_p(f mod p), when the caller
    has it; at those primes the squarefree test, the degree pattern and the
    factors are read from it rather than computed again.
    """
    if not f.is_monic or f.degree < 1:
        raise ValueError("check needs a monic polynomial of degree >= 1")
    n = f.degree
    if n == 1:
        return True
    c0 = f.coeffs[0]
    if c0 == 0:
        return False
    if abs(c0) <= 10**6:
        divisors = {1}
        for p, e in factorint(c0).items():
            divisors = {d * p**k for d in divisors for k in range(e + 1)}
        for d in sorted(divisors):
            if f(d) == 0 or f(-d) == 0:
                return False
        if n <= 3:
            return True
    factorizations = factorizations or {}
    last_known = max(factorizations, default=0)
    degrees = (1 << n) - 2  # bit mask of the degrees a proper factor may have
    best: tuple[int, int, list] | None = None  # (factor count, p, parts)
    bad = good = 0
    for p in _primes():
        # two factors leave one subset to try; but a factorization the caller
        # gave may settle f at no cost, so every one is read first
        if best is not None and best[0] == 2 and p > last_known:
            break
        known = factorizations.get(p)
        if known is None:
            fp = [c % p for c in f.coeffs]
            squarefree = len(_lgcd(fp, _lderiv(fp, p), p)) == 1
        else:
            squarefree = all(m == 1 for _, m in known)
        if not squarefree:
            bad += 1
            if best is None and bad == _BAD_PRIMES_BEFORE_GCD:
                if not _squarefree_over_q(f):
                    return False
            continue
        # an irreducible factor is a distinct-degree part of its own degree
        parts = (
            _distinct_degree(fp, p)
            if known is None
            else [(list(g.coeffs), g.degree) for g, _ in known]
        )
        degrees &= _degree_mask(parts)
        if not degrees:  # no degree is left for a proper factor
            return True
        count = sum((len(g) - 1) // d for g, d in parts)
        if best is None or count < best[0]:
            best = (count, p, parts)
        good += 1
        if good == _PATTERN_PRIMES:
            break
    _, p, parts = best
    # in factor_mod_p's order; a known factorization comes back as it went in
    factors = sorted(_split_parts(parts, p), key=_factor_order)
    return not _has_factor_over_z(f, factors, p, degrees)


# ---------------------------------------------------------------------------
# Sturm sequences over Z


def _neg_pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of -(|lc b|^k a mod b), k = deg a - deg b + 1: a
    positive multiple of -(a mod b) over Q, computed in integers."""
    if b[-1] < 0:
        b = [-c for c in b]  # same remainder, positive leading coefficient
    rem = list(a)
    db = len(b) - 1
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem.pop()
        rem = [b[-1] * x for x in rem]
        for j in range(db):
            rem[i + j] -= c * b[j]
    rem = _trim(rem)
    content = gcd(*rem)
    return [-x // content for x in rem]


def _sturm_sequence(f: IntPoly) -> list[list[int]]:
    """f, f' and negated pseudo-remainders, for deg f >= 1 (Cohen, GTM 138,
    section 3.3).  Each term is a positive multiple of the one a Sturm chain
    over Q would have; the last is gcd(f, f') up to a nonzero factor."""
    seq = [list(f.coeffs), [i * c for i, c in enumerate(f.coeffs)][1:]]
    while len(seq[-1]) > 1:
        r = _neg_pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(r)
    return seq


def _sign_variations(signs: list[int]) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_real_roots(f: IntPoly) -> int:
    """Number of distinct real roots of f, by a Sturm sequence over Z.

    Divided by its last term g, gcd(f, f') up to a factor, the sequence is a
    Sturm chain of f / g, which has each root of f once; the division flips
    all signs at an infinity alike, so the sign changes there, read from
    leading coefficients, stay the same.
    """
    if not f.coeffs:
        raise ValueError("zero polynomial has no root count")
    if f.degree < 1:
        return 0
    seq = _sturm_sequence(f)
    at_pos = [1 if cs[-1] > 0 else -1 for cs in seq]
    at_neg = [s if len(cs) % 2 else -s for s, cs in zip(at_pos, seq)]
    return _sign_variations(at_neg) - _sign_variations(at_pos)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


# Phi_n is built in about 2^omega(n) n steps, 1.5 ms at n = 840; n is
# bounded so that every call stays short.
CYCLOTOMIC_POLY_LIMIT = 1000


def cyclotomic_polynomial(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, for 1 <= n <= CYCLOTOMIC_POLY_LIMIT,
    as the product of (x^d - 1)^mu(n/d) over the divisors d of n.  The
    binomials with mu = 1 are multiplied in first, then those with mu = -1
    divided out exactly; each step is a two-term recurrence."""
    check_limit(n, CYCLOTOMIC_POLY_LIMIT, "n")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    primes = primes_dividing(n)
    up, down = [], []  # the d with mu(n/d) = 1 and -1
    for r in range(len(primes) + 1):
        for ps in itertools.combinations(primes, r):
            (down if r % 2 else up).append(n // prod(ps))
    c = [1]
    for d in up:  # c (x^d - 1)
        c = [
            (c[i - d] if i >= d else 0) - (c[i] if i < len(c) else 0)
            for i in range(len(c) + d)
        ]
    for d in down:  # c / (x^d - 1): c[i] = q[i - d] - q[i]
        q: list[int] = []
        for i in range(len(c) - d):
            q.append((q[i - d] if i >= d else 0) - c[i])
        c = q
    return IntPoly(c)
