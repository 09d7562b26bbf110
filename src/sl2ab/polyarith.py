"""Exact polynomial arithmetic over Z and F_p on coefficient lists, and over
F_2 and F_3 on bit-planes, with IntPoly and ModPoly as the values at the
boundary, plus small number-theory helpers.

Everything is arbitrary-precision integer arithmetic; no floats enter any
code path.  Polynomials store coefficients lowest degree first with no
trailing zeros, so the zero polynomial has an empty coefficient tuple and
degree -1.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import sys
from array import array
from math import gcd, isqrt, prod
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
    """Prime factorization of |n| by trial division, as {prime: exponent}.
    Where trial division would pass 1000, the cofactor left by the primes
    below 1000, found by one gcd, is tested for primality once, so that a
    prime past 10^6 is not divided up to its square root."""
    n = abs(n)
    if n < 2:
        return {}
    out: dict[int, int] = {}
    twos = (n & -n).bit_length() - 1  # the 2s are the trailing zero bits
    if twos:
        out[2] = twos
        n >>= twos
    if n >= _COFACTOR_TEST:
        # what trial division below 1000 leaves, tested once: a prime is split
        # off, and trial division runs on the rest, a 1000-smooth number
        rest, g = n, gcd(n, _ODD_BELOW_1000)
        while g > 1:
            rest //= g
            g = gcd(rest, g)
        if rest >= _COFACTOR_TEST and _strong_probable_prime(rest):
            out.update(factorint(n // rest))
            out[rest] = 1
            return out
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


# Miller-Rabin to the first twelve prime bases is exact below _MILLER_RABIN_EXACT:
# no composite below it is a strong pseudoprime to all of them (Sorenson and
# Webster, Strong pseudoprimes to twelve prime bases, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_EXACT = 318665857834031151167461
# is_prime trial-divides up to this; factorint tests its cofactor by primes
# past 1000 only from _COFACTOR_TEST on, where trial division would pass 1000:
# no n of at most 10^6 reaches either test
_TRIAL_DIVISION_ONLY = 10**6
_COFACTOR_TEST = 1001**2
# the odd numbers below 1000 multiplied: its gcd with n is divisible by n's
# odd primes below 1000 and by no other prime
_ODD_BELOW_1000 = prod(range(3, 1000, 2))


def _strong_probable_prime(n: int) -> bool:
    """n, odd and past 37, passes Miller-Rabin to every base in
    _MILLER_RABIN_BASES; below _MILLER_RABIN_EXACT, exactly when n is prime.
    Past it the answer is False, as it cannot be trusted."""
    if n >= _MILLER_RABIN_EXACT:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """n is prime: by trial division up to 10^6, and by Miller-Rabin past it
    up to _MILLER_RABIN_EXACT (about 3.2 * 10^23), where that is exact."""
    if _TRIAL_DIVISION_ONLY < n < _MILLER_RABIN_EXACT:
        return n % 2 == 1 and _strong_probable_prime(n)
    return factorint(n) == {n: 1}


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n (|n| taken; 0 is not squarefree).
    Trial division runs to the cube root of what is left: a cofactor with no
    prime factor below it has at most two, so only a square is not squarefree."""
    n = abs(n)
    if n % 4 == 0:  # 0 too
        return False
    if n % 2 == 0:
        n //= 2
    p = 3
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 2
    return n == 1 or isqrt(n) ** 2 != n


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


def multiplicative_order(a: int, s: int, exponent: int) -> int:
    """The least f >= 1 with a^f = 1 mod s, from an exponent >= 1 with
    a^exponent = 1 mod s (phi(s) for a prime to s; otherwise ValueError):
    each prime is divided out of it while a's order still divides the rest."""
    one = 1 % s
    if exponent < 1 or pow(a, exponent, s) != one:
        raise ValueError(f"{brief(a)}^{brief(exponent)} is not 1 mod {brief(s)}")
    for p in factorint(exponent):
        while exponent % p == 0 and pow(a, exponent // p, s) == one:
            exponent //= p
    return exponent


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
# The lifting algorithms, factoring over F_p for p >= 5, and ModPoly division
# share these helpers on plain sequences of residues in [0, m), lowest degree
# first, with no trailing zeros; results are lists.  (Factoring over F_2 and
# F_3 runs on bit-planes; see "factoring over F_p".)  Long division is the
# schoolbook loop; by a monic polynomial it works for any modulus m, while
# gcds and inverses need m prime.
#
# Every product runs on packed integers (Kronecker substitution): a list a
# becomes the integer sum a_i 2^(w i), so one integer product holds every
# coefficient of the polynomial product, each in its own w-bit slot.  A slot
# holds a sum of at most k products of residues, k the shorter operand's
# length, so w = 2 bits(m) + bits(k), rounded up to whole bytes; slots of 1,
# 2, 4 and 8 bytes are read and written through array.  A packed
# coefficient must be a residue in [0, m): any other would spill into its
# neighbour's slot.


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


# array codes by item size, for unsigned slots of 1, 2, 4 and 8 bytes; none
# on a big-endian machine, whose arrays are not little-endian.  (struct would
# need a format per length, and its cache of 100 formats thrashes.)
_SLOT_CODES = (
    {array(c).itemsize: c for c in "QLIHB"} if sys.byteorder == "little" else {}
)


def _slot_bytes(m: int, terms: int) -> int:
    """Bytes per slot that hold a sum of `terms` products of residues mod m,
    rounded up to 1, 2, 4 or 8 where that is enough."""
    size = (2 * m.bit_length() + terms.bit_length() + 7) // 8
    return size if size > 8 else 1 << (size - 1).bit_length()


def _pack(a: Sequence[int], size: int) -> int:
    """The residues a as one integer, a_i in the i-th slot of `size` bytes."""
    code = _SLOT_CODES.get(size)
    if code is None:
        data = b"".join([c.to_bytes(size, "little") for c in a])
        return int.from_bytes(data, "little")
    return int.from_bytes(array(code, a), "little")


def _unpack(x: int, size: int, count: int, m: int) -> list[int]:
    """Slots 0 .. count - 1 of x >= 0, each reduced mod m; x has no others."""
    data = x.to_bytes(count * size, "little")
    code = _SLOT_CODES.get(size)
    if code is None:
        return [
            int.from_bytes(data[i : i + size], "little") % m
            for i in range(0, len(data), size)
        ]
    return [c % m for c in array(code, data)]


def _lmul(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if not a or not b:
        return []
    size = _slot_bytes(m, min(len(a), len(b)))
    x = _pack(a, size) * _pack(b, size)
    return _trim(_unpack(x, size, len(a) + len(b) - 1, m))


def _ldivmod(
    a: Sequence[int], b: Sequence[int], m: int
) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b; b's leading coefficient is a unit mod m."""
    db = len(b) - 1
    k = len(a) - db  # quotient length
    if k <= 0:
        return [], list(a)
    inv = pow(b[-1], -1, m)
    rem = list(a)
    q = [0] * k
    for i in range(k - 1, -1, -1):
        c = rem[i + db] * inv % m
        if c:
            q[i] = c
            for j in range(db):
                rem[i + j] -= c * b[j]
    return q, _trim([c % m for c in rem[:db]])


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
    for coprime a and b of positive degree; t is (1 - s a) / b, exactly."""
    r0, r1, s0, s1 = a, b, [1], []
    while r1:
        q, r = _ldivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _lsub(s0, _lmul(q, s1, p), p)
    inv = pow(r0[0], -1, p)  # r0 is the gcd, a nonzero constant
    s = [c * inv % p for c in s0]
    return s, _ldivmod(_lsub([1], _lmul(s, a, p), p), b, p)[0]


class _ModF:
    """Arithmetic mod one monic f of degree n >= 1 over Z/m, on residue lists
    of length at most n: products, powers and, for m prime, p-th powers.
    Its tables live as long as it does, and its caller builds it for one call.

    Every product packs and is reduced by a packed table of x^j mod f,
    n <= j < 2n - 1, built at the first product: one multiply-add of a row
    per coefficient above x^(n - 1), then one unpack."""

    def __init__(self, f: Sequence[int], m: int):
        self.f, self.n, self.m = f, len(f) - 1, m
        # a reduced slot sums at most n products and n - 1 table terms
        self.size = _slot_bytes(m, 2 * self.n)
        self.rows: list[int] = []  # the table, packed
        self.matrix: list[int] = []  # the Frobenius matrix, packed
        self.power_products = 0  # products taken by p-th powers so far

    def _table(self) -> list[int]:
        """Packed x^j mod f for n <= j < 2n - 1, each x times the last."""
        m, size = self.m, self.size
        row = first = [-c % m for c in self.f[:-1]]  # x^n mod f
        rows = [_pack(row, size)]
        for _ in range(self.n - 2):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [(c + top * r) % m for c, r in zip(row, first)]
            rows.append(_pack(row, size))
        return rows

    def mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        n, m, size = self.n, self.m, self.size
        if not a or not b:
            return []
        if not self.rows:
            self.rows = self._table()
        count = len(a) + len(b) - 1
        x = _pack(a, size) * _pack(b, size)
        if count <= n:
            return _trim(_unpack(x, size, count, m))
        bits = 8 * size * n
        high = _unpack(x >> bits, size, count - n, m)
        low = x & ((1 << bits) - 1)
        return _trim(_unpack(sum(map(operator.mul, high, self.rows), low), size, n, m))

    def pow(self, a: Sequence[int], e: int) -> list[int]:
        """a**e mod f by square-and-multiply, for e >= 1."""
        result, base = None, a
        while e:
            if e & 1:
                result = base if result is None else self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def frobenius(self, a: Sequence[int]) -> list[int]:
        """a^p mod f over F_p, p = m prime.  The map is linear (c^p = c on
        F_p), so it is its matrix, the packed rows x^(p i) mod f for i < n
        (von zur Gathen & Shoup 1992): x^p mod f by square-and-multiply, each
        later row the one before times it; a^p is then one multiply-add per
        coefficient and one unpack.  A power takes k products and the matrix
        k + n - 1, so powers are taken until they have cost that much; then
        the matrix is built, which keeps the cost within twice the cheaper
        choice."""
        n, p = self.n, self.m
        if not self.matrix:
            k = p.bit_length() + p.bit_count() - 2
            if self.power_products < k + n - 1:
                self.power_products += k
                return self.pow(a, p)
            xp = self.pow([0, 1], p) if n > 1 else []
            row, self.matrix = [1], [1]
            for _ in range(n - 1):
                row = self.mul(row, xp)
                self.matrix.append(_pack(row, self.size))
        return _trim(_unpack(sum(map(operator.mul, a, self.matrix)), self.size, n, p))


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
#
# Yun's squarefree split, distinct-degree factorization and equal-degree
# splitting are written once, over a kernel K: one representation of F_p[x]
# with the operations they call (degree, sum, difference, gcd, divmod, mod,
# derivative, p-th root) and K.ring(f) for p-th powers mod a monic f.
# Residue lists serve any prime (_Lists), and their ring also powers, which
# only splitting above p = 3 asks for, to raise the trace to (p - 1)/2; p = 2
# and 3 run on bit-planes (_F2, _F3), where one integer operation acts on
# every coefficient at once.  K.encode and K.decode convert from and to
# residue lists at factor_mod_p's boundary.


class _Lists:
    """F_p[x] on residue lists, for any prime p."""

    one, x = [1], [0, 1]
    encode = staticmethod(list)

    def __init__(self, p: int):
        self.p = p

    def decode(self, a: list[int]) -> list[int]:
        return a

    def deg(self, a: list[int]) -> int:
        return len(a) - 1

    def add(self, a: list[int], b: list[int]) -> list[int]:
        return _ladd(a, b, self.p)

    def sub(self, a: list[int], b: list[int]) -> list[int]:
        return _lsub(a, b, self.p)

    def gcd(self, a: list[int], b: list[int]) -> list[int]:
        return _lgcd(a, b, self.p)

    def divmod(self, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
        return _ldivmod(a, b, self.p)

    def mod(self, a: list[int], b: list[int]) -> list[int]:
        return _ldivmod(a, b, self.p)[1]

    def deriv(self, a: list[int]) -> list[int]:
        return _trim([i * c % self.p for i, c in enumerate(a)][1:])

    def root(self, a: list[int]) -> list[int]:
        """The p-th root of a in F_p[x^p]: its coefficients at multiples of p."""
        return a[:: self.p]

    def ring(self, f: list[int]) -> _ModF:
        return _ModF(f, self.p)


# Bit-sliced polynomials (Brent, Gaudry, Thomé and Zimmermann, "Faster
# multiplication in GF(2)[x]", ANTS VIII, 2008; Boothby and Bradshaw,
# "Bitslicing and the method of four Russians over larger finite fields",
# 2009).  Over F_2 a polynomial is one int, bit i the coefficient of x^i.  Over
# F_3 it is a pair of bit-planes (P, N): bit i of P is set when the coefficient
# of x^i is 1, and bit i of N when it is 2.  a(x^p) spreads the bits p apart
# and the p-th root gathers every p-th bit, both through the binary string;
# the derivative keeps the bits at i = 1 (and 2) mod p and shifts them down.


def _spread(a: int, k: int) -> int:
    """Bit i of a >= 0 moved to bit k i, for 1 <= k <= 5."""
    return int(format(a, "b"), 1 << k)


def _gather(a: int, k: int) -> int:
    """Bits 0, k, 2k, ... of a >= 0, moved to bits 0, 1, 2, ..."""
    s = format(a, "b")
    return int(s[(len(s) - 1) % k :: k], 2)


def _every(k: int, n: int) -> int:
    """The mask of bits 0, k, ..., k (n - 1)."""
    return ((1 << k * n) - 1) // ((1 << k) - 1)


class _F2Kernel:
    """F_2[x] on ints."""

    p, one, x = 2, 1, 2
    _DIGITS = bytes.maketrans(b"\0\1", b"01")  # residues as binary digits

    def encode(self, a: Sequence[int]) -> int:
        return int(bytes(reversed(a)).translate(self._DIGITS) or b"0", 2)

    def decode(self, a: int) -> list[int]:
        return [int(c) for c in reversed(format(a, "b"))] if a else []

    def deg(self, a: int) -> int:
        return a.bit_length() - 1

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add  # in characteristic 2

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        q, n = 0, b.bit_length()
        while (s := a.bit_length() - n) >= 0:
            a ^= b << s
            q |= 1 << s
        return q, a

    def mod(self, a: int, b: int) -> int:
        n = b.bit_length()
        while (s := a.bit_length() - n) >= 0:
            a ^= b << s
        return a

    def gcd(self, a: int, b: int) -> int:
        while b:
            a, b = b, self.mod(a, b)
        return a

    def deriv(self, a: int) -> int:
        return a >> 1 & _every(2, a.bit_length())

    def root(self, a: int) -> int:
        return _gather(a, 2)

    def spread(self, a: int) -> int:
        return _spread(a, 2)

    def ring(self, f: int) -> "_BitsModF":
        return _BitsModF(self, f)


_F3Poly = tuple[int, int]


class _F3Kernel:
    """F_3[x] on pairs of bit-planes.  The leading coefficient is 1 when the
    top bit is in P, that is when P > N."""

    p, one, x = 3, (1, 0), (2, 0)
    # residues as binary digits of the 1-plane and of the 2-plane
    _ONES = bytes.maketrans(b"\0\1\2", b"010")
    _TWOS = bytes.maketrans(b"\0\1\2", b"001")

    def encode(self, a: Sequence[int]) -> _F3Poly:
        digits = bytes(reversed(a))
        return (
            int(digits.translate(self._ONES) or b"0", 2),
            int(digits.translate(self._TWOS) or b"0", 2),
        )

    def decode(self, a: _F3Poly) -> list[int]:
        width = f"0{self.deg(a) + 1}b"
        ones, twos = (reversed(format(plane, width)) for plane in a)
        return [int(x) + 2 * int(y) for x, y in zip(ones, twos)] if any(a) else []

    def deg(self, a: _F3Poly) -> int:
        return (a[0] | a[1]).bit_length() - 1

    def add(self, a: _F3Poly, b: _F3Poly) -> _F3Poly:
        """Coefficientwise sum mod 3 in seven bit operations."""
        (ap, an), (bp, bn) = a, b
        t = (ap | bn) ^ (an | bp)
        return (an | bn) ^ t, (ap | bp) ^ t

    def sub(self, a: _F3Poly, b: _F3Poly) -> _F3Poly:
        return self.add(a, (b[1], b[0]))  # -b swaps the planes

    def divmod(self, a: _F3Poly, b: _F3Poly) -> tuple[_F3Poly, _F3Poly]:
        ap, an = a
        bp, bn = b
        n = (bp | bn).bit_length()
        negated = bn > bp  # divide by -b, whose leading coefficient is 1
        if negated:
            bp, bn = bn, bp
        qp = qn = 0
        while (s := (ap | an).bit_length() - n) >= 0:
            if ap > an:  # a leads with 1: subtract b x^s
                qp |= 1 << s
                xp, xn = bn << s, bp << s
            else:  # with 2: add b x^s
                qn |= 1 << s
                xp, xn = bp << s, bn << s
            t = (ap | xn) ^ (an | xp)
            ap, an = (an | xn) ^ t, (ap | xp) ^ t
        return ((qn, qp) if negated else (qp, qn)), (ap, an)

    def mod(self, a: _F3Poly, b: _F3Poly) -> _F3Poly:
        """divmod's remainder, without the quotient, whose bookkeeping made
        factor_mod_p over F_3 7-15 % slower."""
        ap, an = a
        bp, bn = b
        n = (bp | bn).bit_length()
        if bn > bp:
            bp, bn = bn, bp
        while (s := (ap | an).bit_length() - n) >= 0:
            xp, xn = (bn << s, bp << s) if ap > an else (bp << s, bn << s)
            t = (ap | xn) ^ (an | xp)
            ap, an = (an | xn) ^ t, (ap | xp) ^ t
        return ap, an

    def gcd(self, a: _F3Poly, b: _F3Poly) -> _F3Poly:
        while b[0] | b[1]:
            a, b = b, self.mod(a, b)
        return a if a[0] > a[1] else (a[1], a[0])  # monic

    def deriv(self, a: _F3Poly) -> _F3Poly:
        """i c at x^(i - 1): c for i = 1 mod 3, -c for i = 2 mod 3."""
        ap, an = a
        one = _every(3, (ap | an).bit_length()) << 1  # the bits at 1 mod 3
        two = one << 1
        return (ap & one | an & two) >> 1, (an & one | ap & two) >> 1

    def root(self, a: _F3Poly) -> _F3Poly:
        return _gather(a[0], 3), _gather(a[1], 3)

    def spread(self, a: _F3Poly) -> _F3Poly:
        return _spread(a[0], 3), _spread(a[1], 3)

    def ring(self, f: _F3Poly) -> "_BitsModF":
        return _BitsModF(self, f)


_F2, _F3 = _F2Kernel(), _F3Kernel()


class _BitsModF:
    """p-th powers mod a monic f over F_2 or F_3, on the kernel K's bits;
    nothing at these primes multiplies mod f."""

    def __init__(self, K, f):
        self.K, self.f = K, f

    def frobenius(self, a):
        """a^p = a(x^p) mod f."""
        return self.K.mod(self.K.spread(a), self.f)


def _kernel(p: int):
    """The representation factoring over F_p runs on."""
    return _F2 if p == 2 else _F3 if p == 3 else _Lists(p)


def _squarefree_parts(K, f) -> list[tuple[object, int]]:
    """Pairs (g, m): the monic squarefree pairwise-coprime parts g of a monic f
    over F_p with multiplicities m, product f; none for f = 1.

    Yun's algorithm, characteristic-p aware (mandatory for p = 2 and 3, where
    repeated factors often kill the derivative): what it leaves of gcd(f, f')
    lies in F_p[x^p], the p-th power of its p-th root (a^p = a on F_p), and is
    decomposed recursively.
    """
    if K.deg(f) < 1:
        return []
    c = K.gcd(f, K.deriv(f))
    if K.deg(c) == 0:  # f is squarefree: no loop, no division by 1
        return [(f, 1)]
    out = []
    w = K.divmod(f, c)[0]
    i = 1
    while K.deg(w) > 0:
        y = K.gcd(w, c)
        z = K.divmod(w, y)[0]
        if K.deg(z) > 0:
            out.append((z, i))
        i += 1
        w, c = y, K.divmod(c, y)[0]
    return out + [(g, m * K.p) for g, m in _squarefree_parts(K, K.root(c))]


def _distinct_degree(K, f) -> list[tuple[object, int]]:
    """Pairs (g, d): g is the product of the irreducible factors of degree d of
    a squarefree monic f over F_p (von zur Gathen & Gerhard, Alg. 14.3).

    g = gcd(x^(p^d) - x, f) once the factors of lower degree are divided out;
    whatever is left when 2d exceeds its degree is irreducible.
    """
    out = []
    h = K.x
    d = 0
    ring = K.ring(f)
    while K.deg(f) >= 2 * (d + 1):
        d += 1
        h = ring.frobenius(h)
        g = K.gcd(f, K.sub(h, K.x))
        if K.deg(g) > 0:
            out.append((g, d))
            f = K.divmod(f, g)[0]
            h = K.mod(h, f)
            ring = K.ring(f)
    if K.deg(f) > 0:
        out.append((f, K.deg(f)))
    return out


def _equal_degree(K, g, d: int, rng: random.Random) -> list:
    """Irreducible factors of a squarefree monic g over F_p all of whose
    irreducible factors have degree d.

    A random a gives its absolute trace b = a + a^p + ... + a^(p^(d-1)),
    whose value mod each factor lies in F_p (Berlekamp, Math. Comp. 24,
    1970; von zur Gathen & Gerhard, section 14.3).  At p = 2 and 3,
    gcd(g, b - c) collects the factors where it is c, for c in F_p but its
    last element, with no product mod g; above 3, gcd(g, b^((p-1)/2) - 1)
    collects those where it is a nonzero square (Cantor & Zassenhaus, Math.
    Comp. 36, 1981).  A draw that leaves two parts nonempty splits g; a zero
    trace leaves one, and is drawn again.
    """
    n = K.deg(g)
    if n == d:
        return [g]
    p = K.p
    ring = K.ring(g)
    while True:
        # the same draw on every kernel, so bits take the list path's steps
        a = K.encode(_trim([rng.randrange(p) for _ in range(n)]))
        b = t = a
        for _ in range(d - 1):
            t = ring.frobenius(t)
            b = K.add(b, t)
        if p <= 3:
            shifts = [b, K.sub(b, K.one)][: p - 1]
        else:
            shifts = [K.sub(ring.pow(b, (p - 1) // 2), K.one)]
        parts, rest = [], g
        for s in shifts:
            c = K.gcd(rest, s)
            if K.deg(c) > 0:
                parts.append(c)
                rest = K.divmod(rest, c)[0]
        if K.deg(rest) > 0:
            parts.append(rest)
        if len(parts) > 1:
            return [h for part in parts for h in _equal_degree(K, part, d, rng)]


def _split_parts(K, parts: list[tuple[object, int]]) -> list:
    """Irreducible factors behind distinct-degree parts over F_p.  The
    splitting elements come from a generator seeded here, so every run takes
    the same steps; it is built at the first part that holds more than one
    factor, as a part of one factor draws nothing."""
    rng = None
    out = []
    for g, d in parts:
        if K.deg(g) == d:
            out.append(g)
            continue
        if rng is None:
            rng = random.Random(0)
        out += _equal_degree(K, g, d, rng)
    return out


POLY_DEGREE_LIMIT = 64  # of a --poly input and of a ring factor's h
# Past this degree factor_mod_p refuses its input: the work grows about eight
# times per doubling of the degree.  The package's own calls stop at POLY_DEGREE_LIMIT.
FACTOR_DEGREE_LIMIT = 128


def factor_mod_p(f: ModPoly) -> list[tuple[ModPoly, int]]:
    """Complete factorization of monic f over F_p into (irreducible, multiplicity).

    Squarefree decomposition first, then distinct-degree factorization and
    equal-degree splitting of each squarefree part; any prime p works, and
    the degree is at most FACTOR_DEGREE_LIMIT.  At p = 2 and 3 the
    polynomials are bit-planes, elsewhere residue lists.  Every prime splits
    by the absolute trace, raised to (p - 1)/2 above 3.  The pairs are
    sorted by degree, then by coefficients (lowest degree first), and the
    result does not depend on the random splitting elements.
    """
    check_limit(f.degree, FACTOR_DEGREE_LIMIT, "degree")
    if f.degree < 1:
        raise ValueError(f"need degree >= 1, got {brief_poly(f, repr)}")
    if not f.is_monic:
        raise ValueError(f"need a monic polynomial, got {brief_poly(f, repr)}")
    K = _kernel(f.p)
    found = [
        (K.decode(g), m)
        for part, m in _squarefree_parts(K, K.encode(f.coeffs))
        for g in _split_parts(K, _distinct_degree(K, part))
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
    and h = (f mod p) / g, by one exact division, the cofactor of f mod p,
    both lifted to [0, p), and t = (g h - f) / p, the obstruction is
    gcd(t, g, h) over F_p, taken on F_p's kernel (bit-planes at 2 and 3): the
    product of the repeated factors of f mod p that divide t.  Z[x]/(f) is
    p-maximal exactly when it is 1, as it is at once when f mod p is
    squarefree and h = 1.  f need not be irreducible.  When it is 1, each
    f mod p = prod g_i^e_i lifts to a Hensel factor F_i of f over Z_p, and
    Z_p[x]/(F_i) is a discrete valuation ring: the F_i are f's irreducible
    factors over Q_p, distinct, of degrees e_i deg g_i (Cohen, section 6.2;
    Neukirch, Algebraic Number Theory, II.8), which irreducible_over_q_check
    reads as local degrees."""
    if all(e == 1 for _, e in factors):
        return ModPoly(p, [1])
    radical = functools.reduce(
        lambda a, b: _lmul(a, b, p), [g.coeffs for g, _ in factors]
    )
    cofactor = _ldivmod([c % p for c in f.coeffs], radical, p)[0]
    p2 = p * p
    t = [c // p for c in _lsub(_lmul(radical, cofactor, p2), f.coeffs, p2)]
    K = _kernel(p)
    t, radical, cofactor = map(K.encode, (t, radical, cofactor))
    return ModPoly(p, K.decode(K.gcd(K.gcd(t, radical), cofactor)))


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


def _degree_mask(shape: list[tuple[int, int]]) -> int:
    """Bit k set when a product of the irreducible factors behind
    distinct-degree parts, given as (degree of the part, factor degree), has
    degree k."""
    mask = 1
    for n, d in shape:
        for _ in range(n // d):
            mask |= mask << d
    return mask


def _hensel_step(
    f: list[int],
    g: list[int],
    h: list[int],
    s: list[int],
    t: list[int],
    m2: int,
    lift_inverse: bool,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Quadratic Hensel step (von zur Gathen & Gerhard, Alg. 15.10): from
    f = g h and s g + t h = 1 mod m, with g and h monic, to the same mod m2,
    a multiple of m that divides m^2 (e = f - g h is 0 mod m, so e^2 is 0 mod
    m2).  The inverse pair (s, t) is lifted only when a further step needs it."""
    # every sum below is of at most two products and one residue list, all
    # of length at most len(f); each is unpacked once
    size = _slot_bytes(m2, 2 * len(f) + 1)
    bits = 8 * size

    def unpack(x: int) -> list[int]:
        return _trim(_unpack(x, size, -(-x.bit_length() // bits), m2))

    pg, ph, ps, pt = (_pack(a, size) for a in (g, h, s, t))
    e = _lsub(f, unpack(pg * ph), m2)
    pe = _pack(e, size)
    q, r = _ldivmod(unpack(ps * pe), h, m2)
    g = unpack(pg + pt * pe + _pack(q, size) * pg)
    h = _ladd(h, r, m2)
    if lift_inverse:
        pg, ph = _pack(g, size), _pack(h, size)
        b = _lsub(unpack(ps * pg + pt * ph), [1], m2)
        pb = _pack(b, size)
        c, d = _ldivmod(unpack(ps * pb), h, m2)
        s = _lsub(s, d, m2)
        t = _lsub(t, unpack(pt * pb + _pack(c, size) * pg), m2)
    return g, h, s, t


def _hensel_lift(
    f: list[int], factors: list[list[int]], p: int, moduli: list[int]
) -> list[list[int]]:
    """Monic factors of f mod p^k, the last of moduli (p when there are none),
    lifting the pairwise coprime monic factors mod p whose product is f mod p,
    along a balanced factor
    tree (von zur Gathen & Gerhard, Alg. 15.17).  moduli are p^(k_j), ...,
    p^(k_0) = p^k with k_i = ceil(k_(i-1) / 2) and k_j = 2, none when k = 1:
    each step lifts to a divisor of the square of the modulus before it, so
    the last works mod p^k itself, not mod a square of up to twice its
    digits."""
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g = functools.reduce(lambda a, b: _lmul(a, b, p), factors[:half])
    h = functools.reduce(lambda a, b: _lmul(a, b, p), factors[half:])
    s, t = _lxgcd(g, h, p)
    for i, m2 in enumerate(moduli, 1):
        g, h, s, t = _hensel_step(f, g, h, s, t, m2, i < len(moduli))
    return _hensel_lift(g, factors[:half], p, moduli) + _hensel_lift(
        h, factors[half:], p, moduli
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
    one.  The factors are lifted to the least such p^k.  A factor or its
    cofactor comes from at most half of the factors.  Raises
    BudgetExceededError past RECOMBINATION_BUDGET subsets.
    """
    bound = 2 * 2**f.degree * (isqrt(sum(c * c for c in f.coeffs)) + 1)
    k, modulus = 1, p
    while modulus <= bound:
        k, modulus = k + 1, modulus * p
    exponents = [k]  # k, ceil(k / 2), ..., 1
    while exponents[-1] > 1:
        exponents.append((exponents[-1] + 1) // 2)
    moduli = [p**e for e in reversed(exponents[:-1])]
    lifted = _hensel_lift([c % modulus for c in f.coeffs], factors, p, moduli)
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
    f: IntPoly,
    factorizations: Mapping[int, list[tuple[ModPoly, int]]] | None = None,
    local_degrees: Mapping[int, Sequence[int]] | None = None,
) -> bool:
    """Exact irreducibility of a monic integer polynomial over Q.

    Cheap certificates come first: degree 1; a zero constant term; an integer
    root, searched when |f(0)| <= 10^6 (without one, degree 2 or 3 is
    irreducible); local degrees that leave no degree a proper factor over Q
    could have; a good prime p (f mod p squarefree) at which f has one
    irreducible factor, or good primes whose factor degrees leave no such
    degree.  Otherwise Zassenhaus's algorithm decides at the good prime with
    the fewest factors: split f fully mod p, lift the factors quadratically
    to the least power of p above twice a Mignotte bound, and try the
    products of at most half of them, of a degree still possible, as factors
    over Z.

    factorizations maps a prime p to factor_mod_p(f mod p), when the caller
    has it; at those primes the squarefree test, the degree pattern and the
    factors are read from it rather than computed again.  local_degrees maps
    a prime p to the degrees of the irreducible factors of f over Q_p, when
    the caller knows them and knows that those factors are distinct, so that
    f is squarefree: a factor of f over Q is a product of some of them, so
    its degree is a sum of some of theirs.  At a prime where Z[x]/(f) is
    p-maximal, dedekind_obstruction says what they are.
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
    degrees = (1 << n) - 2  # bit mask of the degrees a proper factor may have
    for local in (local_degrees or {}).values():
        degrees &= _degree_mask([(d, d) for d in local])
    if not degrees:
        return True
    factorizations = factorizations or {}
    last_known = max(factorizations, default=0)
    best: tuple | None = None  # (factor count, p, kernel, parts)
    bad = good = 0
    for p in _primes():
        # two factors leave one subset to try; but a factorization the caller
        # gave may settle f at no cost, so every one is read first
        if best is not None and best[0] == 2 and p > last_known:
            break
        known = factorizations.get(p)
        K = _kernel(p)
        if known is None:
            fp = K.encode([c % p for c in f.coeffs])
            squarefree = K.deg(K.gcd(fp, K.deriv(fp))) == 0
        else:
            squarefree = all(m == 1 for _, m in known)
        if not squarefree:
            bad += 1
            if best is None and bad == _BAD_PRIMES_BEFORE_GCD and not local_degrees:
                if not _squarefree_over_q(f):
                    return False
            continue
        # an irreducible factor is a distinct-degree part of its own degree
        parts = (
            _distinct_degree(K, fp)
            if known is None
            else [(K.encode(g.coeffs), g.degree) for g, _ in known]
        )
        shape = [(K.deg(g), d) for g, d in parts]
        degrees &= _degree_mask(shape)
        if not degrees:  # no degree is left for a proper factor
            return True
        count = sum(n // d for n, d in shape)
        if best is None or count < best[0]:
            best = (count, p, K, parts)
        good += 1
        if good == _PATTERN_PRIMES:
            break
    _, p, K, parts = best
    # in factor_mod_p's order; a known factorization comes back as it went in
    factors = sorted(map(K.decode, _split_parts(K, parts)), key=_factor_order)
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
