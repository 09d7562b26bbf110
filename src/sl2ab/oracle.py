"""Brute-force SL2 computations over small finite commutative rings.

The supported rings are finite products of factors (Z/p^k)[x]/(h) with h
monic: Z/p^k when h = x, F_p[x]/(h) when k = 1, and mixed ones such as the
Galois ring GR(4, 2) = (Z/4)[x]/(x^2+x+1).  A factor element is its tuple of
deg h coefficients mod p^k; products are reduced mod h.  At the scale this
package cares about (ring order <= 16 by default) everything is done over
index-space addition and multiplication tables, built by digit arithmetic
mod p^k.  FiniteRing(spec, cap) holds them, and reads the index of 1,
negation, the generators and relation coordinates off one numbering of the
elements, their coefficients as mixed-radix digits.  It and
sl2ab_by_factors check the budget through one helper, before any table is
built.  Each call builds its own rings, and the module keeps no memo
between calls.
FiniteRing answers every SL2(R) question: sl2_order counts the group from
the multiplication table, only sl2_elements() lists it, as index tuples, and
sl2_orbit walks the orbit of e1 = (1, 0) on the unimodular columns of R^2
under X, the E12 matrices of the additive basis of R and E21(1), breadth
first.  The stabilizer of e1 is {E12(b)}, of order |R|, so sl2ab certifies
that X generates by |orbit| |R| = |SL2(R)|; each edge of the orbit outside
its search tree is a relation of SL2(R)^ab in the exponents of X, and with
those of (R, +) they present it: the invariants are Z^X modulo them.  Each
generator x of additive order m_x has x^(m_x) = I, E21(1) too, with m the
additive order of 1, so the rows m_x e_x join them and every other row is
reduced mod them, field by field: at most prod m_x + |X| short rows reach
the diagonalization.  sl2ab_by_factors, the oracle command's entry point,
reads SL2(R)^ab one factor at a time, as SL2(R_1 x R_2) = SL2(R_1) x
SL2(R_2): each factor gets its own FiniteRing and certificate, and the
answer is the direct sum.  FiniteRing(spec).sl2ab still walks a product
whole, so the tests that compare the two check the product lemma.  The
caps still bound |R|, so a product costs less than they allow.  These
routines are the ground truth the structure formulas are tested against;
prop_local_formula, the formula summed over the roots of h mod p at p = 2
and 3, is read off (p, k, h) alone and shares no code with them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import gcd, lcm, prod
from typing import Iterable, Iterator

from .abgroup import (
    TRIVIAL_GROUP,
    AbelianGroup,
    canonicalize,
    direct_sum,
    from_relations,
)
from .polyarith import (
    INTEGER_LIMIT,
    POLY_DEGREE_LIMIT,
    SHOWN_LENGTH,
    BudgetExceededError,
    IntPoly,
    brief,
    check_limit,
    factorint,
    is_prime,
)

DEFAULT_RING_CAP = 16
_CONSTRUCTION_CAP = 1024
# 2^k > INTEGER_LIMIT for every larger k, so Z/p^k past it is past INTEGER_LIMIT
# too.  deg h has --poly's bound, so prop_local_formula answers any h --poly takes;
# a ring's order is bounded by FiniteRingSpec and FiniteRing.
_EXPONENT_LIMIT = INTEGER_LIMIT.bit_length() - 1


@dataclass(frozen=True)
class RingFactor:
    """The factor ring (Z/p^k)[x]/(h), for h monic of degree >= 1 with
    coefficients mod p^k, lowest degree first.  The default h = x gives Z/p^k;
    k = 1 gives F_p[x]/(h)."""

    p: int
    k: int = 1
    h: tuple[int, ...] = (0, 1)

    def __post_init__(self) -> None:
        # bounded before is_prime divides p or any p^k is formed
        check_limit(self.p, INTEGER_LIMIT, "p")
        check_limit(self.k, _EXPONENT_LIMIT, "k")
        check_limit(IntPoly(self.h).degree, POLY_DEGREE_LIMIT, "deg h")
        if self.k < 1 or not is_prime(self.p):
            k = brief(self.k)  # p passed check_limit above; k has no lower bound
            raise ValueError(f"need prime p and k >= 1, got p={self.p} k={k}")
        h = IntPoly(c % self.modulus for c in self.h).coeffs
        if len(h) < 2 or h[-1] != 1:
            shown = _shown(list(self.h))
            raise ValueError(f"h must be monic of degree >= 1, got {shown}")
        object.__setattr__(self, "h", h)

    @property
    def modulus(self) -> int:
        return self.p**self.k

    @property
    def degree(self) -> int:
        return len(self.h) - 1

    @property
    def order(self) -> int:
        return self.modulus**self.degree

    def __str__(self) -> str:
        if self.h == (0, 1):
            return f"Z/{self.modulus}"
        base = f"F_{self.p}" if self.k == 1 else f"(Z/{self.modulus})"
        return f"{base}[x]/({IntPoly(self.h)})"

    def to_json(self) -> dict:
        if self.h == (0, 1):
            return {"kind": "zmodpk", "p": self.p, "k": self.k}
        doc = {"kind": "polyquot", "p": self.p, "h": list(self.h)}
        if self.k > 1:
            doc["k"] = self.k
        return doc


@dataclass(frozen=True)
class FiniteRingSpec:
    """A finite commutative ring given as a product of supported factors."""

    factors: tuple[RingFactor, ...]
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("need at least one ring factor")
        order = 1
        for f in self.factors:  # checked as it grows, so it stays printable
            order *= f.order
            check_limit(order, INTEGER_LIMIT, "ring order")
        object.__setattr__(self, "order", order)

    @classmethod
    def zmod(cls, n: int) -> "FiniteRingSpec":
        """Z/n as its product of prime-power parts (CRT)."""
        if n < 2:
            raise ValueError(f"need n >= 2, got {brief(n)}")
        check_limit(n, INTEGER_LIMIT, "n")
        return cls(tuple(RingFactor(p, k) for p, k in sorted(factorint(n).items())))

    def describe(self) -> str:
        return " x ".join(map(str, self.factors))

    def to_json(self) -> dict:
        return {"factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, data: object) -> "FiniteRingSpec":
        """The inverse of to_json; {"zmod": N} also reads as Z/N.  A document
        of any other shape, or with a key it does not read, raises
        ValueError("malformed ring spec: ...")."""
        doc = _json_object(data, "zmod", "factors")
        if "zmod" in doc:
            _json_object(doc, "zmod")
            return cls.zmod(_json_value(doc, "zmod"))
        factors: list[RingFactor] = []
        for fd in _json_list(doc, "factors", dict):
            kind = fd.get("kind")
            if kind == "zmodpk":
                _json_object(fd, "kind", "p", "k")
                factor = RingFactor(_json_value(fd, "p"), _json_value(fd, "k"))
            elif kind == "polyquot":
                _json_object(fd, "kind", "p", "k", "h")
                p, k = _json_value(fd, "p"), _json_value(fd, "k", default=1)
                factor = RingFactor(p, k, _json_list(fd, "h"))
            else:
                raise ValueError(f"unknown ring factor kind: {_shown(kind)}")
            factors.append(factor)
        return cls(tuple(factors))


# A ring document is checked key by key before any ring is built, so that no
# float, bool or string is taken for an integer and no key is passed over.


def _is_json(value: object, kind: type) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _shown(value: object) -> str:
    """A document value as an error names it: a number as brief does, any
    other value by its repr, and past SHOWN_LENGTH characters (of its repr,
    or of a string) by its length ("a list of 100000 items")."""
    if isinstance(value, (list, dict)) and len(repr(value)) > SHOWN_LENGTH:
        noun = "a list" if isinstance(value, list) else "an object"
        return f"{noun} of {len(value)} items"
    if isinstance(value, str) and len(value) > SHOWN_LENGTH:
        return f"a string {brief(value)}"
    return brief(value) if _is_json(value, int) else repr(value)


def _json_object(value: object, *keys: str) -> dict:
    """value, when it is a JSON object whose keys are all among keys."""
    if not isinstance(value, dict):
        raise ValueError("malformed ring spec: the document must be an object")
    for key in value:
        if key not in keys:
            raise ValueError(
                f"malformed ring spec: unexpected key {brief(key)} "
                f"(this object reads {', '.join(map(repr, keys))})"
            )
    return value


def _json_value(doc: dict, key: str, default=None) -> int:
    """doc[key], or default when the key is absent, when it is an integer."""
    value = doc.get(key, default)
    if not _is_json(value, int):
        raise ValueError(
            f'malformed ring spec: "{key}" must be an integer, got {_shown(value)}'
        )
    return value


def _json_list(doc: dict, key: str, kind: type = int) -> list:
    """doc[key] when it is a list of values of the given kind, int or dict."""
    value = doc.get(key)
    if not isinstance(value, list) or not all(_is_json(v, kind) for v in value):
        noun = "integers" if kind is int else "objects"
        shown = _shown(value)
        raise ValueError(
            f'malformed ring spec: "{key}" must be a list of {noun}, got {shown}'
        )
    return value


def _product_table(t1: list[list[int]], t2: list[list[int]]) -> list[list[int]]:
    """The table of R1 x R2 from those of R1 and R2, pairs numbered
    lexicographically: (i, j) is i * |R2| + j."""
    n2 = len(t2)
    return [[x * n2 + y for x in r1 for y in r2] for r1 in t1 for r2 in t2]


_Table = list[list[int]]


def _factor_tables(factor: RingFactor) -> tuple[_Table, _Table]:
    """The addition and multiplication tables of a factor on element indexes,
    by digit arithmetic mod m = p^k.  The element c_0 + c_1 x + ... +
    c_(n-1) x^(n-1) is numbered as the digits c_0 ... c_(n-1) in base m, so
    the sum table is the n-th power of that of Z/m, and row a of the product
    table is read off the multiples of a, a x, ..., a x^(n-1)."""
    m, n, h = factor.modulus, factor.degree, factor.h
    zmod_add = [[(i + j) % m for j in range(m)] for i in range(m)]
    add = reduce(_product_table, [zmod_add] * n)
    mul = []
    for a in itertools.product(range(m), repeat=n):
        row, v = [0], list(a)
        for _ in range(n):
            multiples, acc = [], 0
            vi = reduce(lambda i, c: i * m + c, v, 0)
            for _ in range(m):
                multiples.append(acc)
                acc = add[acc][vi]
            row = [add[r][t] for r in row for t in multiples]
            # v x, its x^n term rewritten as x^n - h
            v = [(c - v[-1] * hc) % m for c, hc in zip([0] + v[:-1], h)]
        mul.append(row)
    return add, mul


def _check_caps(order: int, cap: int) -> None:
    """BudgetExceededError for a ring of this order past the enumeration cap
    cap, or past the construction cap whatever cap is."""
    if order > cap:
        raise BudgetExceededError(
            f"ring order {order} exceeds the enumeration cap {cap} "
            f"(the SL2 orbit takes about {order}^2 = {order**2} steps); raise "
            "the cap explicitly to override"
        )
    if order > _CONSTRUCTION_CAP:
        raise BudgetExceededError(
            f"ring of order {order} exceeds the construction cap {_CONSTRUCTION_CAP}"
        )


class FiniteRing:
    """Index-space arithmetic tables for a FiniteRingSpec, within budget:
    past the enumeration cap cap, or the construction cap whatever cap is,
    BudgetExceededError is raised before any table is built.  digits holds
    the (radix p^k, place value) of each coefficient, factor by factor and
    constant term first, the first most significant: elements are numbered
    lexicographically.  All group-level work downstream runs on the integer
    indexes, and a matrix is the index tuple (a, b, c, d) of its entries.
    |SL2(R)| and its abelianization are computed once per ring, on first use.
    """

    def __init__(self, spec: FiniteRingSpec, cap: int = DEFAULT_RING_CAP):
        _check_caps(spec.order, cap)
        self.spec = spec
        self.order = N = spec.order
        factors = spec.factors
        radices = [f.modulus for f in factors for _ in range(f.degree)]
        self.digits = [(r, prod(radices[i + 1 :])) for i, r in enumerate(radices)]
        adds, muls = zip(*map(_factor_tables, factors))
        self.add_table = reduce(_product_table, adds)
        self.mul_table = reduce(_product_table, muls)
        self.zero_index = 0  # every coefficient 0 comes first
        constants = itertools.accumulate((f.degree for f in factors[:-1]), initial=0)
        self.one_index = sum(self.digits[i][1] for i in constants)
        self.neg = [sum(-(i // v) % r * v for r, v in self.digits) for i in range(N)]

    @cached_property
    def sl2_order(self) -> int:
        """|SL2(R)| = sum over y of #{(a, d): a d = 1 + y} #{(b, c): b c = y}."""
        products = Counter(itertools.chain.from_iterable(self.mul_table))
        one_plus = self.add_table[self.one_index]
        return sum(products[one_plus[y]] * count for y, count in products.items())

    def sl2_elements(self) -> Iterator[_IndexMat]:
        """All of SL2(R), the (a, b, c, d) with a d = 1 + b c, in
        lexicographic order: for each a, the d solving a d = x are listed once
        per x, so the scan takes |R|^3 steps."""
        M, one_plus = self.mul_table, self.add_table[self.one_index]
        rng = range(self.order)
        for a in rng:
            solutions: list[list[int]] = [[] for _ in rng]
            for d, x in enumerate(M[a]):
                solutions[x].append(d)
            for b in rng:
                Mb = M[b]
                yield from [
                    (a, b, c, d) for c in rng for d in solutions[one_plus[Mb[c]]]
                ]

    def sl2_orbit(self) -> tuple[int, list[tuple[int, ...]]]:
        """The orbit of e1 = (1, 0) under G = <X>, X = _elementary_gens, on
        the unimodular columns of R^2: its size, and the relations in Z^X
        that present G^ab, uncertified.

        The stabilizer of e1 in SL2(R) is U = {E12(b)}, which is (R, +).  The
        orbit is searched breadth first; each new point v keeps the second
        column of its transversal t_v (t_v e1 = v) and its exponent vector
        w(t_v).  An edge x: v -> u to a point found before gives t_u^-1 x t_v
        = E12(b), b = d_u y_12 - b_u y_22 for x t_v = (y_ij), so the relation
        w(t_v) + e_x - w(t_u) - coords(b), b on the E12 of the basis; m_i e_i
        for each basis element of additive order m_i presents U^ab.  These
        are the Schreier relations of a point stabilizer (Holt, Eick and
        O'Brien, Handbook of Computational Group Theory, 2005, ch. 6), so
        they present G^ab.  E21(1)^m = I for m the additive order of 1, so
        m e_E21 is a relation too, and with every m_i e_i among the rows,
        field i of each Schreier row is reduced mod m_i: the rows are these
        m_i e_i and the distinct reduced Schreier rows, at most prod m_i +
        |X| of them.  An exponent vector is one int, a signed field of
        _FIELD bits per generator, so that rows compare as ints."""
        N, A, M, neg = self.order, self.add_table, self.mul_table, self.neg
        one, zero, digits = self.one_index, self.zero_index, self.digits
        gens = _elementary_gens(self)
        unit = [1 << (_FIELD * i) for i in range(len(gens))]
        # x is E12(s) or E21(s): E12(s) adds s c to a and s d to b; E21(s)
        # adds s a to c and s b to d
        entries = [b if c == zero else c for _, b, c, _ in gens]
        moves = [
            (c == zero, M[s], e) for (_, _, c, _), s, e in zip(gens, entries, unit)
        ]
        coords = [
            sum(i // v % r * e for (r, v), e in zip(digits, unit)) for i in range(N)
        ]
        relations = set()
        # seen[a N + c] = (b, d, w) for the point (a, c) found with t_v =
        # [[a, b], [c, d]] and w = w(t_v)
        seen: list[tuple[int, int, int] | None] = [None] * (N * N)
        seen[one * N + zero] = (zero, one, 0)
        queue = [(one, zero)]
        for a, c in queue:  # grows while it is read
            b, d, w = seen[a * N + c]
            for upper, row, e in moves:
                if upper:
                    ua, uc, ub, ud = A[a][row[c]], c, A[b][row[d]], d
                else:
                    ua, uc, ub, ud = a, A[c][row[a]], b, A[d][row[b]]
                found = seen[ua * N + uc]
                if found is None:
                    seen[ua * N + uc] = (ub, ud, w + e)
                    queue.append((ua, uc))
                else:
                    bu, du, wu = found
                    beta = A[M[du][ub]][neg[M[bu][ud]]]
                    relations.add(w + e - wu - coords[beta])
        # the order of s in (R, +): the lcm over its digits d of r / gcd(d, r)
        moduli = [lcm(*(r // gcd(s // v % r, r) for r, v in digits)) for s in entries]
        n = len(gens)
        rows = _unpack(relations, moduli)
        rows.discard((0,) * n)
        rows.update(tuple(m * (i == j) for j in range(n)) for i, m in enumerate(moduli))
        return len(queue), list(rows)

    @cached_property
    def sl2ab(self) -> AbelianGroup:
        """SL2(R)^ab, read from sl2_orbit's relations.  SL2 = E2 over every
        finite commutative ring, a product of local rings, so X generates;
        the count |orbit| |U| = |orbit| |R| = |SL2(R)| certifies it, and
        RuntimeError is raised if it ever fails."""
        size, relations = self.sl2_orbit()
        found = size * self.order
        if found != self.sl2_order:
            r = self.spec.describe()
            raise RuntimeError(f"X generates {found} of |SL2({r})| = {self.sl2_order}")
        return from_relations(relations, len(relations[0]))


def sl2ab_by_factors(
    spec: FiniteRingSpec, cap: int = DEFAULT_RING_CAP
) -> tuple[int, AbelianGroup]:
    """|SL2(R)| and SL2(R)^ab for R = R_1 x ... x R_n, read one factor at a
    time: SL2(R) = SL2(R_1) x ... x SL2(R_n), so the order is the product of
    the factors' orders and the abelianization the direct sum of theirs, each
    certified by its own FiniteRing.sl2ab.  The caps bound |R|, as in
    FiniteRing, and are checked before any table is built."""
    _check_caps(spec.order, cap)
    rings = {f: FiniteRing(FiniteRingSpec((f,)), cap) for f in spec.factors}
    sl2_order = prod(rings[f].sl2_order for f in spec.factors)
    return sl2_order, direct_sum(*(rings[f].sl2ab for f in spec.factors))


_IndexMat = tuple[int, int, int, int]
# bits per signed exponent in a packed vector: under the construction cap an
# entry is below |R|^2 + p^k <= 2^21 in absolute value, so the bias _unpack
# adds to a field, below 2^31 + 2^10, keeps it in [0, 2^32)
_FIELD = 32


def _unpack(vectors: Iterable[int], moduli: list[int]) -> set[tuple[int, ...]]:
    """The distinct packed exponent vectors, each as its signed _FIELD-bit
    fields, lowest first, field i reduced mod moduli[i]: a multiple of
    moduli[i] of at least half the field is added to field i first, so
    that none is negative."""
    half, mask = 1 << (_FIELD - 1), (1 << _FIELD) - 1
    fields = [(_FIELD * i, m) for i, m in enumerate(moduli)]
    bias = sum(-(-half // m) * m << s for s, m in fields)
    biased = [v + bias for v in vectors]
    return set(zip(*([(b >> s & mask) % m for b in biased] for s, m in fields)))


def _elementary_gens(ring: FiniteRing) -> list[_IndexMat]:
    """X: E12(r) for the additive basis r of R, x^i in one factor
    (Z/p^k)[x]/(h) for i < deg h and 0 in the others, in digit order, then
    E21(1).  E12(1) E21(-1) E12(1) conjugates E12(a) to E21(-a), so X
    generates E2(R)."""
    one, zero = ring.one_index, ring.zero_index
    return [(one, v, zero, one) for _, v in ring.digits] + [(one, zero, one, one)]


def prop_local_formula(factor: RingFactor) -> AbelianGroup:
    """Closed-form abelianization of SL2 over a factor A = (Z/p^k)[x]/(h),
    read off (p, k, h) without building A.

    A is the product of its local factors, one for each irreducible g with
    g^e exactly dividing h mod p: the maximal ideal is m = (p, g), with
    residue field F_p[x]/(g) of order q = p^deg g.  Each local factor adds
    nothing when q >= 4, Z/3 when q = 3, and the additive group of A/m^2
    when q = 2.  So only p <= 3 and g = x - a count: the sum runs over the
    roots a of h mod p.  With y = x - a and q = 2, m^2 = (4, 2y, y^2):
    - k = 1: the local factor is F_2[y]/(y^e), so A/m^2 is (Z/2)^min(e, 2);
    - e = 1: it is Z/2^k with k >= 2, so A/m^2 = Z/4;
    - otherwise h = y^e u mod 2 with u(a) odd makes h(a) and h'(a) even, so
      h(y + a) = h(a) mod m^2, and the local factor's part of h is h up to
      a unit: A/m^2 = Z[y]/(4, 2y, y^2, h(a)), Z/2 + Z/4 when 4 divides
      h(a), Z/2 + Z/2 when not.  No Hensel lift is needed.
    """
    p, k, h = factor.p, factor.k, factor.h
    if p > 3:  # q >= 4
        return TRIVIAL_GROUP
    torsion: list[int] = []
    for a in range(p):
        # e = how often x - a divides h mod p, by synthetic division (Horner)
        e, high, rem = -1, h[::-1], 0
        while rem == 0:
            *high, rem = itertools.accumulate(high, lambda r, c: (r * a + c) % p)
            e += 1
        if p == 3:
            torsion += [3] * min(e, 1)
        elif k == 1:
            torsion += [2] * min(e, 2)
        elif e == 1:
            torsion.append(4)
        elif e > 1:
            torsion += [2, 4] if IntPoly(h)(a) % 4 == 0 else [2, 2]
    return canonicalize(torsion)
