"""Brute-force SL2 computations over small finite commutative rings.

The supported rings are finite products of factors (Z/p^k)[x]/(h) with h
monic: Z/p^k when h = x, F_p[x]/(h) when k = 1, and mixed ones such as the
Galois ring GR(4, 2) = (Z/4)[x]/(x^2+x+1).  A factor element is its tuple of
deg h coefficients mod p^k; products are reduced mod h.  At the scale this
package cares about (ring order <= 16 by default) everything is done over
index-space addition and multiplication tables, built by digit arithmetic
mod p^k.  FiniteRing(spec, cap) holds them, reads the index of 1, the
generators and relation coordinates off one numbering of the elements, their
coefficients as mixed-radix digits, and negation off the sum table.  It and
sl2ab_by_factors check the budget through one helper, before any table is
built.  Each call builds its own rings, and the module keeps no memo
between calls.
FiniteRing answers every SL2(R) question: sl2_order counts the group from
the multiplication table, only sl2_elements() lists it, as index tuples, and
sl2_orbit walks the orbit of e1 = (1, 0) under X, the E12 matrices of the
additive basis of R and E21(1), over the lines of R^2 (the unimodular
columns up to a unit), breadth first.  X generates the torus of diagonal
matrices through E21(1), so the stabilizer of the line of e1 is the Borel
subgroup B of upper triangular matrices, of order |R^*| |R|, and sl2ab
certifies that X generates by |lines| |R^*| |R| = |SL2(R)|.  Each edge of
the walk outside its search tree is a relation of SL2(R)^ab in the
exponents of X, and with B's own they present it: the invariants are Z^X
modulo them.  Each generator x of additive order m_x has x^(m_x) = I,
E21(1) too, with m the additive order of 1, so the rows m_x e_x join them
and every other row is reduced mod them, field by field: at most prod m_x +
|X| short rows reach the diagonalization.  The walk meets about |R| (1 +
1/q) |X| edges on a local ring with residue field F_q, and marks the
|SL2(R)| / |R| columns of its lines by table lookups.  sl2ab_by_factors,
the oracle command's entry point, reads SL2(R)^ab one factor at a time, as
SL2(R_1 x R_2) = SL2(R_1) x SL2(R_2): each factor gets its own FiniteRing
and certificate, and the answer is the direct sum.  FiniteRing(spec).sl2ab
still walks a product whole, so the tests that compare the two check the
product lemma.  The caps still bound |R|, so a product costs less than they
allow.  These routines are the ground truth the structure formulas are
tested against; prop_local_formula, the formula summed over the roots of h
mod p at p = 2 and 3, is read off (p, k, h) alone and shares no code with
them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import lcm, prod
from typing import Callable, Iterable, Iterator

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
    the sum table is the n-th power of that of Z/m, and multiples[k], the
    table of b -> k b, is that of Z/m's row k.  Multiplying by x is additive:
    it is summed from the images x^(i+1) of the basis, x^n read as x^n - h,
    and row a of the product table is the sum over the digits a_j of a_j
    times the row of x^j."""
    m, n, h = factor.modulus, factor.degree, factor.h
    cycle = list(range(m)) * 2
    zmod_add = [cycle[i : i + m] for i in range(m)]
    zmod_mul = [[k * j % m for j in range(m)] for k in range(m)]
    add = reduce(_product_table, [zmod_add] * n)
    multiples = reduce(
        lambda t1, t2: [
            [x * m + y for x in r1 for y in r2] for r1, r2 in zip(t1, t2)
        ],
        [zmod_mul] * n,
    )
    places = [m ** (n - 1 - i) for i in range(n)]
    images = places[1:] + [sum(-c % m * v for c, v in zip(h, places))]
    times_x = [0]
    for image in images:
        times_x = [add[s][k[image]] for s in times_x for k in multiples]
    mul, row_xj = multiples, list(range(m**n))
    for _ in range(1, n):
        row_xj = [times_x[b] for b in row_xj]
        scaled = [[k[b] for b in row_xj] for k in multiples]
        mul = [[add[x][y] for x, y in zip(r, s)] for r in mul for s in scaled]
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
        self.order = spec.order
        factors = spec.factors
        radices = [f.modulus for f in factors for _ in range(f.degree)]
        self.digits = [(r, prod(radices[i + 1 :])) for i, r in enumerate(radices)]
        adds, muls = zip(*map(_factor_tables, factors))
        self.add_table = reduce(_product_table, adds)
        self.mul_table = reduce(_product_table, muls)
        self.zero_index = 0  # every coefficient 0 comes first
        constants = itertools.accumulate((f.degree for f in factors[:-1]), initial=0)
        self.one_index = sum(self.digits[i][1] for i in constants)
        self.neg = [row.index(0) for row in self.add_table]

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
        """The orbit of e1 = (1, 0) under G = <X> on the unimodular columns
        of R^2, walked line by line: the number of columns it is known to
        hold, and the relations in Z^X that present G^ab, uncertified.  X is
        E12(s) for the additive basis s of R, the element whose index is a
        digit's place value (x^i in one factor (Z/p^k)[x]/(h), 0 in the
        others), in digit order, then E21(1).

        A line is a unimodular column up to a unit.  G holds the torus T =
        {diag(l, l^-1)}: diag(l, l^-1) = w(l) w(-1), with w(u) = E12(u)
        E21(-u^-1) E12(u) and E21(r) = w(1) E12(-r) w(1)^-1, so this word
        for diag(g, g^-1) has the image tau(g) = 2 c(g) + c(g^-1) + 2 c(-1)
        + e_E21 in Z^X, where c(r) is r on the E12 of the additive basis.
        The stabilizer of the line of e1 is the Borel subgroup B = T U, U =
        {E12(b)}, and every column of a line found is in the orbit.

        The lines are searched breadth first; each keeps its transversal t_v
        (t_v e1 = v) and exponent vector w(t_v), and marks its columns l v,
        by line and l, in one flat table.  An edge x: v -> u to a line found
        before has x t_v e1 = l u, so t_u^-1 x t_v = E12(l b) diag(l, l^-1),
        b = d_u y_12 - b_u y_22 for x t_v = (y_ij): the relation w(t_v) + e_x
        - w(t_u) - c(l b) - tau(l), tau(l) the image of l's word in the
        generators g of the units (_unit_words).  B's own relations present
        B^ab: m_i e_i for each basis element s_i of additive order m_i, one
        power relation per g, and c(g^2 s_i) - e_i, as diag(g, g^-1)
        conjugates E12(s_i) to E12(g^2 s_i).  With the edges' rows these are
        the Schreier relations of a point stabilizer (Holt, Eick and
        O'Brien, Handbook of Computational Group Theory, 2005, ch. 6), so
        they present G^ab.  s_i is one digit's place value, so m_i is its
        radix, and E21(1)^m = I for m the additive order of 1, the lcm of
        the radices, so m e_E21 is a relation too.  With every m_i e_i among
        the rows, field i of each other row is reduced mod m_i: the rows are
        these m_i e_i and the distinct reduced rows, at most prod m_i + |X|
        of them.  An exponent vector is one int, a signed field of _FIELD
        bits per generator, so that rows compare as ints."""
        N, A, M, neg = self.order, self.add_table, self.mul_table, self.neg
        one, zero, digits = self.one_index, self.zero_index, self.digits
        *unit, e21 = [1 << (_FIELD * i) for i in range(len(digits) + 1)]
        basis = [(v, e) for (_, v), e in zip(digits, unit)]
        # E12(s) adds s c to a and s d to b; E21(s) adds s a to c and s b to d
        moves = [(True, M[v], e) for v, e in basis] + [(False, M[one], e21)]
        coords = [0]  # c(r), built digit by digit in the order of the numbering
        for e, (r, _) in zip(unit, digits):
            coords = [x + d * e for x in coords for d in range(r)]
        shift = 2 * coords[neg[one]] + e21
        tau, generators, relations = _unit_words(
            M, one, lambda g, inverse: 2 * coords[g] + coords[inverse] + shift
        )
        for g in generators:
            g2 = M[M[g][g]]
            relations.update(coords[g2[v]] - e for v, e in basis)
        # lines[k] = (a, c, b, d, w) for line k, found with t_v = [[a, b],
        # [c, d]] and w = w(t_v); mark[a N + c] = k N + l for the column (a,
        # c) = l t_v e1
        lines = [(one, zero, zero, one, 0)]
        mark = [-1] * (N * N)
        for lam in tau:
            mark[lam * N + zero] = lam
        for a, c, b, d, w in lines:  # grows while it is read
            for upper, row, e in moves:
                if upper:
                    ua, uc, ub, ud = A[a][row[c]], c, A[b][row[d]], d
                else:
                    ua, uc, ub, ud = a, A[c][row[a]], b, A[d][row[b]]
                found = mark[ua * N + uc]
                if found < 0:
                    base, Ma, Mc = len(lines) * N, M[ua], M[uc]
                    for lam in tau:
                        mark[Ma[lam] * N + Mc[lam]] = base + lam
                    lines.append((ua, uc, ub, ud, w + e))
                else:
                    k, lam = divmod(found, N)
                    _, _, bu, du, wu = lines[k]
                    beta = A[M[du][ub]][neg[M[bu][ud]]]
                    relations.add(w + e - wu - coords[M[lam][beta]] - tau[lam])
        moduli = [r for r, _ in digits]
        moduli.append(lcm(*moduli))
        rows = _unpack(relations, moduli)
        n = len(moduli)
        rows.update(tuple(m * (i == j) for j in range(n)) for i, m in enumerate(moduli))
        return len(lines) * len(tau), list(rows)

    @cached_property
    def sl2ab(self) -> AbelianGroup:
        """SL2(R)^ab, read from sl2_orbit's relations.  SL2 = E2 over every
        finite commutative ring, a product of local rings, so X generates;
        the count |orbit| |R| = |lines| |B| = |SL2(R)| certifies it, and
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
    factors = dict.fromkeys(spec.factors)  # a factor met twice is built once
    rings = {f: FiniteRing(FiniteRingSpec((f,)), cap) for f in factors}
    sl2_order = prod(rings[f].sl2_order for f in spec.factors)
    return sl2_order, direct_sum(*(rings[f].sl2ab for f in spec.factors))


_IndexMat = tuple[int, int, int, int]
# bits per signed exponent in a packed vector: under the construction cap an
# entry is below 2^24 in absolute value (w(t_v) has fewer than |R|^2 letters,
# a unit's word image below 5 p^k |R^*| <= 5 * 2^20 in each field), so the
# bias _unpack adds to a field, below 2^31 + 2^10, keeps it in [0, 2^32)
_FIELD = 32


def _unpack(vectors: Iterable[int], moduli: list[int]) -> set[tuple[int, ...]]:
    """The distinct packed exponent vectors, each as its signed _FIELD-bit
    fields, lowest first, field i reduced mod moduli[i]: a multiple of
    moduli[i] of at least half the field is added to field i first, so
    that none is negative."""
    half, mask, bias = 1 << (_FIELD - 1), (1 << _FIELD) - 1, 0
    for m in reversed(moduli):
        bias = (bias << _FIELD) + -(-half // m) * m
    rest = [v + bias for v in vectors]
    fields = []
    for m in moduli:
        fields.append([(v & mask) % m for v in rest])
        rest = [v >> _FIELD for v in rest]
    return set(zip(*fields))


def _unit_words(
    M: _Table, one: int, image: Callable[[int, int], int]
) -> tuple[dict[int, int], list[int], set[int]]:
    """The units of the ring with multiplication table M, each as a word in
    greedy generators: a dict from each unit to its word's image in Z^X, the
    generators, and one relation per generator, a generator g having the
    image image(g, g^-1).  The elements are scanned in index order, and each
    unit outside the subgroup H the earlier generators span is the next g;
    H then grows by its cosets g^k H, the word of g^k h being k times g's
    plus h's, until g^K lies in H, and g^K = h is the relation.  With the
    commutators these relations present the unit group (a polycyclic
    presentation of an abelian group)."""
    words, generators, relations = {one: 0}, [], set()
    for g, row in enumerate(M):
        if g in words or one not in row:
            continue
        step, subgroup = image(g, row.index(one)), list(words.items())
        x, power = g, step
        while x not in words:
            Mx = M[x]
            for h, word in subgroup:
                words[Mx[h]] = power + word
            x, power = M[g][x], power + step
        generators.append(g)
        relations.add(power - words[x])
    return words, generators, relations


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
