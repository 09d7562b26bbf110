"""Brute-force SL2 computations over small finite commutative rings.

The supported rings are finite products of factors (Z/p^k)[x]/(h) with h
monic: Z/p^k when h = x, F_p[x]/(h) when k = 1, and mixed ones such as the
Galois ring GR(4, 2) = (Z/4)[x]/(x^2+x+1).  A factor element is its tuple of
deg h coefficients mod p^k; products are reduced mod h.  At the scale this
package cares about (ring order <= 16 by default) everything is done over
index-space addition and multiplication tables, built by digit arithmetic
mod p^k.  FiniteRing(spec, cap) holds them and is the one budget check:
each call builds its own ring, and the module keeps no memo between calls.
|SL2(R)| is counted from the multiplication table; only enumerate_sl2_direct
lists the group, as index tuples.  The abelianization walks G' and its
cosets: X, the elementary matrices of the additive basis of R, has G' as
the normal closure of its commutators, and the cosets are words in X, found
breadth first.  |words| |G'| = |SL2(R)| certifies that X generates.  A word
r x that lands in the coset of a word s found before is a relation of G/G'
in the exponents of X, and these relations present it: the invariants are
Z^X modulo them.  These routines are the ground truth the structure formulas
are tested against; prop_local_formula, the formula summed over the local
factors of a ring factor, is read off (p, k, h) alone and shares no code
with them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import sub
from typing import Iterator, NamedTuple, Sequence

from .abgroup import AbelianGroup, canonicalize, from_relations
from .polyarith import (
    INTEGER_LIMIT,
    SHOWN_LENGTH,
    BudgetExceededError,
    ModPoly,
    _render_poly,
    _trim,
    brief,
    check_limit,
    factor_mod_p,
    factorint,
    is_prime,
)

DEFAULT_RING_CAP = 16
_CONSTRUCTION_CAP = 1024
# 2^e > INTEGER_LIMIT for every larger exponent e, so a factor order
# p^(k deg h) past it is past INTEGER_LIMIT too.
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
        degree = len(_trim(list(self.h))) - 1
        check_limit(self.k * degree, _EXPONENT_LIMIT, "k * deg h")
        if self.k < 1 or not is_prime(self.p):
            k = brief(self.k)  # p passed check_limit above; k has no lower bound
            raise ValueError(f"need prime p and k >= 1, got p={self.p} k={k}")
        h = tuple(_trim([c % self.modulus for c in self.h]))
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

    def elements(self) -> list[tuple[int, ...]]:
        """Every element as its coefficient tuple, in lexicographic order."""
        return list(itertools.product(range(self.modulus), repeat=self.degree))

    def __str__(self) -> str:
        if self.h == (0, 1):
            return f"Z/{self.modulus}"
        base = f"F_{self.p}" if self.k == 1 else f"(Z/{self.modulus})"
        return f"{base}[x]/({_render_poly(self.h)})"

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
    for a in factor.elements():
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


class FiniteRing:
    """Index-space arithmetic tables for a FiniteRingSpec, within budget:
    past the enumeration cap cap, or the construction cap whatever cap is,
    BudgetExceededError is raised before any table is built.  Elements are
    numbered in the lexicographic order of their factor components; all
    group-level work downstream runs on the integer indexes.  |SL2(R)| and
    its abelianization are computed once per ring, on first use.
    """

    def __init__(self, spec: FiniteRingSpec, cap: int = DEFAULT_RING_CAP):
        order = spec.order
        if order > cap:
            raise BudgetExceededError(
                f"ring order {order} exceeds the enumeration cap {cap} "
                f"(enumerating SL2 takes {order}^3 = {order**3} steps); raise the "
                "cap explicitly to override"
            )
        if order > _CONSTRUCTION_CAP:
            raise BudgetExceededError(
                f"ring of order {order} exceeds the construction cap "
                f"{_CONSTRUCTION_CAP}"
            )
        self.spec = spec
        self.order = order
        factors = spec.factors
        self.elements = list(itertools.product(*(f.elements() for f in factors)))
        adds, muls = zip(*map(_factor_tables, factors))
        self.add_table = reduce(_product_table, adds)
        self.mul_table = reduce(_product_table, muls)
        self.zero_index = 0  # every coefficient 0 comes first
        one = tuple((1,) + (0,) * (f.degree - 1) for f in factors)
        self.one_index = self.elements.index(one)
        self.neg = [row.index(self.zero_index) for row in self.add_table]

    @cached_property
    def sl2_order(self) -> int:
        """|SL2(R)| = sum over y of #{(a, d): a d = 1 + y} #{(b, c): b c = y}."""
        products = Counter(itertools.chain.from_iterable(self.mul_table))
        one_plus = self.add_table[self.one_index]
        return sum(products[one_plus[y]] * count for y, count in products.items())

    @cached_property
    def sl2ab(self) -> AbelianGroup:
        quotient = _sl2_quotient(self)
        return from_relations(quotient.relations, len(quotient.gens))


_IndexMat = tuple[int, int, int, int]


def _mmul(x: _IndexMat, y: _IndexMat, M, A) -> _IndexMat:
    a, b, c, d = x
    e, f, g, h = y
    Ma, Mb, Mc, Md = M[a], M[b], M[c], M[d]
    return (
        A[Ma[e]][Mb[g]],
        A[Ma[f]][Mb[h]],
        A[Mc[e]][Md[g]],
        A[Mc[f]][Md[h]],
    )


def _identity(ring: FiniteRing) -> _IndexMat:
    return (ring.one_index, ring.zero_index, ring.zero_index, ring.one_index)


def _inverse(m: _IndexMat, ring: FiniteRing) -> _IndexMat:
    # adjugate; valid because det = 1
    a, b, c, d = m
    neg = ring.neg
    return (d, neg[b], neg[c], a)


def _elementary(ring: FiniteRing, entries: Sequence[int]) -> list[_IndexMat]:
    """E12(a) and E21(a) for every a in entries, sorted (E12(0) = E21(0) = 1)."""
    one, zero = ring.one_index, ring.zero_index
    upper = {(one, a, zero, one) for a in entries}
    return sorted(upper | {(one, zero, a, one) for a in entries})


def _extend(
    ring: FiniteRing, closed: set[_IndexMat], gens: list[_IndexMat], g: _IndexMat
) -> set[_IndexMat]:
    """Grow closed = <gens> = H in place to <gens, g>, append g to gens and
    return closed.  The new group is a union of cosets H r (Dimino's
    algorithm): each new coset is filled at once, from the rows of r's
    entries in the symmetric multiplication table, and only its
    representative r is multiplied by the generators to find the next."""
    M, A = ring.mul_table, ring.add_table
    old = list(closed)
    gens.append(g)
    queue = [g]
    while queue:
        r = queue.pop()
        if r not in closed:
            Me, Mf, Mg, Mh = M[r[0]], M[r[1]], M[r[2]], M[r[3]]
            closed.update(
                [
                    (A[Me[a]][Mg[b]], A[Mf[a]][Mh[b]], A[Me[c]][Mg[d]], A[Mf[c]][Mh[d]])
                    for a, b, c, d in old
                ]
            )
            queue += [_mmul(r, x, M, A) for x in gens]
    return closed


def _sl2_indices(ring: FiniteRing) -> Iterator[_IndexMat]:
    """(a, b, c, d) with a d = 1 + b c, in lexicographic order: for each a,
    the d solving a d = x are listed once per x, so the scan takes |R|^3 steps."""
    M, one_plus = ring.mul_table, ring.add_table[ring.one_index]
    rng = range(ring.order)
    for a in rng:
        solutions: list[list[int]] = [[] for _ in rng]
        for d, x in enumerate(M[a]):
            solutions[x].append(d)
        for b in rng:
            Mb = M[b]
            yield from [(a, b, c, d) for c in rng for d in solutions[one_plus[Mb[c]]]]


def enumerate_sl2_direct(
    spec: FiniteRingSpec, cap: int = DEFAULT_RING_CAP
) -> list[_IndexMat]:
    """All of SL2(R): every (a, b, c, d) in R^4 with determinant one, as
    indexes into FiniteRing(spec).elements, in lexicographic order."""
    return list(_sl2_indices(FiniteRing(spec, cap)))


class _Quotient(NamedTuple):
    """G/G' for a group G = <gens>: derived is G', reps holds one word in
    gens per coset of G', and each row of relations is a difference of
    exponent vectors in Z^gens of two words in one coset."""

    gens: list[_IndexMat]
    derived: set[_IndexMat]
    reps: list[_IndexMat]
    relations: list[tuple[int, ...]]


def _derived_quotient(ring: FiniteRing, xs: list[_IndexMat]) -> _Quotient:
    """G/G' for the group G = <X> that the matrices xs generate.

    N is the normal closure of the commutators [x, y] = x y x^-1 y^-1 of X:
    an element n outside N joins N's generators and queues each x^-1 n x.
    Then X normalizes N, <X>/N is abelian and N <= <X>', so N = <X>'.  The
    cosets of N are found as words in X, breadth first from 1, each with its
    exponent vector w in Z^X: a product r x joins, with w(r) + e_x, when
    r x s^-1 lies outside N for every word s found so far, and otherwise
    gives the relation w(r) + e_x - w(s).  Those are the relations of every
    edge outside the search tree of the Cayley graph of <X>/N, so they span
    the kernel of Z^X -> <X>/N (Schreier's lemma)."""
    M, A = ring.mul_table, ring.add_table
    one = _identity(ring)
    pairs = [(_inverse(x, ring), x) for x in xs]
    work = [
        _mmul(_mmul(_mmul(x, g, M, A), xi, M, A), gi, M, A)
        for j, (gi, g) in enumerate(pairs)
        for xi, x in pairs[:j]
    ]
    derived, dgens = {one}, []
    while work:
        n = work.pop()
        if n not in derived:
            _extend(ring, derived, dgens, n)
            work += [_mmul(_mmul(xi, n, M, A), x, M, A) for xi, x in pairs]
    reps, inverses, words = [one], [one], [[0] * len(xs)]
    relations = []
    for r, w in zip(reps, words):  # both grow while they are read
        for j, x in enumerate(xs):
            y = _mmul(r, x, M, A)
            wy = w.copy()
            wy[j] += 1
            for t, ws in zip(inverses, words):
                if _mmul(y, t, M, A) in derived:
                    relations.append(tuple(map(sub, wy, ws)))
                    break
            else:
                reps.append(y)
                inverses.append(_inverse(y, ring))
                words.append(wy)
    return _Quotient(xs, derived, reps, relations)


def _elementary_gens(ring: FiniteRing) -> list[_IndexMat]:
    """The elementary matrices of the additive basis of R: x^i in one factor
    (Z/p^k)[x]/(h), for i < deg h, and 0 in the others, which are the
    elements whose coefficients sum to 1."""
    basis = [i for i, v in enumerate(ring.elements) if sum(map(sum, v)) == 1]
    return _elementary(ring, basis)


def _sl2_quotient(ring: FiniteRing) -> _Quotient:
    """SL2(R)/SL2(R)', X being _elementary_gens.  SL2 = E2 over every finite
    commutative ring, a product of local rings, so X generates; the count
    |words| |G'| = |SL2(R)| certifies it, and RuntimeError is raised if it
    ever fails."""
    quotient = _derived_quotient(ring, _elementary_gens(ring))
    found = len(quotient.reps) * len(quotient.derived)
    if found != ring.sl2_order:
        r = ring.spec.describe()
        raise RuntimeError(f"X generates {found} of |SL2({r})| = {ring.sl2_order}")
    return quotient


def sl2_abelianization(
    spec: FiniteRingSpec, cap: int = DEFAULT_RING_CAP
) -> AbelianGroup:
    """Abelianization of SL2(R) from the cosets of its commutator subgroup,
    without listing the group."""
    return FiniteRing(spec, cap).sl2ab


def prop_local_formula(factor: RingFactor) -> AbelianGroup:
    """Closed-form abelianization of SL2 over a factor A = (Z/p^k)[x]/(h),
    read off (p, k, h) without building A.

    A is the product of its local factors, one for each irreducible g with
    g^e exactly dividing h mod p: the maximal ideal is m = (p, g), with
    residue field F_p[x]/(g) of order q = p^deg g.  Each local factor adds
    nothing when q >= 4, Z/3 when q = 3, and the additive group of A/m^2
    when q = 2.  Then g = x - a; with y = x - a, m^2 = (4, 2y, y^2):
    - k = 1: the local factor is F_2[y]/(y^e), so A/m^2 is (Z/2)^min(e, 2);
    - e = 1: it is Z/2^k with k >= 2, so A/m^2 = Z/4;
    - otherwise h = y^e u mod 2 with u(a) odd makes h(a) and h'(a) even, so
      h(y + a) = h(a) mod m^2, and the local factor's part of h is h up to
      a unit: A/m^2 = Z[y]/(4, 2y, y^2, h(a)), Z/2 + Z/4 when 4 divides
      h(a), Z/2 + Z/2 when not.  No Hensel lift is needed.
    """
    p, k, h = factor.p, factor.k, factor.h
    h_mod_p = ModPoly(p, h)
    # a linear h is irreducible: Z/p^k needs no factoring
    irreducibles = factor_mod_p(h_mod_p) if factor.degree > 1 else [(h_mod_p, 1)]
    torsion: list[int] = []
    for g, e in irreducibles:
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
