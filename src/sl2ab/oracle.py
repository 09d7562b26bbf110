"""Brute-force SL2 computations over small finite commutative rings.

The supported rings are finite products of factors (Z/p^k)[x]/(h) with h
monic: Z/p^k when h = x, F_p[x]/(h) when k = 1, and mixed ones such as the
Galois ring GR(4, 2) = (Z/4)[x]/(x^2+x+1).  A factor element is its tuple of
deg h coefficients mod p^k; products are reduced mod h.  At the scale this
package cares about (ring order <= 16 by default) everything is done over
precomputed index-space addition and multiplication tables: enumerate SL2
directly, generate it from elementary matrices, find the commutator subgroup
as the normal closure of the commutators of a generating set, and read off
the abelianization from the order statistics of the quotient.  Closures grow
one generator at a time, each paying only for the cosets it opens.  These
routines are the ground truth the structure formulas are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, NamedTuple, Sequence

from .abgroup import AbelianGroup, from_order_statistics
from .polyarith import (
    INTEGER_LIMIT,
    BudgetExceededError,
    _ldivmod,
    _lmul,
    _render_poly,
    _trim,
    check_limit,
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
            raise ValueError(f"need prime p and k >= 1, got p={self.p} k={self.k}")
        h = tuple(_trim([c % self.modulus for c in self.h]))
        if len(h) < 2 or h[-1] != 1:
            raise ValueError(f"h must be monic of degree >= 1, got {list(self.h)}")
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

    def tables(self) -> tuple[list[list[int]], ...]:
        """The addition and multiplication tables on element indexes."""
        m, n, h = self.modulus, self.degree, self.h
        els = self.elements()
        idx = {v: i for i, v in enumerate(els)}

        def add(a: tuple[int, ...], b: tuple[int, ...]) -> int:
            return idx[tuple((x + y) % m for x, y in zip(a, b))]

        def mul(a: tuple[int, ...], b: tuple[int, ...]) -> int:
            r = _ldivmod(_lmul(a, b, m), h, m)[1]
            return idx[tuple(r) + (0,) * (n - len(r))]

        return tuple([[op(a, b) for b in els] for a in els] for op in (add, mul))

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
            raise ValueError(f"need n >= 2, got {n}")
        check_limit(n, INTEGER_LIMIT, "n")
        return cls(tuple(RingFactor(p, k) for p, k in sorted(factorint(n).items())))

    def describe(self) -> str:
        return " x ".join(map(str, self.factors))

    def to_json(self) -> dict:
        return {"factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, data: object) -> "FiniteRingSpec":
        """The inverse of to_json; {"zmod": N} also reads as Z/N.  A document
        of any other shape raises ValueError("malformed ring spec: ...")."""
        if not isinstance(data, dict):
            raise ValueError("malformed ring spec: the document must be an object")
        if "zmod" in data:
            return cls.zmod(_json_int(data, "zmod"))
        fds = data.get("factors")
        if not isinstance(fds, list) or not all(isinstance(fd, dict) for fd in fds):
            raise ValueError('malformed ring spec: "factors" must be a list of objects')
        factors: list[RingFactor] = []
        for fd in fds:
            kind = fd.get("kind")
            if kind == "zmodpk":
                factors.append(RingFactor(_json_int(fd, "p"), _json_int(fd, "k")))
            elif kind == "polyquot":
                h = fd.get("h")
                if not isinstance(h, list) or not all(map(_is_json_int, h)):
                    raise ValueError(
                        'malformed ring spec: "h" must be a list of integers, '
                        f"got {h!r}"
                    )
                p, k = _json_int(fd, "p"), _json_int(fd, "k", 1)
                factors.append(RingFactor(p, k, h))
            else:
                raise ValueError(f"unknown ring factor kind: {kind!r}")
        return cls(tuple(factors))


def _is_json_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(doc: dict, key: str, default: int | None = None) -> int:
    value = doc.get(key, default)
    if not _is_json_int(value):
        raise ValueError(
            f'malformed ring spec: "{key}" must be an integer, got {value!r}'
        )
    return value


Element = tuple  # one coefficient tuple per factor


class Mat2(NamedTuple):
    """A 2x2 matrix over a finite ring, entries as canonical element values."""

    a: Element
    b: Element
    c: Element
    d: Element


def _product_table(t1: list[list[int]], t2: list[list[int]]) -> list[list[int]]:
    """The table of R1 x R2 from those of R1 and R2, pairs numbered
    lexicographically: (i, j) is i * |R2| + j."""
    n2 = len(t2)
    return [[x * n2 + y for x in r1 for y in r2] for r1 in t1 for r2 in t2]


class FiniteRing:
    """Index-space arithmetic tables for a FiniteRingSpec.

    Elements are numbered in the lexicographic order of their factor
    components; all group-level work downstream runs on the integer indexes.
    SL2(R) and its abelianization are computed once, on first use.
    """

    def __init__(self, spec: FiniteRingSpec):
        if spec.order > _CONSTRUCTION_CAP:
            raise BudgetExceededError(
                f"ring of order {spec.order} exceeds the construction cap "
                f"{_CONSTRUCTION_CAP}"
            )
        self.spec = spec
        self.order = spec.order
        factors = spec.factors
        self.elements: list[Element] = list(
            itertools.product(*(f.elements() for f in factors))
        )
        self.index: dict[Element, int] = {v: i for i, v in enumerate(self.elements)}
        adds, muls = zip(*(f.tables() for f in factors))
        self.add_table = reduce(_product_table, adds)
        self.mul_table = reduce(_product_table, muls)
        self.zero_index = self.index[tuple((0,) * f.degree for f in factors)]
        one = tuple((1,) + (0,) * (f.degree - 1) for f in factors)
        self.one_index = self.index[one]
        self.neg = [row.index(self.zero_index) for row in self.add_table]

    def element_str(self, value: Element) -> str:
        parts = [_render_poly(v) or "0" for v in value]
        return parts[0] if len(parts) == 1 else "(" + ", ".join(parts) + ")"

    def is_unit_index(self, i: int) -> bool:
        one = self.one_index
        return any(x == one for x in self.mul_table[i])

    @cached_property
    def sl2_indices(self) -> list[_IndexMat]:
        return _sl2_indices(self)

    @cached_property
    def sl2ab(self) -> AbelianGroup:
        return _abelianization(self, self.sl2_indices)


_ring_cache: dict[FiniteRingSpec, FiniteRing] = {}


def ring_for(spec: FiniteRingSpec) -> FiniteRing:
    ring = _ring_cache.get(spec)
    if ring is None:
        ring = _ring_cache[spec] = FiniteRing(spec)
    return ring


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


def _additive_span(
    ring: FiniteRing, candidates: Iterable[int]
) -> tuple[list[int], set[int]]:
    """The subgroup of (R, +) the candidates generate, and a generating set
    of it: each candidate, in turn, joins when the subgroup generated so far
    lacks it."""
    A = ring.add_table
    gens: list[int] = []
    span = {ring.zero_index}
    for a in candidates:
        if a not in span:
            gens.append(a)
            while (shifted := {A[s][a] for s in span}) != span:
                span |= shifted
    return gens, span


def _extend(
    ring: FiniteRing, closed: set[_IndexMat], gens: list[_IndexMat], g: _IndexMat
) -> set[_IndexMat]:
    """Grow closed = <gens> = H in place to <gens, g>, append g to gens and
    return closed.  The new group is a union of cosets H r (Dimino's
    algorithm): each new coset is filled at once, and only its
    representative r is multiplied by the generators to find the next."""
    M, A = ring.mul_table, ring.add_table
    old = list(closed)
    gens.append(g)
    queue = [g]
    while queue:
        r = queue.pop()
        if r not in closed:
            closed.update([_mmul(h, r, M, A) for h in old])
            queue += [_mmul(r, x, M, A) for x in gens]
    return closed


def _to_value_mat(ring: FiniteRing, m: _IndexMat) -> Mat2:
    els = ring.elements
    return Mat2(els[m[0]], els[m[1]], els[m[2]], els[m[3]])


def _to_index_mat(ring: FiniteRing, m: Mat2) -> _IndexMat:
    try:
        im = (ring.index[m.a], ring.index[m.b], ring.index[m.c], ring.index[m.d])
    except KeyError as exc:
        raise ValueError(f"matrix entry {exc.args[0]!r} is not a ring element") from None
    a, b, c, d = im
    M, A = ring.mul_table, ring.add_table
    if A[M[a][d]][ring.neg[M[b][c]]] != ring.one_index:
        raise ValueError(f"matrix {m} does not have determinant 1")
    return im


def _check_budget(order: int, cap: int) -> None:
    if order > cap:
        raise BudgetExceededError(
            f"ring order {order} exceeds the enumeration cap {cap} "
            f"(enumerating SL2 takes {order}^3 = {order**3} steps); raise the cap "
            "explicitly to override"
        )


def _sl2_indices(ring: FiniteRing) -> list[_IndexMat]:
    """(a, b, c, d) with a d = 1 + b c, in lexicographic order: for each a,
    the d solving a d = x are listed once per x, so the scan takes |R|^3 steps."""
    n = ring.order
    M, one_plus = ring.mul_table, ring.add_table[ring.one_index]
    out: list[_IndexMat] = []
    rng = range(n)
    for a in rng:
        solutions: list[list[int]] = [[] for _ in rng]
        for d, x in enumerate(M[a]):
            solutions[x].append(d)
        for b in rng:
            Mb = M[b]
            for c in rng:
                out.extend((a, b, c, d) for d in solutions[one_plus[Mb[c]]])
    return out


def enumerate_sl2_direct(
    spec: FiniteRingSpec, cap: int = DEFAULT_RING_CAP
) -> list[Mat2]:
    """All of SL2(R): every (a, b, c, d) in R^4 with determinant one, in
    lexicographic order."""
    _check_budget(spec.order, cap)
    r = ring_for(spec)
    return [_to_value_mat(r, m) for m in r.sl2_indices]


def generate_from_elementary(
    spec: FiniteRingSpec, cap: int = DEFAULT_RING_CAP
) -> list[Mat2]:
    """The group the elementary matrices E12(a), E21(a) generate, closed from
    a in an additive generating set of R (E12 and E21 are homomorphisms from
    (R, +)).  For the finite rings supported here it is all of SL2(R); the
    test suite checks that equality rather than assuming it."""
    _check_budget(spec.order, cap)
    r = ring_for(spec)
    closed, gens = {_identity(r)}, []
    for g in _elementary(r, _additive_span(r, range(r.order))[0]):
        if g not in closed:
            _extend(r, closed, gens, g)
    return [_to_value_mat(r, m) for m in sorted(closed)]


def _generators(ring: FiniteRing, group_idx: list[_IndexMat]) -> list[_IndexMat]:
    """Generators from the group itself, so it need not be all of SL2: the
    elementary matrices of an additive generating set of R, then all the
    others, then each element, each joining when it lies in the group but
    not in the subgroup generated so far, until that subgroup is the group."""
    members = set(group_idx)
    gens: list[_IndexMat] = []
    closed = {_identity(ring)}
    first = _elementary(ring, _additive_span(ring, range(ring.order))[0])
    for g in itertools.chain(first, _elementary(ring, range(ring.order)), group_idx):
        if len(closed) == len(members):
            break
        if g in members and g not in closed:
            _extend(ring, closed, gens, g)
    return gens


def _commutator_closure(ring: FiniteRing, group_idx: list[_IndexMat]) -> set[_IndexMat]:
    """[G, G] as the normal closure N of the [x, y], x != y in generators X of
    G: an element n outside N joins N's generators and queues each x^-1 n x.
    Then X normalizes N, G/N is abelian and N <= [G, G], so N = [G, G]."""
    M, A = ring.mul_table, ring.add_table
    xs = _generators(ring, group_idx)
    pairs = [(_inverse(x, ring), x) for x in xs]
    work = [
        _mmul(_mmul(_mmul(x, y, M, A), xi, M, A), _inverse(y, ring), M, A)
        for i, (xi, x) in enumerate(pairs)
        for y in xs[i + 1 :]
    ]
    closed, gens = {_identity(ring)}, []
    while work:
        n = work.pop()
        if n not in closed:
            _extend(ring, closed, gens, n)
            work += [_mmul(_mmul(xi, n, M, A), x, M, A) for xi, x in pairs]
    return closed


def commutator_subgroup(spec: FiniteRingSpec, group: Iterable[Mat2]) -> set[Mat2]:
    """Subgroup generated by all pairwise commutators g h g^-1 h^-1.

    The input must be closed under multiplication and inverse (a subgroup of
    SL2); the result is then automatically normal in it.
    """
    r = ring_for(spec)
    closed = _commutator_closure(r, [_to_index_mat(r, m) for m in group])
    return {_to_value_mat(r, m) for m in closed}


def _quotient_profile(
    elements: Iterable, subgroup: Iterable, op, identity
) -> AbelianGroup:
    """An abelian quotient G/N from its order statistics: the elements of G
    are split into cosets g N, and each representative's powers under the
    group operation op are walked back to the identity coset."""
    coset_of: dict = {}
    reps: list = []
    for g in elements:
        if g in coset_of:
            continue
        rid = len(reps)
        reps.append(g)
        for n in subgroup:
            coset_of[op(g, n)] = rid
    identity_coset = coset_of[identity]
    profile: dict[int, int] = {}
    for rep in reps:
        k = 1
        cur = rep
        while coset_of[cur] != identity_coset:
            cur = op(cur, rep)
            k += 1
        profile[k] = profile.get(k, 0) + 1
    return from_order_statistics(profile)


def _abelianization(ring: FiniteRing, group_idx: list[_IndexMat]) -> AbelianGroup:
    M, A = ring.mul_table, ring.add_table
    return _quotient_profile(
        group_idx,
        _commutator_closure(ring, group_idx),
        lambda x, y: _mmul(x, y, M, A),
        _identity(ring),
    )


def abelianization(spec: FiniteRingSpec, group: Iterable[Mat2]) -> AbelianGroup:
    """Abelianization of a finite matrix group: quotient by the commutator
    subgroup, identified through its element-order statistics."""
    r = ring_for(spec)
    return _abelianization(r, [_to_index_mat(r, m) for m in group])


def sl2_abelianization(
    spec: FiniteRingSpec, cap: int = DEFAULT_RING_CAP
) -> AbelianGroup:
    """Abelianization of SL2(R), fully by enumeration (cached per ring)."""
    _check_budget(spec.order, cap)
    return ring_for(spec).sl2ab


def prop_local_formula(factor: RingFactor) -> AbelianGroup:
    """Closed-form abelianization of SL2 over a local ring, from A/m^2.

    Residue field of order >= 4: trivial.  Of order 3: Z/3 (the additive group
    of the residue field).  Of order 2: the additive group of A/m^2; when m is
    principal that is Z/4 exactly when the image of 2 there is nonzero, else
    Z/2 + Z/2 (or Z/2 for A = F_2 itself).  The maximal ideal is detected as
    the non-unit set, verified closed under addition; anything non-local is
    rejected.
    """
    ring = ring_for(FiniteRingSpec((factor,)))
    n = ring.order
    A = ring.add_table
    nonunits = [i for i in range(n) if not ring.is_unit_index(i)]
    nonunit_set = set(nonunits)
    for a in nonunits:
        row = A[a]
        for b in nonunits:
            if row[b] not in nonunit_set:
                raise ValueError(
                    f"{factor} is not local: non-units are not closed "
                    "under addition"
                )
    residue = n // len(nonunits)
    if residue >= 4:
        return AbelianGroup()
    if residue == 3:
        return AbelianGroup(0, (3,))
    # residue field F_2: the additive group of A/m^2
    M = ring.mul_table
    _, msq = _additive_span(ring, {M[a][b] for a in nonunits for b in nonunits})
    return _quotient_profile(range(n), msq, lambda a, b: A[a][b], ring.zero_index)
