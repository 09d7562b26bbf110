"""Brute-force SL2 computations over small finite commutative rings.

The supported rings are finite products of Z/p^k and F_p[x]/(h) factors.  At
the scale this package cares about (ring order <= 16 by default) everything is
done over precomputed index-space addition and multiplication tables:
enumerate SL2 directly, generate it from elementary matrices, find the
commutator subgroup as the normal closure of the commutators of a generating
set, and read off the abelianization from the order statistics of the
quotient.  Closures grow one generator at a time, each paying only for the
cosets it opens.  These routines are the ground truth the structure
formulas are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .abgroup import AbelianGroup, from_order_statistics
from .polyarith import BudgetExceededError, ModPoly, factorint

DEFAULT_RING_CAP = 16
_CONSTRUCTION_CAP = 1024


@dataclass(frozen=True)
class ZmodPK:
    """The factor ring Z/p^k."""

    p: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1 or factorint(self.p) != {self.p: 1}:
            raise ValueError(f"need prime p and k >= 1, got p={self.p} k={self.k}")

    @property
    def order(self) -> int:
        return self.p**self.k

    def to_json(self) -> dict:
        return {"kind": "zmodpk", "p": self.p, "k": self.k}


@dataclass(frozen=True)
class PolyQuot:
    """The factor ring F_p[x]/(h) for monic h of degree >= 1."""

    p: int
    h: ModPoly

    def __post_init__(self) -> None:
        if self.h.p != self.p:
            raise ValueError(f"h is over F_{self.h.p}, expected F_{self.p}")
        if not self.h.is_monic or self.h.degree < 1:
            raise ValueError(f"h must be monic of degree >= 1, got {self.h!r}")

    @property
    def order(self) -> int:
        return self.p**self.h.degree

    def to_json(self) -> dict:
        return {"kind": "polyquot", "p": self.p, "h": list(self.h.coeffs)}


RingFactor = Union[ZmodPK, PolyQuot]


@dataclass(frozen=True)
class FiniteRingSpec:
    """A finite commutative ring given as a product of supported factors."""

    factors: tuple[RingFactor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("need at least one ring factor")

    @classmethod
    def zmod(cls, n: int) -> "FiniteRingSpec":
        """Z/n as its product of prime-power parts (CRT)."""
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        return cls(tuple(ZmodPK(p, k) for p, k in sorted(factorint(n).items())))

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.order
        return out

    def describe(self) -> str:
        parts = []
        for f in self.factors:
            if isinstance(f, ZmodPK):
                parts.append(f"Z/{f.order}")
            else:
                parts.append(f"F_{f.p}[x]/({f.h})")
        return " x ".join(parts)

    def to_json(self) -> dict:
        return {"factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, data: Mapping) -> "FiniteRingSpec":
        if "zmod" in data:
            return cls.zmod(data["zmod"])
        factors: list[RingFactor] = []
        for fd in data["factors"]:
            kind = fd.get("kind")
            if kind == "zmodpk":
                factors.append(ZmodPK(fd["p"], fd["k"]))
            elif kind == "polyquot":
                factors.append(PolyQuot(fd["p"], ModPoly(fd["p"], fd["h"])))
            else:
                raise ValueError(f"unknown ring factor kind: {kind!r}")
        return cls(tuple(factors))


Element = tuple  # one component per factor: int for Z/p^k, coeff tuple for F_p[x]/(h)


class Mat2(NamedTuple):
    """A 2x2 matrix over a finite ring, entries as canonical element values."""

    a: Element
    b: Element
    c: Element
    d: Element


def _factor_domain(factor: RingFactor) -> list:
    if isinstance(factor, ZmodPK):
        return list(range(factor.order))
    return [tuple(c) for c in itertools.product(range(factor.p), repeat=factor.h.degree)]


def _factor_add(factor: RingFactor, a, b):
    if isinstance(factor, ZmodPK):
        return (a + b) % factor.order
    p = factor.p
    return tuple((x + y) % p for x, y in zip(a, b))


def _factor_mul(factor: RingFactor, a, b):
    if isinstance(factor, ZmodPK):
        return (a * b) % factor.order
    prod = (ModPoly(factor.p, a) * ModPoly(factor.p, b)) % factor.h
    coeffs = prod.coeffs + (0,) * (factor.h.degree - len(prod.coeffs))
    return coeffs


def _factor_one(factor: RingFactor):
    if isinstance(factor, ZmodPK):
        return 1 % factor.order
    return (1,) + (0,) * (factor.h.degree - 1)


def _factor_str(factor: RingFactor, value) -> str:
    if isinstance(factor, ZmodPK):
        return str(value)
    return str(ModPoly(factor.p, value))


class FiniteRing:
    """Index-space arithmetic tables for a FiniteRingSpec.

    Elements are numbered in the lexicographic order of their factor
    components; all group-level work downstream runs on the integer indexes.
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
        self.elements: list[Element] = [
            tuple(combo)
            for combo in itertools.product(*(_factor_domain(f) for f in factors))
        ]
        self.index: dict[Element, int] = {v: i for i, v in enumerate(self.elements)}
        els, idx = self.elements, self.index

        def table(op) -> list[list[int]]:
            return [
                [idx[tuple(op(f, x, y) for f, x, y in zip(factors, a, b))] for b in els]
                for a in els
            ]

        self.add_table = table(_factor_add)
        self.mul_table = table(_factor_mul)
        zero = tuple(
            0 if isinstance(f, ZmodPK) else (0,) * f.h.degree for f in factors
        )
        self.zero_index = idx[zero]
        self.one_index = idx[tuple(_factor_one(f) for f in factors)]
        self.neg = [row.index(self.zero_index) for row in self.add_table]

    def element_str(self, value: Element) -> str:
        parts = [
            _factor_str(f, value[j]) for j, f in enumerate(self.spec.factors)
        ]
        return parts[0] if len(parts) == 1 else "(" + ", ".join(parts) + ")"

    def is_unit_index(self, i: int) -> bool:
        one = self.one_index
        return any(x == one for x in self.mul_table[i])


_ring_cache: dict[FiniteRingSpec, FiniteRing] = {}


def ring_for(spec: FiniteRingSpec) -> FiniteRing:
    ring = _ring_cache.get(spec)
    if ring is None:
        ring = _ring_cache[spec] = FiniteRing(spec)
    return ring


def _as_ring(ring: FiniteRing | FiniteRingSpec) -> FiniteRing:
    return ring if isinstance(ring, FiniteRing) else ring_for(ring)


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


def _additive_generators(ring: FiniteRing) -> list[int]:
    """A generating set of (R, +): each element, in index order, joins when
    the subgroup generated so far lacks it."""
    A = ring.add_table
    gens: list[int] = []
    span = {ring.zero_index}
    for a in range(ring.order):
        if a not in span:
            gens.append(a)
            while (shifted := {A[s][a] for s in span}) != span:
                span |= shifted
    return gens


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


_sl2_cache: dict[FiniteRingSpec, list[_IndexMat]] = {}


def _sl2_indices_cached(ring: FiniteRing) -> list[_IndexMat]:
    got = _sl2_cache.get(ring.spec)
    if got is None:
        got = _sl2_cache[ring.spec] = _sl2_indices(ring)
    return got


def enumerate_sl2_direct(
    ring: FiniteRing | FiniteRingSpec, cap: int = DEFAULT_RING_CAP
) -> list[Mat2]:
    """All of SL2(R): every (a, b, c, d) in R^4 with determinant one, in
    lexicographic order."""
    _check_budget(ring.order, cap)
    r = _as_ring(ring)
    return [_to_value_mat(r, m) for m in _sl2_indices_cached(r)]


def generate_from_elementary(
    ring: FiniteRing | FiniteRingSpec, cap: int = DEFAULT_RING_CAP
) -> list[Mat2]:
    """The group the elementary matrices E12(a), E21(a) generate, closed from
    a in an additive generating set of R (E12 and E21 are homomorphisms from
    (R, +)).  For the finite rings supported here it is all of SL2(R); the
    test suite checks that equality rather than assuming it."""
    _check_budget(ring.order, cap)
    r = _as_ring(ring)
    closed, gens = {_identity(r)}, []
    for g in _elementary(r, _additive_generators(r)):
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
    first = _elementary(ring, _additive_generators(ring))
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


def commutator_subgroup(
    ring: FiniteRing | FiniteRingSpec, group: Iterable[Mat2]
) -> set[Mat2]:
    """Subgroup generated by all pairwise commutators g h g^-1 h^-1.

    The input must be closed under multiplication and inverse (a subgroup of
    SL2); the result is then automatically normal in it.
    """
    r = _as_ring(ring)
    closed = _commutator_closure(r, [_to_index_mat(r, m) for m in group])
    return {_to_value_mat(r, m) for m in closed}


def _abelianization(ring: FiniteRing, group_idx: list[_IndexMat]) -> AbelianGroup:
    M, A = ring.mul_table, ring.add_table
    commutators = _commutator_closure(ring, group_idx)
    coset_of: dict[_IndexMat, int] = {}
    reps: list[_IndexMat] = []
    for g in group_idx:
        if g in coset_of:
            continue
        rid = len(reps)
        reps.append(g)
        for n in commutators:
            coset_of[_mmul(g, n, M, A)] = rid
    identity_coset = coset_of[_identity(ring)]
    profile: dict[int, int] = {}
    for rep in reps:
        k = 1
        cur = rep
        while coset_of[cur] != identity_coset:
            cur = _mmul(cur, rep, M, A)
            k += 1
        profile[k] = profile.get(k, 0) + 1
    return from_order_statistics(profile)


def abelianization(
    ring: FiniteRing | FiniteRingSpec, group: Iterable[Mat2]
) -> AbelianGroup:
    """Abelianization of a finite matrix group: quotient by the commutator
    subgroup, identified through its element-order statistics."""
    r = _as_ring(ring)
    return _abelianization(r, [_to_index_mat(r, m) for m in group])


_sl2ab_cache: dict[FiniteRingSpec, AbelianGroup] = {}


def sl2_abelianization(
    spec: FiniteRingSpec, cap: int = DEFAULT_RING_CAP
) -> AbelianGroup:
    """Abelianization of SL2(R), fully by enumeration (cached per ring)."""
    _check_budget(spec.order, cap)
    ring = ring_for(spec)
    got = _sl2ab_cache.get(spec)
    if got is None:
        got = _sl2ab_cache[spec] = _abelianization(ring, _sl2_indices_cached(ring))
    return got


def prop_local_formula(factor: RingFactor | FiniteRingSpec) -> AbelianGroup:
    """Closed-form abelianization of SL2 over a local ring, from A/m^2.

    Residue field of order >= 4: trivial.  Of order 3: Z/3 (the additive group
    of the residue field).  Of order 2: the additive group of A/m^2, which is
    Z/4 exactly when the image of 2 there is nonzero, else Z/2 + Z/2 (or Z/2
    for A = F_2 itself).  The maximal ideal is detected as the non-unit set,
    verified closed under addition; anything non-local is rejected.
    """
    if isinstance(factor, FiniteRingSpec):
        if len(factor.factors) != 1:
            raise ValueError("the local formula applies to a single factor ring")
        spec = factor
    else:
        spec = FiniteRingSpec((factor,))
    ring = ring_for(spec)
    n = ring.order
    A = ring.add_table
    nonunits = [i for i in range(n) if not ring.is_unit_index(i)]
    nonunit_set = set(nonunits)
    for a in nonunits:
        row = A[a]
        for b in nonunits:
            if row[b] not in nonunit_set:
                raise ValueError(
                    f"{spec.describe()} is not local: non-units are not closed "
                    "under addition"
                )
    residue = n // len(nonunits)
    if residue >= 4:
        return AbelianGroup()
    if residue == 3:
        return AbelianGroup(0, (3,))
    # residue field F_2: compute the additive group of A/m^2
    M = ring.mul_table
    msq: set[int] = {ring.zero_index}
    frontier = {M[a][b] for a in nonunits for b in nonunits}
    queue = list(frontier | msq)
    msq |= frontier
    while queue:
        x = queue.pop()
        for y in list(msq):
            z = A[x][y]
            if z not in msq:
                msq.add(z)
                queue.append(z)
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for i in range(n):
        if i in coset_of:
            continue
        rid = len(reps)
        reps.append(i)
        for m in msq:
            coset_of[A[i][m]] = rid
    zero_coset = coset_of[ring.zero_index]
    profile: dict[int, int] = {}
    for rep in reps:
        k = 1
        cur = rep
        while coset_of[cur] != zero_coset:
            cur = A[cur][rep]
            k += 1
        profile[k] = profile.get(k, 0) + 1
    return from_order_statistics(profile)
