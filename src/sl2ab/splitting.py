"""Splitting of the rational primes 2 and 3 in rings of integers, and the
field forms that carry it.

The group-structure formulas downstream consume only the multiset of
(ramification index e, inertia degree f) pairs above 2 and above 3, bundled
here as SplittingData.  Each field form knows its own degree, signature (or
places), splitting, JSON form and display name, and owns its splitting
route: Dedekind's criterion on a defining polynomial, read from polyarith's
dedekind_obstruction by dedekind_split and, once on construction, by
GeneralPoly; the congruence rules for quadratic fields in
quadratic_splits; the closed form for cyclotomic fields in
Cyclotomic.split_at; and the shared degree-one places of F_2(t) and F_3(t)
in RationalFunction.splittings.  The closed forms and the criterion
double-check each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

from .polyarith import (
    INTEGER_LIMIT,
    POLY_DEGREE_LIMIT,
    IntPoly,
    ModPoly,
    brief,
    brief_poly,
    check_limit,
    dedekind_obstruction,
    euler_phi_factored,
    factor_mod_p,
    factorint,
    irreducible_over_q_check,
    is_prime_power,
    is_squarefree,
    multiplicative_order,
    sturm_real_roots,
)

# A cyclotomic form lists up to phi(n) primes, so n is bounded more tightly
# than the INTEGER_LIMIT on other inputs that reach trial division.
CYCLOTOMIC_LIMIT = 10**6
# Past POLY_DEGREE_LIMIT or this bound a --poly input could keep the irreducibility
# certificate and the Sturm count busy for minutes; random inputs at them take seconds.
POLY_COEFFICIENT_LIMIT = 10**40


def _check_p(p: int) -> None:
    if p not in (2, 3):
        raise ValueError(f"splitting is computed at p in {{2, 3}} only, got {brief(p)}")


def _check_radicand(d: int) -> None:
    check_limit(d, INTEGER_LIMIT, "d")  # before is_squarefree divides d
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError(f"radicand must be squarefree and not 0 or 1: {d}")


class NotPMaximalError(Exception):
    """Z[theta] is not maximal at p, so the factorization of p is unreliable.

    Recoverable through sl2ab.UserNumberField, which takes the splitting of 2
    and 3 as data, or through a quadratic or cyclotomic form.
    """

    def __init__(self, p: int, poly: IntPoly, obstruction: ModPoly):
        self.p = p
        self.poly = poly
        self.obstruction = obstruction
        super().__init__(
            f"Z[x]/({brief_poly(poly)}) is not maximal at {p} "
            f"(Dedekind criterion obstruction: {brief_poly(self.obstruction)}); "
            "give its splitting of 2 and 3 through sl2ab.UserNumberField, or "
            "use --quadratic or --cyclotomic when the field is one of those"
        )


@dataclass(frozen=True)
class PrimeAbove:
    """One prime above p, with ramification index e and inertia degree f."""

    p: int
    e: int
    f: int
    label: str

    def __post_init__(self) -> None:
        if self.e < 1 or self.f < 1:
            shown = f"e={brief(self.e)} f={brief(self.f)}"
            raise ValueError(f"e and f must be >= 1, got {shown}")


@dataclass(frozen=True)
class SplittingData:
    """Decomposition of one rational prime in a degree-n field.

    count is the number of primes and degree_one the (index, prime) pairs of
    inertia degree one, the only ones a summand reads.  A cyclotomic form's
    splitting whose primes all have f > 1 counts and labels them only when
    count or primes is first read (for display, JSON, comparison or an index
    check), and finds f only then.
    """

    p: int
    degree: int
    primes: tuple[PrimeAbove, ...]

    def __post_init__(self) -> None:
        total = sum(q.e * q.f for q in self.primes)
        if total != self.degree:
            raise ValueError(
                f"sum of e*f is {brief(total)}, must equal the field degree "
                f"{brief(self.degree)}"
            )
        # derived values, not fields; the class is frozen, so set in __dict__
        ones = tuple((i, q) for i, q in enumerate(self.primes) if q.f == 1)
        self.__dict__.update(count=len(self.primes), degree_one=ones)

    def __getattr__(self, name: str):
        # reached only while a cyclotomic splitting has not built its primes
        shape = self.__dict__.get("_shape")
        if name not in ("count", "primes") or shape is None:
            raise AttributeError(name)
        e, s = shape  # f is the order of p mod s, found from phi(s) = degree / e
        f = multiplicative_order(self.p, s, self.degree // e)
        primes = _uniform_primes(self.p, self.degree, e, f)
        self.__dict__.update(count=len(primes), primes=primes)
        return self.__dict__[name]

    def ef_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((q.e, q.f) for q in self.primes))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "primes": [
                {"e": q.e, "f": q.f, "label": q.label} for q in self.primes
            ],
        }

    @classmethod
    def uniform(cls, p: int, degree: int, e: int, f: int) -> "SplittingData":
        """p splits into degree / (e f) primes that all share (e, f), as in
        a Galois field or a cyclotomic one; they are labelled "(p, #i of k)".
        Up to degree primes are built at once, so degree is bounded by
        CYCLOTOMIC_LIMIT, which no cyclotomic degree phi(n) exceeds."""
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {brief(degree)}")
        if degree > CYCLOTOMIC_LIMIT:
            raise ValueError(
                f"|degree| must be at most {CYCLOTOMIC_LIMIT}, got {brief(degree)}"
            )
        if e < 1 or f < 1 or degree % (e * f):
            raise ValueError(
                f"invalid decomposition at {brief(p)}: e*f = {brief(e)}*{brief(f)} "
                f"must divide n = {brief(degree)}"
            )
        return cls(p, degree, _uniform_primes(p, degree, e, f))

    @classmethod
    def _unread(cls, p: int, degree: int, e: int, s: int) -> "SplittingData":
        """p splits into primes that share (e, f) with f > 1 the order of p
        mod s, so that no summand reads them; count and primes are built by
        __getattr__."""
        out = object.__new__(cls)
        out.__dict__.update(p=p, degree=degree, degree_one=(), _shape=(e, s))
        return out


def _uniform_primes(p: int, degree: int, e: int, f: int) -> tuple[PrimeAbove, ...]:
    count = degree // (e * f)
    return tuple(
        PrimeAbove(p, e, f, f"({p}, #{i + 1} of {count})") for i in range(count)
    )


@dataclass(frozen=True)
class Signature:
    """Real and complex place counts of a number field."""

    r1: int
    r2: int

    def __post_init__(self) -> None:
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError(f"negative signature ({brief(self.r1)}, {brief(self.r2)})")

    @property
    def infinite_places(self) -> int:
        return self.r1 + self.r2


# ---------------------------------------------------------------------------
# splitting by Dedekind's criterion


def dedekind_split(f: IntPoly, p: int) -> SplittingData:
    """Factorization shape of p in the maximal order, via f mod p.

    Requires Z[x]/(f) to be p-maximal; Dedekind's criterion is checked
    (dedekind_obstruction) and a failure raises NotPMaximalError rather than
    returning wrong (e, f) data.
    Labels name the ideals (p, g_i(theta)) by their generator polynomials.
    """
    _check_p(p)
    if not f.is_monic or f.degree < 1:
        raise ValueError(
            f"need a monic polynomial of degree >= 1: {brief_poly(f, repr)}"
        )
    factors = factor_mod_p(ModPoly(p, f.coeffs))
    return _split_or_refuse(f, p, factors, dedekind_obstruction(f, p, factors))


def _split_or_refuse(
    f: IntPoly, p: int, factors: list[tuple[ModPoly, int]], obstruction: ModPoly
) -> SplittingData:
    """The splitting of p read off f mod p = prod g_i^e_i, or NotPMaximalError
    when Dedekind's obstruction is not 1."""
    if obstruction.coeffs != (1,):
        raise NotPMaximalError(p, f, obstruction)
    primes = tuple(
        PrimeAbove(p, e, gbar.degree, f"({p}, {gbar})") for gbar, e in factors
    )
    return SplittingData(p, f.degree, primes)


def quadratic_min_poly(d: int) -> IntPoly:
    """Minimal polynomial of the standard integral generator of Q(sqrt(d)).

    x^2 - x + (1-d)/4 when d = 1 mod 4 (generator (1+sqrt(d))/2), else x^2 - d.
    Using x^2 - d for d = 1 mod 4 would describe an index-2 subring and give
    wrong splitting at 2.
    """
    _check_radicand(d)
    if d % 4 == 1:
        return IntPoly(((1 - d) // 4, -1, 1))
    return IntPoly((-d, 0, 1))


# ---------------------------------------------------------------------------
# field forms


# The splittings every form of a kind shares, built once: p = 2 and p = 3
# each decompose in one of three ways in a quadratic field, and F_2(t) and
# F_3(t) have two and three places t - a.
_QUADRATIC_SPLITS = {
    (p, kind): SplittingData(p, 2, primes)
    for p in (2, 3)
    for kind, primes in (
        ("inert", (PrimeAbove(p, 1, 2, f"({p}, inert)"),)),
        ("split", tuple(PrimeAbove(p, 1, 1, f"({p}, split #{i})") for i in (1, 2))),
        ("ramified", (PrimeAbove(p, 2, 1, f"({p}, ramified)"),)),
    )
}
_QUADRATIC_PAIRS = {
    (two, three): (_QUADRATIC_SPLITS[2, two], _QUADRATIC_SPLITS[3, three])
    for two in ("inert", "split", "ramified")
    for three in ("inert", "split", "ramified")
}
_RATIONAL_FUNCTION_SPLITS = {
    q: tuple(
        SplittingData(q, 1, (PrimeAbove(q, 1, 1, label),))
        for label in ("(t)", "(t-1)", "(t-2)")[:q]
    )
    for q in (2, 3)
}
_RATIONAL_SPLITS = {
    p: SplittingData(p, 1, (PrimeAbove(p, 1, 1, f"({p})"),)) for p in (2, 3)
}
_RATIONAL = Signature(1, 0)
_REAL_QUADRATIC = Signature(2, 0)
_IMAGINARY_QUADRATIC = Signature(0, 1)


def quadratic_splits(d: int) -> tuple[SplittingData, SplittingData]:
    """The splittings of 2 and 3 in Q(sqrt(d)), d squarefree, read off d's
    residues.  p = 2: inert when d = 5 mod 8, split when d = 1 mod 8, ramified
    otherwise.  p = 3: inert when d = 2 mod 3, split when d = 1 mod 3,
    ramified when 3 | d.  The pair is one of nine built once, so that two
    radicands that split alike get the same pair object."""
    r = d % 8
    two = "inert" if r == 5 else "split" if r == 1 else "ramified"
    r = d % 3
    three = "inert" if r == 2 else "split" if r == 1 else "ramified"
    return _QUADRATIC_PAIRS[two, three]


class NumberField:
    """Base of the number-field forms.

    Each form gives its degree, its signature and split_at(p) for p = 2, 3;
    route names the splitting rule it uses.
    """

    characteristic = 0
    route = "Main"

    @property
    def infinite_places(self) -> int:
        return self.signature.infinite_places

    def splittings(self) -> tuple[SplittingData, ...]:
        return (self.split_at(2), self.split_at(3))


@dataclass(frozen=True)
class FunctionField:
    """Base of the function-field forms, extensions of F_q(t) for a prime
    power q <= INTEGER_LIMIT.

    Each form gives q, its degree, infinite_places and splittings(): the
    decomposition of the degree-one places t - a that can contribute.
    """

    characteristic: int = field(init=False, repr=False, compare=False)
    route = "main2"

    def __post_init__(self) -> None:
        check_limit(self.q, INTEGER_LIMIT, "q")
        pw = is_prime_power(self.q)
        if pw is None:
            raise ValueError(f"q must be a prime power, got {self.q}")
        object.__setattr__(self, "characteristic", pw[0])


@dataclass(frozen=True)
class Rational(NumberField):
    """The field Q."""

    degree = 1
    signature = _RATIONAL

    def split_at(self, p: int) -> SplittingData:
        _check_p(p)
        return _RATIONAL_SPLITS[p]

    def to_json(self) -> dict:
        return {"kind": "rational"}

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class Quadratic(NumberField):
    """Q(sqrt(d)) for squarefree d not in {0, 1}, |d| <= INTEGER_LIMIT."""

    d: int
    degree = 2
    route = "quadratic"

    def __post_init__(self) -> None:
        _check_radicand(self.d)

    @property
    def signature(self) -> Signature:
        return _REAL_QUADRATIC if self.d > 0 else _IMAGINARY_QUADRATIC

    def split_at(self, p: int) -> SplittingData:
        _check_p(p)
        return quadratic_splits(self.d)[p - 2]

    def to_json(self) -> dict:
        return {"kind": "quadratic", "d": self.d}

    def __str__(self) -> str:
        return f"Q(sqrt({self.d}))"


@dataclass(frozen=True)
class Cyclotomic(NumberField):
    """Q(zeta_n) for 1 <= n <= CYCLOTOMIC_LIMIT.

    n = 2 mod 4 gives the same field as n/2, so forms compare by that
    normalized n; the normalized n, its factorization and the degree phi(n)
    are computed once, on construction, and the signature when it is read.
    """

    n: int = field(compare=False)
    normalized: int = field(init=False, repr=False)
    degree: int = field(init=False, repr=False, compare=False)
    factors: dict[int, int] = field(init=False, repr=False, compare=False)
    route = "cyclotomic"

    def __post_init__(self) -> None:
        check_limit(self.n, CYCLOTOMIC_LIMIT, "n")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        normalized = self.n // 2 if self.n % 4 == 2 else self.n
        factors = factorint(normalized)
        degree = euler_phi_factored(factors)
        self.__dict__.update(  # the class is frozen; set the derived fields
            normalized=normalized, factors=factors, degree=degree
        )

    @cached_property
    def signature(self) -> Signature:
        """Q(zeta_1) = Q(zeta_2) = Q; every other Q(zeta_n) is totally
        imaginary.  Built when read: compute() reads it only below degree 3."""
        return _RATIONAL if self.normalized <= 2 else Signature(0, self.degree // 2)

    def split_at(self, p: int) -> SplittingData:
        """e = phi(p^a) and f = the order of p mod s, writing the normalized
        n as p^a s with p not dividing s; the phi(n) / (e f) primes above p
        all share (e, f).  Unless p = 1 mod s, f > 1 is found from phi(s) =
        phi(n) / e only when the primes are read, as no summand reads them."""
        _check_p(p)
        return self._split(p)

    def splittings(self) -> tuple[SplittingData, ...]:
        return self._split(2), self._split(3)  # p needs no check

    def _split(self, p: int) -> SplittingData:
        pa = p ** self.factors.get(p, 0)
        e = pa - pa // p  # phi(p^a), 1 when a = 0
        s = self.normalized // pa
        if p % s == 1 % s:
            return SplittingData.uniform(p, self.degree, e, 1)
        return SplittingData._unread(p, self.degree, e, s)

    def to_json(self) -> dict:
        return {"kind": "cyclotomic", "n": self.n}

    def __str__(self) -> str:
        return f"Q(zeta_{self.n})"


@dataclass(frozen=True)
class GeneralPoly(NumberField):
    """Q[x]/(f) for monic f irreducible over Q (checked on construction), of
    degree <= POLY_DEGREE_LIMIT with |coefficients| <= POLY_COEFFICIENT_LIMIT.

    The ring used downstream is Z[x]/(f), split at 2 and 3 by the Dedekind
    criterion on construction: f is factored mod 2 and mod 3 once, and the
    criterion read once per prime.  The irreducibility check reads those
    factorizations and, at each of 2 and 3 where the criterion holds, the
    degrees e_i deg g_i of f's irreducible factors over Q_p that it gives
    (dedekind_obstruction); often they alone leave no degree for a proper
    factor, and nothing is lifted.  A reducible f raises ValueError; then
    NotPMaximalError is raised at the first of 2 and 3 where Z[theta] is not
    maximal.  A form that is built keeps both splittings, which split_at
    hands back.
    """

    poly: IntPoly
    splits: dict[int, SplittingData] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f = self.poly
        # the limits first, so that no message renders a polynomial past them
        check_limit(f.degree, POLY_DEGREE_LIMIT, "degree")
        for c in f.coeffs:
            check_limit(c, POLY_COEFFICIENT_LIMIT, "coefficient")
        if not f.is_monic or f.degree < 1:
            shown = brief_poly(f, repr)
            raise ValueError(f"need a monic polynomial of degree >= 1: {shown}")
        factors = {p: factor_mod_p(ModPoly(p, f.coeffs)) for p in (2, 3)}
        obstruction = {p: dedekind_obstruction(f, p, factors[p]) for p in (2, 3)}
        local_degrees = {
            p: [e * g.degree for g, e in factors[p]]
            for p in (2, 3) if obstruction[p].coeffs == (1,)
        }
        if not irreducible_over_q_check(f, factors, local_degrees):
            raise ValueError(
                f"{brief_poly(f)} is reducible over Q and does not define a field"
            )
        splits = {p: _split_or_refuse(f, p, factors[p], obstruction[p]) for p in (2, 3)}
        object.__setattr__(self, "splits", splits)

    @property
    def degree(self) -> int:
        return self.poly.degree

    @cached_property
    def signature(self) -> Signature:
        """(r1, r2), with r1 counted by a Sturm sequence once per form, when
        read: compute() reads it only below degree 3, and the text report."""
        r1 = sturm_real_roots(self.poly)
        return Signature(r1, (self.poly.degree - r1) // 2)

    def split_at(self, p: int) -> SplittingData:
        _check_p(p)
        return self.splits[p]

    def to_json(self) -> dict:
        return {"kind": "poly", "coefficients": list(self.poly.coeffs)}

    def __str__(self) -> str:
        return f"Q[x]/({self.poly})"


@dataclass(frozen=True)
class UserNumberField(NumberField):
    """A number field given by its degree, signature and the splitting of 2
    and 3, for instance a Galois field through SplittingData.uniform."""

    degree: int
    signature: Signature
    split2: SplittingData
    split3: SplittingData

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {brief(self.degree)}")
        sig = self.signature
        if sig.r1 + 2 * sig.r2 != self.degree:
            raise ValueError(
                f"signature ({brief(sig.r1)}, {brief(sig.r2)}) does not match "
                f"degree {brief(self.degree)}"
            )
        if self.split2.p != 2 or self.split3.p != 3:
            raise ValueError("split2 must split 2 and split3 must split 3")
        for sp in (self.split2, self.split3):
            if sp.degree != self.degree:
                raise ValueError("splitting degree mismatch")

    def split_at(self, p: int) -> SplittingData:
        _check_p(p)
        return self.split2 if p == 2 else self.split3

    def to_json(self) -> dict:
        return {
            "kind": "user",
            "degree": self.degree,
            "signature": {"r1": self.signature.r1, "r2": self.signature.r2},
            "split2": self.split2.to_json(),
            "split3": self.split3.to_json(),
        }

    def __str__(self) -> str:
        return f"user-supplied field of degree {self.degree}"


@dataclass(frozen=True)
class RationalFunction(FunctionField):
    """F_q(t) for a prime power q."""

    q: int
    degree = 1
    infinite_places = 1

    def splittings(self) -> tuple[SplittingData, ...]:
        """The degree-one places t - a whose residue field is F_2 or F_3.

        The residue field at t - a is F_q, so only q = 2 and q = 3 have any;
        for q >= 4 there are none and the structure results are trivial.
        """
        return _RATIONAL_FUNCTION_SPLITS.get(self.q, ())

    def to_json(self) -> dict:
        return {"kind": "function_field", "q": self.q}

    def __str__(self) -> str:
        return f"F_{self.q}(t)"


@dataclass(frozen=True)
class UserFunctionField(FunctionField):
    """A degree-n extension of F_q(t) given by split_t, the decomposition of
    each degree-one place t - a that matters; infinite_places counts the
    places at infinity (1 for F_q(t) itself)."""

    degree: int
    q: int
    split_t: tuple[SplittingData, ...] = ()
    infinite_places: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {brief(self.degree)}")
        if any(sp.degree != self.degree for sp in self.split_t):
            raise ValueError("split_t degree mismatch")
        if self.infinite_places < 1:
            raise ValueError("need at least one infinite place")

    def splittings(self) -> tuple[SplittingData, ...]:
        return self.split_t

    def to_json(self) -> dict:
        return {
            "kind": "user",
            "degree": self.degree,
            "q": self.q,
            "infinite_places": self.infinite_places,
            "split_t": [sp.to_json() for sp in self.split_t],
        }

    def __str__(self) -> str:
        return f"user-supplied field of degree {self.degree}"


FieldSpec = Union[NumberField, FunctionField]
