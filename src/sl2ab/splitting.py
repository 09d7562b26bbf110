"""Splitting of the rational primes 2 and 3 in rings of integers.

The group-structure formulas downstream consume only the multiset of
(ramification index e, inertia degree f) pairs above 2 and above 3, bundled
here as SplittingData.  Three independent routes produce it: the Dedekind
criterion on a defining polynomial, congruence rules for quadratic fields,
and the closed form for cyclotomic fields.  The routes double-check each
other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .polyarith import (
    IntPoly,
    ModPoly,
    euler_phi,
    factor_mod_p,
    is_prime_power,
    is_squarefree,
    multiplicative_order,
    sturm_real_roots,
)


class NotPMaximalError(Exception):
    """Z[theta] is not maximal at p, so the factorization of p is unreliable.

    Recoverable by supplying explicit splitting data or a special field form.
    """

    def __init__(self, p: int, poly: IntPoly, obstruction: ModPoly):
        self.p = p
        self.poly = poly
        self.obstruction = obstruction
        super().__init__(
            f"Z[x]/({poly}) is not maximal at {p} "
            f"(Dedekind criterion obstruction: {obstruction}); "
            "supply explicit splitting data or use a quadratic/cyclotomic form"
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
            raise ValueError(f"e and f must be >= 1, got e={self.e} f={self.f}")


@dataclass(frozen=True)
class SplittingData:
    """Decomposition of one rational prime in a degree-n field."""

    p: int
    degree: int
    primes: tuple[PrimeAbove, ...]

    def __post_init__(self) -> None:
        total = sum(q.e * q.f for q in self.primes)
        if total != self.degree:
            raise ValueError(
                f"sum of e*f is {total}, must equal the field degree {self.degree}"
            )

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
    def from_json(cls, data: Mapping) -> "SplittingData":
        p = data["p"]
        primes = tuple(
            PrimeAbove(p, q["e"], q["f"], q["label"]) for q in data["primes"]
        )
        return cls(p, sum(q.e * q.f for q in primes), primes)


@dataclass(frozen=True)
class Signature:
    """Real and complex place counts of a number field."""

    r1: int
    r2: int

    def __post_init__(self) -> None:
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError(f"negative signature ({self.r1}, {self.r2})")

    @property
    def infinite_places(self) -> int:
        return self.r1 + self.r2


# ---------------------------------------------------------------------------
# field descriptions


@dataclass(frozen=True)
class Rational:
    """The field Q."""


@dataclass(frozen=True)
class Quadratic:
    """Q(sqrt(d)) for squarefree d not in {0, 1}."""

    d: int

    def __post_init__(self) -> None:
        if self.d in (0, 1) or not is_squarefree(self.d):
            raise ValueError(f"radicand must be squarefree and not 0 or 1: {self.d}")


@dataclass(frozen=True)
class Cyclotomic:
    """Q(zeta_n), n >= 1.  n = 2 mod 4 is normalized to n/2 internally."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")


@dataclass(frozen=True)
class GeneralPoly:
    """Q[x]/(f) for monic f; compute() rejects an f reducible over Q.

    The ring used downstream is Z[x]/(f); splitting at 2 and 3 goes through
    the Dedekind criterion and fails loudly when Z[theta] is not maximal there.
    """

    poly: IntPoly

    def __post_init__(self) -> None:
        if not self.poly.is_monic or self.poly.degree < 1:
            raise ValueError(f"need a monic polynomial of degree >= 1: {self.poly!r}")


@dataclass(frozen=True)
class RationalFunction:
    """F_q(t) for a prime power q."""

    q: int

    def __post_init__(self) -> None:
        if is_prime_power(self.q) is None:
            raise ValueError(f"q must be a prime power, got {self.q}")

    @property
    def characteristic(self) -> int:
        pw = is_prime_power(self.q)
        assert pw is not None
        return pw[0]


@dataclass(frozen=True)
class UserSupplied:
    """Explicitly given degree, signature/characteristic, and splitting data.

    Number-field case: signature, split2 and split3 are required.  Function-
    field case: q is required and split_t lists the decomposition of each
    degree-one place t - a that matters; infinite_places counts the places at
    infinity (1 for F_q(t) itself).
    """

    degree: int
    signature_: Signature | None = None
    q: int | None = None
    split2: SplittingData | None = None
    split3: SplittingData | None = None
    split_t: tuple[SplittingData, ...] = ()
    infinite_places: int = 1

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if (self.q is None) == (self.signature_ is None):
            raise ValueError("give exactly one of signature (char 0) or q (char p)")
        if self.q is not None:
            if is_prime_power(self.q) is None:
                raise ValueError(f"q must be a prime power, got {self.q}")
            for sp in self.split_t:
                if sp.degree != self.degree:
                    raise ValueError("split_t degree mismatch")
            if self.infinite_places < 1:
                raise ValueError("need at least one infinite place")
        else:
            sig = self.signature_
            assert sig is not None
            if sig.r1 + 2 * sig.r2 != self.degree:
                raise ValueError(
                    f"signature ({sig.r1}, {sig.r2}) does not match degree {self.degree}"
                )
            if self.split2 is None or self.split3 is None:
                raise ValueError("char-0 user spec needs split2 and split3")
            for sp in (self.split2, self.split3):
                if sp.degree != self.degree:
                    raise ValueError("splitting degree mismatch")


FieldSpec = Union[
    Rational, Quadratic, Cyclotomic, GeneralPoly, RationalFunction, UserSupplied
]


# ---------------------------------------------------------------------------
# Dedekind's criterion


def dedekind_split(f: IntPoly, p: int) -> SplittingData:
    """Factorization shape of p in the maximal order, via f mod p.

    Requires Z[x]/(f) to be p-maximal; the Dedekind criterion is checked and a
    failure raises NotPMaximalError rather than returning wrong (e, f) data.
    Labels name the ideals (p, g_i(theta)) by their generator polynomials.
    """
    if p not in (2, 3):
        raise ValueError(f"splitting is computed at p in {{2, 3}} only, got {p}")
    if not f.is_monic or f.degree < 1:
        raise ValueError(f"need a monic polynomial of degree >= 1: {f!r}")
    fbar = f.reduce_mod(p)
    factors = factor_mod_p(fbar)
    radical = ModPoly.one(p)
    cofactor = ModPoly.one(p)
    for gbar, e in factors:
        radical = radical * gbar
        for _ in range(e - 1):
            cofactor = cofactor * gbar
    g_lift = radical.lift()
    h_lift = cofactor.lift()
    t_poly = (g_lift * h_lift - f).scale_div(p)
    common = t_poly.reduce_mod(p).gcd(radical).gcd(cofactor)
    if common.degree != 0:
        raise NotPMaximalError(p, f, common)
    primes = tuple(
        PrimeAbove(p, e, gbar.degree, f"({p}, {gbar})") for gbar, e in factors
    )
    return SplittingData(p, f.degree, primes)


# ---------------------------------------------------------------------------
# quadratic fields, by congruence


def quadratic_min_poly(d: int) -> IntPoly:
    """Minimal polynomial of the standard integral generator of Q(sqrt(d)).

    x^2 - x + (1-d)/4 when d = 1 mod 4 (generator (1+sqrt(d))/2), else x^2 - d.
    Using x^2 - d for d = 1 mod 4 would describe an index-2 subring and give
    wrong splitting at 2.
    """
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError(f"radicand must be squarefree and not 0 or 1: {d}")
    if d % 4 == 1:
        return IntPoly(((1 - d) // 4, -1, 1))
    return IntPoly((-d, 0, 1))


def quadratic_split(d: int, p: int) -> SplittingData:
    """Splitting of p in Q(sqrt(d)) for p = 2, 3, by residue of d.

    p = 2: inert when d = 5 mod 8, split when d = 1 mod 8, ramified otherwise.
    p = 3: inert when d = 2 mod 3, split when d = 1 mod 3, ramified when 3 | d.
    """
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError(f"radicand must be squarefree and not 0 or 1: {d}")
    if p == 2:
        r = d % 8
        kind = "inert" if r == 5 else "split" if r == 1 else "ramified"
    elif p == 3:
        r = d % 3
        kind = "inert" if r == 2 else "split" if r == 1 else "ramified"
    else:
        raise ValueError(f"splitting is computed at p in {{2, 3}} only, got {p}")
    if kind == "inert":
        primes = (PrimeAbove(p, 1, 2, f"({p}, inert)"),)
    elif kind == "split":
        primes = (
            PrimeAbove(p, 1, 1, f"({p}, split #1)"),
            PrimeAbove(p, 1, 1, f"({p}, split #2)"),
        )
    else:
        primes = (PrimeAbove(p, 2, 1, f"({p}, ramified)"),)
    return SplittingData(p, 2, primes)


# ---------------------------------------------------------------------------
# cyclotomic fields, closed form


def _normalize_cyclotomic(n: int) -> int:
    """Q(zeta_n) = Q(zeta_{n/2}) when n = 2 mod 4."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n // 2 if n % 4 == 2 else n


def cyclotomic_split(n: int, p: int) -> SplittingData:
    """Splitting of p in Q(zeta_n): e = phi(p^a), f = ord of p mod the rest.

    Writing the normalized n as p^a * s with p not dividing s, there are
    phi(n) / (e f) primes above p, all with the same (e, f).
    """
    if p not in (2, 3):
        raise ValueError(f"splitting is computed at p in {{2, 3}} only, got {p}")
    n = _normalize_cyclotomic(n)
    degree = euler_phi(n)
    a = 0
    s = n
    while s % p == 0:
        a += 1
        s //= p
    e = euler_phi(p**a)
    f = multiplicative_order(p, s)
    count = degree // (e * f)
    primes = tuple(
        PrimeAbove(p, e, f, f"({p}, #{i + 1} of {count})") for i in range(count)
    )
    return SplittingData(p, degree, primes)


# ---------------------------------------------------------------------------
# rational function fields


def rational_function_split(q: int) -> list[SplittingData]:
    """The degree-one places t - a of F_q(t) whose residue field is F_2 or F_3.

    Only q = 2 and q = 3 have any (the residue field at t - a is F_q); for
    q >= 4 the list is empty and the structure results are trivial.
    """
    if is_prime_power(q) is None:
        raise ValueError(f"q must be a prime power, got {q}")
    if q > 3:
        return []
    labels = ["(t)", "(t-1)", "(t-2)"][:q]
    return [
        SplittingData(q, 1, (PrimeAbove(q, 1, 1, label),)) for label in labels
    ]


# ---------------------------------------------------------------------------
# dispatch over field specs


def field_degree(spec: FieldSpec) -> int:
    if isinstance(spec, Rational):
        return 1
    if isinstance(spec, Quadratic):
        return 2
    if isinstance(spec, Cyclotomic):
        return euler_phi(_normalize_cyclotomic(spec.n))
    if isinstance(spec, GeneralPoly):
        return spec.poly.degree
    if isinstance(spec, RationalFunction):
        return 1
    if isinstance(spec, UserSupplied):
        return spec.degree
    raise TypeError(f"not a field spec: {spec!r}")


def signature(spec: FieldSpec) -> Signature:
    """Signature (r1, r2) of a number-field spec.

    Rational function fields have no archimedean signature; asking is an error.
    For a general polynomial the real-root count comes from a Sturm chain.
    """
    if isinstance(spec, Rational):
        return Signature(1, 0)
    if isinstance(spec, Quadratic):
        return Signature(2, 0) if spec.d > 0 else Signature(0, 1)
    if isinstance(spec, Cyclotomic):
        n = _normalize_cyclotomic(spec.n)
        return Signature(1, 0) if n <= 2 else Signature(0, euler_phi(n) // 2)
    if isinstance(spec, GeneralPoly):
        r1 = sturm_real_roots(spec.poly)
        return Signature(r1, (spec.poly.degree - r1) // 2)
    if isinstance(spec, UserSupplied):
        if spec.signature_ is None:
            raise ValueError("char-p user spec has no archimedean signature")
        return spec.signature_
    if isinstance(spec, RationalFunction):
        raise ValueError("rational function fields have no archimedean signature")
    raise TypeError(f"not a field spec: {spec!r}")


def split_at(spec: FieldSpec, p: int) -> SplittingData:
    """SplittingData of p in the given number field (p = 2 or 3)."""
    if p not in (2, 3):
        raise ValueError(f"splitting is computed at p in {{2, 3}} only, got {p}")
    if isinstance(spec, Rational):
        return SplittingData(p, 1, (PrimeAbove(p, 1, 1, f"({p})"),))
    if isinstance(spec, Quadratic):
        return quadratic_split(spec.d, p)
    if isinstance(spec, Cyclotomic):
        return cyclotomic_split(spec.n, p)
    if isinstance(spec, GeneralPoly):
        return dedekind_split(spec.poly, p)
    if isinstance(spec, UserSupplied):
        if spec.q is not None:
            raise ValueError("char-p user spec splits at t - a places, not at 2 or 3")
        data = spec.split2 if p == 2 else spec.split3
        assert data is not None
        return data
    if isinstance(spec, RationalFunction):
        raise ValueError("use rational_function_split for function fields")
    raise TypeError(f"not a field spec: {spec!r}")


# ---------------------------------------------------------------------------
# JSON forms


def signature_to_json(sig: Signature) -> dict:
    return {"r1": sig.r1, "r2": sig.r2}


def field_spec_to_json(spec: FieldSpec) -> dict:
    if isinstance(spec, Rational):
        return {"kind": "rational"}
    if isinstance(spec, Quadratic):
        return {"kind": "quadratic", "d": spec.d}
    if isinstance(spec, Cyclotomic):
        return {"kind": "cyclotomic", "n": spec.n}
    if isinstance(spec, GeneralPoly):
        return {"kind": "poly", "coefficients": list(spec.poly.coeffs)}
    if isinstance(spec, RationalFunction):
        return {"kind": "function_field", "q": spec.q}
    if isinstance(spec, UserSupplied):
        out: dict = {"kind": "user", "degree": spec.degree}
        if spec.signature_ is not None:
            out["signature"] = signature_to_json(spec.signature_)
        if spec.q is not None:
            out["q"] = spec.q
            out["infinite_places"] = spec.infinite_places
        if spec.split2 is not None:
            out["split2"] = spec.split2.to_json()
        if spec.split3 is not None:
            out["split3"] = spec.split3.to_json()
        if spec.split_t:
            out["split_t"] = [sp.to_json() for sp in spec.split_t]
        return out
    raise TypeError(f"not a field spec: {spec!r}")


def field_spec_from_json(data: Mapping) -> FieldSpec:
    kind = data.get("kind")
    if kind == "rational":
        return Rational()
    if kind == "quadratic":
        return Quadratic(data["d"])
    if kind == "cyclotomic":
        return Cyclotomic(data["n"])
    if kind == "poly":
        return GeneralPoly(IntPoly(data["coefficients"]))
    if kind == "function_field":
        return RationalFunction(data["q"])
    if kind == "user":
        sig = data.get("signature")
        return UserSupplied(
            degree=data["degree"],
            signature_=Signature(sig["r1"], sig["r2"]) if sig else None,
            q=data.get("q"),
            split2=SplittingData.from_json(data["split2"]) if "split2" in data else None,
            split3=SplittingData.from_json(data["split3"]) if "split3" in data else None,
            split_t=tuple(
                SplittingData.from_json(sp) for sp in data.get("split_t", ())
            ),
            infinite_places=data.get("infinite_places", 1),
        )
    raise ValueError(f"unknown field spec kind: {kind!r}")
