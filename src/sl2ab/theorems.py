"""Structure formulas for the abelianization of SL2 over rings of S-integers.

With infinitely many units (|S| >= 2), the abelianization is determined by
which primes above 2 and 3 survive outside S: a prime above 2 with residue
field F_2 contributes Z/4 when unramified and Z/2 + Z/2 when ramified, and a
prime above 3 with residue field F_3 contributes Z/3.  Everything else
contributes nothing.  In characteristic p the 2-adic contribution flattens to
Z/2 + Z/2 and only residue-degree-one places over t - a matter.  When the
unit group is finite the formulas do not apply and only a short ledger of
known literature values is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .abgroup import AbelianGroup, TRIVIAL_GROUP, direct_sum
from .polyarith import (
    euler_phi,
    irreducible_over_q_check,
    is_prime_power,
    is_squarefree,
    primes_dividing,
)
from .splitting import (
    Cyclotomic,
    FieldSpec,
    GeneralPoly,
    PrimeAbove,
    Quadratic,
    Rational,
    RationalFunction,
    Signature,
    SplittingData,
    UserSupplied,
    cyclotomic_split,
    quadratic_split,
    rational_function_split,
    signature,
    split_at,
    _normalize_cyclotomic,
)


class FiniteUnitsError(Exception):
    """The unit group is finite (|S| < 2) and no known case covers the input."""


_Z4 = AbelianGroup(0, (4,))
_V4 = AbelianGroup(0, (2, 2))
_Z3 = AbelianGroup(0, (3,))

_SUMMAND_STR = {_Z4: "Z/4", _V4: "(Z/2)^2", _Z3: "Z/3"}


@dataclass(frozen=True)
class SSet:
    """Finite part of S: removed primes above 2/3 (by index into the splitting)
    plus a count of other inverted finite primes.  The infinite places are
    always in S and are counted separately by the caller."""

    removed_above_2: frozenset[int] = frozenset()
    removed_above_3: frozenset[int] = frozenset()
    other_finite_primes: int = 0

    def __post_init__(self) -> None:
        if self.other_finite_primes < 0:
            raise ValueError("other_finite_primes must be >= 0")
        if any(i < 0 for i in self.removed_above_2 | self.removed_above_3):
            raise ValueError("removal indices must be >= 0")

    @property
    def finite_count(self) -> int:
        return (
            len(self.removed_above_2)
            + len(self.removed_above_3)
            + self.other_finite_primes
        )

    def to_json(self) -> dict:
        return {
            "removed_above_2": sorted(self.removed_above_2),
            "removed_above_3": sorted(self.removed_above_3),
            "other_finite_primes": self.other_finite_primes,
        }

    @classmethod
    def from_json(cls, data) -> "SSet":
        return cls(
            frozenset(data.get("removed_above_2", ())),
            frozenset(data.get("removed_above_3", ())),
            data.get("other_finite_primes", 0),
        )


EMPTY_S = SSet()


def s_for_inverted(n: int) -> SSet:
    """S-set of Z[1/n]: the rational primes dividing n, sorted into the slots
    the structure formulas read (2 and 3 by index, the rest by count)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    ps = primes_dividing(n)
    return SSet(
        removed_above_2=frozenset({0} if 2 in ps else ()),
        removed_above_3=frozenset({0} if 3 in ps else ()),
        other_finite_primes=sum(1 for p in ps if p > 3),
    )


@dataclass(frozen=True)
class BetaFlags:
    """Membership flags for the negative-quadratic form: beta = 0 means the
    prime is put into S (inverted), beta = 1 means it stays and contributes."""

    beta2: tuple[int, ...] = ()
    beta3: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.beta2 + self.beta3):
            raise ValueError("beta flags must be 0 or 1")


@dataclass(frozen=True)
class ArithmeticRingSpec:
    """A ring of S-integers: a field form plus the finite part of S."""

    field: FieldSpec
    s: SSet = EMPTY_S


@dataclass(frozen=True)
class Contribution:
    prime: str
    summand: str
    group: AbelianGroup


@dataclass(frozen=True)
class ComputeOutcome:
    group: AbelianGroup
    route: str
    contributions: tuple[Contribution, ...] = ()
    warnings: tuple[str, ...] = ()
    splittings: tuple[SplittingData, ...] = ()

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "contributions": [
                {"prime": c.prime, "summand": c.summand} for c in self.contributions
            ],
            "route": self.route,
        }


def units_infinite(sig: Signature, s: SSet) -> bool:
    """Dirichlet rank test: the S-unit group is infinite iff |S| >= 2."""
    return sig.infinite_places + s.finite_count >= 2


def _summand_char0(prime: PrimeAbove) -> AbelianGroup | None:
    if prime.p == 2 and prime.f == 1:
        return _Z4 if prime.e == 1 else _V4
    if prime.p == 3 and prime.f == 1:
        return _Z3
    return None


def _check_removals(split: SplittingData, removed: frozenset[int]) -> None:
    bad = [i for i in removed if i >= len(split.primes)]
    if bad:
        raise ValueError(
            f"removal index {bad[0]} out of range: only {len(split.primes)} "
            f"prime(s) above {split.p}"
        )


def _contributions_char0(
    split2: SplittingData, split3: SplittingData, s: SSet
) -> list[Contribution]:
    out: list[Contribution] = []
    for split, removed in (
        (split2, s.removed_above_2),
        (split3, s.removed_above_3),
    ):
        _check_removals(split, removed)
        for idx, prime in enumerate(split.primes):
            if idx in removed:
                continue
            summand = _summand_char0(prime)
            if summand is not None:
                out.append(Contribution(prime.label, _SUMMAND_STR[summand], summand))
    return out


def _direct_sum_all(groups: list[AbelianGroup]) -> AbelianGroup:
    return reduce(direct_sum, groups, TRIVIAL_GROUP)


def _finite_units_message(infinite_places: int, s: SSet) -> str:
    return (
        "infinitely many units are required (|S| >= 2), but |S| = "
        f"{infinite_places + s.finite_count} ({infinite_places} infinite place(s), "
        f"{s.finite_count} finite)"
    )


def sl2ab_char0(
    split2: SplittingData,
    split3: SplittingData,
    s: SSet = EMPTY_S,
    *,
    infinite_places: int,
) -> AbelianGroup:
    """Characteristic-0 structure formula from the splitting of 2 and 3.

    Each surviving prime above 2 with f = 1 contributes Z/4 (e = 1) or
    Z/2 + Z/2 (e > 1); each surviving prime above 3 with f = 1 contributes
    Z/3.  Needs infinitely many units, i.e. |S| >= 2; infinite_places is the
    number of archimedean places in S (a correct lower bound suffices, since
    only the comparison with 2 is read).
    """
    if split2.p != 2 or split3.p != 3:
        raise ValueError("pass the splitting of 2 then the splitting of 3")
    if infinite_places < 1:
        raise ValueError("a number field has at least one infinite place")
    if infinite_places + s.finite_count < 2:
        raise FiniteUnitsError(_finite_units_message(infinite_places, s))
    return _direct_sum_all([c.group for c in _contributions_char0(split2, split3, s)])


def _charp_contributions(
    q: int, places: list[SplittingData], s: SSet
) -> list[Contribution]:
    pw = is_prime_power(q)
    if pw is None:
        raise ValueError(f"q must be a prime power, got {q}")
    char = pw[0]
    if char == 2:
        removed, other_removed = s.removed_above_2, s.removed_above_3
        summand = _V4
    elif char == 3:
        removed, other_removed = s.removed_above_3, s.removed_above_2
        summand = _Z3
    else:
        removed, other_removed = frozenset(), s.removed_above_2 | s.removed_above_3
        summand = None
    if other_removed:
        raise ValueError(
            f"no removable places in the characteristic-{char} slot; "
            "count other S members via other_finite_primes"
        )
    primes = [prime for sp in places for prime in sp.primes]
    bad = [i for i in removed if i >= len(primes)]
    if bad:
        raise ValueError(
            f"removal index {bad[0]} out of range: only {len(primes)} relevant place(s)"
        )
    out: list[Contribution] = []
    if summand is None or q > 3:
        return out
    for idx, prime in enumerate(primes):
        if idx in removed or prime.f != 1:
            continue
        out.append(Contribution(prime.label, _SUMMAND_STR[summand], summand))
    return out


def sl2ab_charp(
    q: int,
    places: list[SplittingData],
    s: SSet = EMPTY_S,
    *,
    infinite_places: int = 1,
) -> AbelianGroup:
    """Characteristic-p structure formula over extensions of F_q(t).

    q = 2: each surviving residue-degree-one place over some t - a gives
    Z/2 + Z/2.  q = 3: each gives Z/3.  q >= 4: trivial.  Needs |S| >= 2,
    where S holds the infinite places plus all removed/other finite ones.
    """
    if infinite_places < 1:
        raise ValueError("need at least one infinite place")
    if infinite_places + s.finite_count < 2:
        raise FiniteUnitsError(_finite_units_message(infinite_places, s))
    return _direct_sum_all([c.group for c in _charp_contributions(q, places, s)])


def sl2ab_quadratic_positive(d: int) -> AbelianGroup:
    """Real quadratic ring of integers Z[...sqrt(d)], S = both infinite places.

    Derived live from the congruence splitting rules, never from a lookup
    table; the mod-24 table lives only in the verification suite.
    """
    if d <= 1 or not is_squarefree(d):
        raise ValueError(f"need squarefree d > 1, got {d}")
    return sl2ab_char0(
        quadratic_split(d, 2), quadratic_split(d, 3), EMPTY_S, infinite_places=2
    )


def sl2ab_quadratic_negative(
    d: int, flags: BetaFlags, extra_s_primes: int = 0
) -> AbelianGroup:
    """Imaginary quadratic S-integers with explicit membership flags.

    flags.beta2/beta3 give one 0/1 flag per prime above 2/3 in splitting
    order; 0 puts the prime into S.  extra_s_primes counts additional inverted
    primes not above 2 or 3.  |S| (one infinite place plus the inverted
    finite primes) must be at least 2.
    """
    if d >= 0 or not is_squarefree(d):
        raise ValueError(f"need squarefree d < 0, got {d}")
    split2 = quadratic_split(d, 2)
    split3 = quadratic_split(d, 3)
    if len(flags.beta2) != len(split2.primes):
        raise ValueError(
            f"{len(split2.primes)} prime(s) above 2, got {len(flags.beta2)} flag(s)"
        )
    if len(flags.beta3) != len(split3.primes):
        raise ValueError(
            f"{len(split3.primes)} prime(s) above 3, got {len(flags.beta3)} flag(s)"
        )
    s = SSet(
        frozenset(i for i, b in enumerate(flags.beta2) if b == 0),
        frozenset(i for i, b in enumerate(flags.beta3) if b == 0),
        extra_s_primes,
    )
    return sl2ab_char0(split2, split3, s, infinite_places=1)


def _galois_splittings(
    n: int, e2: int, f2: int, e3: int, f3: int
) -> tuple[SplittingData, SplittingData]:
    if n < 3:
        raise ValueError(f"need degree n >= 3, got {n}")
    for p, e, f in ((2, e2, f2), (3, e3, f3)):
        if e < 1 or f < 1 or n % (e * f):
            raise ValueError(
                f"invalid decomposition at {p}: e*f = {e}*{f} must divide n = {n}"
            )
    out = []
    for p, e, f in ((2, e2, f2), (3, e3, f3)):
        count = n // (e * f)
        out.append(
            SplittingData(
                p,
                n,
                tuple(
                    PrimeAbove(p, e, f, f"({p}, #{i + 1} of {count})")
                    for i in range(count)
                ),
            )
        )
    return out[0], out[1]


def sl2ab_galois(n: int, e2: int, f2: int, e3: int, f3: int) -> AbelianGroup:
    """Galois case: all primes above p share (e_p, f_p), so the shared pair
    determines everything.  Degree n >= 3 forces r1 + r2 >= ceil(n/2) >= 2,
    which is all the unit gate needs."""
    split2, split3 = _galois_splittings(n, e2, f2, e3, f3)
    return sl2ab_char0(split2, split3, EMPTY_S, infinite_places=(n + 1) // 2)


_KNOWN_RATIONAL = AbelianGroup(0, (12,))
_KNOWN_GAUSS = AbelianGroup(0, (2, 2))
_KNOWN_EISENSTEIN = AbelianGroup(0, (3,))
_KNOWN_MINUS_15 = AbelianGroup(2, (12,))


def sl2ab_cyclotomic(n: int) -> AbelianGroup:
    """Cyclotomic integers Z[zeta_n], S = the infinite places.

    n in {1, 2, 3, 4, 6} (after n = 2 mod 4 normalization: {1, 3, 4}) have
    finite unit groups and route to the known small cases; all other n go
    through the closed-form splitting and the characteristic-0 formula.
    """
    n = _normalize_cyclotomic(n)
    if n in (1, 2):
        return _KNOWN_RATIONAL
    if n == 4:
        return _KNOWN_GAUSS
    if n in (3, 6):
        return _KNOWN_EISENSTEIN
    return sl2ab_char0(
        cyclotomic_split(n, 2),
        cyclotomic_split(n, 3),
        EMPTY_S,
        infinite_places=euler_phi(n) // 2,
    )


def known_small_cases(spec: FieldSpec, s: SSet = EMPTY_S) -> AbelianGroup | None:
    """Literature values for the finite-units cases, keyed by field form.

    Covers exactly: Z (trivial S), the Gaussian and Eisenstein integers, and
    the d = -15 ring of integers.  Returns None ("not covered") otherwise;
    None is a value, not an error.  Matching is by the literal field form, so
    a GeneralPoly that happens to define Q(i) is not recognized.
    """
    if s.finite_count:
        return None
    if isinstance(spec, Rational):
        return _KNOWN_RATIONAL
    if isinstance(spec, Cyclotomic):
        n = _normalize_cyclotomic(spec.n)
        if n in (1, 2):
            return _KNOWN_RATIONAL
        if n == 4:
            return _KNOWN_GAUSS
        if n in (3, 6):
            return _KNOWN_EISENSTEIN
        return None
    if isinstance(spec, Quadratic):
        return {
            -1: _KNOWN_GAUSS,
            -3: _KNOWN_EISENSTEIN,
            -15: _KNOWN_MINUS_15,
        }.get(spec.d)
    return None


def _route_for(spec: FieldSpec) -> str:
    if isinstance(spec, Quadratic):
        return "quadratic"
    if isinstance(spec, Cyclotomic):
        return "cyclotomic"
    return "Main"


def compute(ring: ArithmeticRingSpec) -> ComputeOutcome:
    """Full pipeline: split 2 and 3 (or the t - a places), gate on the unit
    rank, and assemble the result with per-prime contributions.

    Raises FiniteUnitsError when the unit group is finite and no known case
    applies, NotPMaximalError when a polynomial form is not 2- or 3-maximal,
    and ValueError for invalid inputs, a polynomial reducible over Q among them.
    """
    spec = ring.field
    s = ring.s
    warnings: list[str] = []

    if isinstance(spec, RationalFunction) or (
        isinstance(spec, UserSupplied) and spec.q is not None
    ):
        if isinstance(spec, RationalFunction):
            q = spec.q
            places = rational_function_split(q)
            infinite = 1
        else:
            q = spec.q
            assert q is not None
            places = list(spec.split_t)
            infinite = spec.infinite_places
        contributions = _charp_contributions(q, places, s)
        group = sl2ab_charp(q, places, s, infinite_places=infinite)
        return ComputeOutcome(
            group=group,
            route="main2",
            contributions=tuple(contributions),
            warnings=tuple(warnings),
            splittings=tuple(places),
        )

    if isinstance(spec, GeneralPoly) and not irreducible_over_q_check(spec.poly):
        raise ValueError(
            f"{spec.poly} is reducible over Q and does not define a field"
        )

    sig = signature(spec)
    split2 = split_at(spec, 2)
    split3 = split_at(spec, 3)

    if not units_infinite(sig, s):
        known = known_small_cases(spec, s)
        if known is None:
            raise FiniteUnitsError(
                _finite_units_message(sig.infinite_places, s)
                + "; no known case covers this ring"
            )
        warnings.append(
            "the unit group is finite (|S| >= 2 fails); reporting a known "
            "literature value, not a structure-formula result"
        )
        return ComputeOutcome(
            group=known,
            route="known-case",
            contributions=(),
            warnings=tuple(warnings),
            splittings=(split2, split3),
        )

    contributions = _contributions_char0(split2, split3, s)
    group = sl2ab_char0(split2, split3, s, infinite_places=sig.infinite_places)
    return ComputeOutcome(
        group=group,
        route=_route_for(spec),
        contributions=tuple(contributions),
        warnings=tuple(warnings),
        splittings=(split2, split3),
    )


def galois_result(n: int, e2: int, f2: int, e3: int, f3: int) -> ComputeOutcome:
    """ComputeOutcome wrapper for the Galois case (route "Galois")."""
    split2, split3 = _galois_splittings(n, e2, f2, e3, f3)
    contributions = _contributions_char0(split2, split3, EMPTY_S)
    group = sl2ab_char0(split2, split3, EMPTY_S, infinite_places=(n + 1) // 2)
    return ComputeOutcome(
        group=group,
        route="Galois",
        contributions=tuple(contributions),
        splittings=(split2, split3),
    )
