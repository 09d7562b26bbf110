"""Structure formulas for the abelianization of SL2 over rings of S-integers.

With infinitely many units (|S| >= 2), the abelianization is determined by
which primes above 2 and 3 survive outside S: a prime above 2 with residue
field F_2 contributes Z/4 when unramified and Z/2 + Z/2 when ramified, and a
prime above 3 with residue field F_3 contributes Z/3.  Everything else
contributes nothing.  In characteristic p the 2-adic contribution flattens to
Z/2 + Z/2 and only residue-degree-one places over t - a matter.  When the
unit group is finite the formulas do not apply and only a short ledger of
known literature values is available.

compute() is the one route from a field form plus S to a group: it lists
the contribution of each surviving prime once and takes their direct sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroup import AbelianGroup, direct_sum
from .polyarith import (
    INTEGER_LIMIT,
    brief,
    check_limit,
    factorint,
)
from .splitting import Cyclotomic, FieldSpec, Quadratic, Rational, SplittingData


class FiniteUnitsError(Exception):
    """The unit group is finite (|S| < 2) and no known case covers the input."""


_Z4 = AbelianGroup(0, (4,))
_V4 = AbelianGroup(0, (2, 2))
_Z3 = AbelianGroup(0, (3,))


@dataclass(frozen=True)
class SSet:
    """Finite part of S: removed primes above 2/3 (by index into the splitting)
    plus a count, at most INTEGER_LIMIT, of other inverted finite primes.  The
    infinite places are always in S and are counted separately by the caller."""

    removed_above_2: frozenset[int] = frozenset()
    removed_above_3: frozenset[int] = frozenset()
    other_finite_primes: int = 0

    def __post_init__(self) -> None:
        if self.other_finite_primes < 0:
            raise ValueError("other_finite_primes must be >= 0")
        check_limit(self.other_finite_primes, INTEGER_LIMIT, "other_finite_primes")
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


EMPTY_S = SSet()
# the index sets of Z[1/n]: Q has one prime above 2 and one above 3
_NO_PRIME: frozenset[int] = frozenset()
_FIRST_PRIME = frozenset({0})

# Each inverted integer is factored by trial division, about 0.07 s near
# 10^12, so the number of them is bounded as well as their size.
INVERTED_COUNT_LIMIT = 32


def s_for_inverted(*ns: int) -> SSet:
    """S-set of Z[1/(n1 n2 ...)]: the rational primes dividing any of the
    given integers, sorted into the slots the structure formulas read (2 and
    3 by index, the rest by count).  Each integer must lie in [2, 10^12],
    and at most INVERTED_COUNT_LIMIT are given."""
    check_limit(len(ns), INVERTED_COUNT_LIMIT, "number of integers")
    ps: set[int] = set()
    for n in ns:
        if n < 2:
            raise ValueError(f"need integers >= 2, got {brief(n)}")
        check_limit(n, INTEGER_LIMIT, "n")
        ps.update(factorint(n))
    two, three = 2 in ps, 3 in ps
    return SSet(
        removed_above_2=_FIRST_PRIME if two else _NO_PRIME,
        removed_above_3=_FIRST_PRIME if three else _NO_PRIME,
        other_finite_primes=len(ps) - two - three,
    )


@dataclass(frozen=True)
class Contribution:
    prime: str
    group: AbelianGroup

    @property
    def summand(self) -> str:
        """The summand's name, such as "Z/4" or "(Z/2)^2"."""
        return self.group.primary_str()


@dataclass(frozen=True)
class ComputeOutcome:
    field: FieldSpec
    s: SSet
    group: AbelianGroup
    route: str
    contributions: tuple[Contribution, ...] = ()
    warnings: tuple[str, ...] = ()
    splittings: tuple[SplittingData, ...] = ()

    def to_json(self) -> dict:
        """The document `compute --json` prints: the input, the result and
        the splitting data it came from."""
        return {
            "input": {"field": self.field.to_json(), "s": self.s.to_json()},
            "route": self.route,
            "group": self.group.to_json(),
            "contributions": [
                {"prime": c.prime, "summand": c.summand} for c in self.contributions
            ],
            "warnings": list(self.warnings),
            "splittings": [sp.to_json() for sp in self.splittings],
        }


def _contributions(
    spec: FieldSpec, splittings: tuple[SplittingData, ...], s: SSet
) -> tuple[Contribution, ...]:
    """One summand per prime outside S whose residue field is F_2 or F_3.

    In characteristic 0 the removal indices count the primes above 2 and
    above 3 separately; in characteristic p they count all listed places, in
    the slot of the characteristic.  Only the counts and the primes of
    inertia degree one are read.
    """
    char = spec.characteristic
    if char:
        removed = ((2, s.removed_above_2), (3, s.removed_above_3))
        wrong = [p for p, idx in removed if idx and p != char]
        if wrong:
            fix = f"use slot {char}" if char in (2, 3) else "no place is removable"
            raise ValueError(
                f"removal indexes in slot {wrong[0]} do not apply in characteristic "
                f"{char} ({fix})"
            )
        ones, count = [], 0
        for sp in splittings:  # the places of all splittings, numbered in turn
            ones += [(count + i, prime) for i, prime in sp.degree_one]
            count += sp.count
        slots = [(char, count, ones)]
    else:
        slots = [(sp.p, sp.count, sp.degree_one) for sp in splittings]
    out: list[Contribution] = []
    for p, count, ones in slots:
        gone = s.removed_above_2 if p == 2 else s.removed_above_3 if p == 3 else ()
        if gone and max(gone) >= count:
            noun = "relevant place(s)" if char else f"prime(s) above {p}"
            raise ValueError(
                f"removal index {brief(max(gone))} out of range: only {count} {noun}"
            )
        residue = spec.q if char else p  # residue field size when f = 1
        if not ones or residue > 3:
            continue
        for idx, prime in ones:
            if idx in gone:
                continue
            if residue == 3:
                summand = _Z3
            elif char == 0 and prime.e == 1:
                summand = _Z4
            else:  # ramified above 2, or characteristic 2
                summand = _V4
            out.append(Contribution(prime.label, summand))
    return tuple(out)


# Literature values for the finite-units rings, keyed by the literal field
# form, so a GeneralPoly defining Q(i) is not among them (forms of Q(zeta_n)
# compare by the normalized n, so Cyclotomic(2) finds Cyclotomic(1)).
_KNOWN_CASES: dict[FieldSpec, AbelianGroup] = {
    Rational(): AbelianGroup(0, (12,)),
    Cyclotomic(1): AbelianGroup(0, (12,)),
    Cyclotomic(4): AbelianGroup(0, (2, 2)),
    Cyclotomic(3): AbelianGroup(0, (3,)),
    Quadratic(-1): AbelianGroup(0, (2, 2)),
    Quadratic(-3): AbelianGroup(0, (3,)),
    Quadratic(-15): AbelianGroup(2, (12,)),
}


def compute(field: FieldSpec, s: SSet = EMPTY_S) -> ComputeOutcome:
    """Full pipeline: split 2 and 3 (or the t - a places), gate on the unit
    rank (by Dirichlet the S-units are infinite iff |S| >= 2), and take the
    direct sum of the per-prime contributions.  Below the gate a known case
    comes back on route "known-case", with a warning.

    Raises FiniteUnitsError when the unit group is finite and no known case
    applies, NotPMaximalError when a polynomial form is not 2- or 3-maximal,
    and ValueError for invalid inputs.
    """
    splittings = field.splittings()
    infinite = field.infinite_places
    if infinite + s.finite_count < 2:
        # every field has an infinite place, so here S has no finite prime
        known = _KNOWN_CASES.get(field)
        if known is None:
            raise FiniteUnitsError(
                "infinitely many units are required (|S| >= 2), but |S| = "
                f"{infinite + s.finite_count} ({infinite} infinite place(s), "
                f"{s.finite_count} finite); no known case covers this ring"
            )
        warning = (
            "the unit group is finite (|S| >= 2 fails); reporting a known "
            "literature value, not a structure-formula result"
        )
        return ComputeOutcome(field, s, known, "known-case", (), (warning,), splittings)
    contributions = _contributions(field, splittings, s)
    group = direct_sum(*[c.group for c in contributions])
    return ComputeOutcome(field, s, group, field.route, contributions, (), splittings)
