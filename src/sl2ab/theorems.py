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
from functools import lru_cache
from typing import Collection, NamedTuple

from .abgroup import TRIVIAL_GROUP, AbelianGroup, direct_sum
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
        if (self.removed_above_2 or self.removed_above_3) and min(
            self.removed_above_2 | self.removed_above_3
        ) < 0:
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

# Each inverted integer is factored, about 1 ms near 10^12 at most, and the
# number of them is bounded as well as their size.
INVERTED_COUNT_LIMIT = 32
# S-sets of Z[1/n] kept by shape: one n <= 10^12 has at most 9 prime
# divisors besides 2 and 3, so its S-set has one of 2 * 2 * 10 shapes.
_INVERTED_SHAPE_CACHE_SIZE = 64


def s_for_inverted(*ns: int) -> SSet:
    """S-set of Z[1/(n1 n2 ...)]: the rational primes dividing any of the
    given integers, sorted into the slots the structure formulas read (2 and
    3 by index, the rest by count).  Each integer must lie in [2, 10^12],
    and at most INVERTED_COUNT_LIMIT are given.  The S-set is frozen and
    shared: every input of one shape (2 in S, 3 in S, the count of other
    primes) gets the same one."""
    check_limit(len(ns), INVERTED_COUNT_LIMIT, "number of integers")
    ps: set[int] = set()
    for n in ns:
        if n < 2:
            raise ValueError(f"need integers >= 2, got {brief(n)}")
        check_limit(n, INTEGER_LIMIT, "n")
        ps.update(factorint(n))
    return s_for_primes(ps)


def s_for_primes(ps: Collection[int]) -> SSet:
    """S-set of Z[1/m] from the distinct rational primes ps dividing m (a
    set, or the keys of a factorization), sorted as s_for_inverted sorts
    them, and as frozen and shared."""
    two, three = 2 in ps, 3 in ps
    return _inverted_shape(two, three, len(ps) - two - three)


@lru_cache(maxsize=_INVERTED_SHAPE_CACHE_SIZE)
def _inverted_shape(two: bool, three: bool, others: int) -> SSet:
    return SSet(
        _FIRST_PRIME if two else _NO_PRIME, _FIRST_PRIME if three else _NO_PRIME, others
    )


class Contribution(NamedTuple):
    prime: str
    group: AbelianGroup

    @property
    def summand(self) -> str:
        """The summand's name, such as "Z/4" or "(Z/2)^2"."""
        return self.group.primary_str()


class ComputeOutcome(NamedTuple):
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
    the slot of the characteristic.  Only the primes of inertia degree one
    are read, and a count only when a removal index is checked against it.
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
        gone = s.removed_above_2 if char == 2 else s.removed_above_3  # empty past 3
        _check_indices(gone, count, "relevant place(s)")
        if spec.q > 3:  # the residue field of a place t - a is F_q
            return ()
        summand = _Z3 if spec.q == 3 else _V4  # the 2-adic summand flattens
        return tuple(
            Contribution(prime.label, summand) for i, prime in ones if i not in gone
        )
    out: list[Contribution] = []
    for sp in splittings:  # at 2 and at 3, the residue field of f = 1 is F_p
        p = sp.p
        gone = s.removed_above_2 if p == 2 else s.removed_above_3
        if gone:  # a cyclotomic splitting counts its primes only when asked
            _check_indices(gone, sp.count, f"prime(s) above {p}")
        for i, prime in sp.degree_one:
            if i not in gone:  # ramified above 2: Z/2 + Z/2
                summand = _Z3 if p == 3 else _Z4 if prime.e == 1 else _V4
                out.append(Contribution(prime.label, summand))
    return tuple(out)


def _check_indices(gone: frozenset[int], count: int, noun: str) -> None:
    if gone and max(gone) >= count:
        raise ValueError(
            f"removal index {brief(max(gone))} out of range: only {count} {noun}"
        )


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

    Every field has an infinite place, so a finite prime in S opens the
    gate, as does degree n >= 3 in a number field (r1 + 2 r2 = n gives
    r1 + r2 >= 2), where a GeneralPoly's real roots go uncounted.  A function
    field's infinite places are read at any degree.

    Raises FiniteUnitsError when the unit group is finite and no known case
    applies, NotPMaximalError when a polynomial form is not 2- or 3-maximal,
    and ValueError for invalid inputs.
    """
    splittings = field.splittings()
    opened = s.finite_count or not field.characteristic and field.degree >= 3
    if not opened and (infinite := field.infinite_places) < 2:
        known = _KNOWN_CASES.get(field)
        if known is None:
            raise FiniteUnitsError(
                "infinitely many units are required (|S| >= 2), but |S| = "
                f"{infinite} ({infinite} infinite place(s), 0 finite); no known "
                "case covers this ring"
            )
        warning = (
            "the unit group is finite (|S| >= 2 fails); reporting a known "
            "literature value, not a structure-formula result"
        )
        return ComputeOutcome(field, s, known, "known-case", (), (warning,), splittings)
    contributions = _contributions(field, splittings, s)
    group = TRIVIAL_GROUP  # when no prime contributes, there is no sum to take
    if contributions:
        group = direct_sum(*[c.group for c in contributions])
    return ComputeOutcome(field, s, group, field.route, contributions, (), splittings)
