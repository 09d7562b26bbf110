"""Finitely generated abelian groups in invariant-factor canonical form.

Every structure result in this package is expressed as an AbelianGroup: a free
rank plus a divisibility chain d1 | d2 | ... | dk of torsion coefficients, each
at least 2.  Two groups are isomorphic exactly when their canonical forms are
equal, so dataclass equality is isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .polyarith import INTEGER_LIMIT, brief, check_limit, factorint


@dataclass(frozen=True)
class AbelianGroup:
    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError(f"free rank must be >= 0, got {brief(self.free_rank)}")
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor must be >= 2, got {brief(d)}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(
                    f"not a divisibility chain: {brief(a)} does not divide {brief(b)}"
                )

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def exponent(self) -> int | None:
        """lcm of the invariant factors (1 for trivial); None when infinite."""
        if self.free_rank:
            return None
        return lcm(*self.torsion) if self.torsion else 1

    def primary_parts(self) -> tuple[tuple[int, int], ...]:
        """Torsion as a sorted multiset of prime powers (p, exponent)."""
        parts: list[tuple[int, int]] = []
        for d in self.torsion:
            check_limit(d, INTEGER_LIMIT, "invariant factor")  # before factorint
            parts.extend(factorint(d).items())
        return tuple(sorted(parts))

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "invariant_factors": list(self.torsion)}

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:  # the formulas share a few groups; tables print them
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"

    def primary_str(self) -> str:
        """Primary decomposition rendering, e.g. '(Z/4)^2 + Z/3'."""
        counts: dict[int, int] = {}
        for p, e in self.primary_parts():
            counts[p**e] = counts.get(p**e, 0) + 1
        parts = [
            f"(Z/{q})^{n}" if n > 1 else f"Z/{q}" for q, n in sorted(counts.items())
        ]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = AbelianGroup()


def canonicalize(factors: Iterable[int], free_rank: int = 0) -> AbelianGroup:
    """Canonical invariant-factor form of (+) Z/f over the given factors.

    Factors may arrive in any order and need not divide each other; they are
    split into prime powers and reassembled into a divisibility chain.  Any
    factor <= 1 is rejected (a trivial summand is expressed by omission), and
    so is any past INTEGER_LIMIT, which trial division would not finish.
    Results are memoized on the factor multiset and the free rank.
    """
    return _canonicalize(tuple(sorted(factors)), free_rank)


# The formulas' sums are multisets of 2, 3 and 4 with few distinct shapes,
# so a small cache holds them all; AbelianGroup is frozen, so sharing is safe.
_CANONICALIZE_CACHE_SIZE = 512


@lru_cache(maxsize=_CANONICALIZE_CACHE_SIZE)
def _canonicalize(factors: tuple[int, ...], free_rank: int) -> AbelianGroup:
    exps_by_prime: dict[int, list[int]] = {}
    for f in factors:
        if f < 2:
            raise ValueError(f"torsion factor must be >= 2, got {brief(f)}")
        check_limit(f, INTEGER_LIMIT, "torsion factor")  # before factorint
        for p, e in factorint(f).items():
            exps_by_prime.setdefault(p, []).append(e)
    for exps in exps_by_prime.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in exps_by_prime.values()), default=0)
    chain: list[int] = []
    for level in range(depth):
        d = 1
        for p, exps in exps_by_prime.items():
            if level < len(exps):
                d *= p ** exps[level]
        chain.append(d)
    chain.reverse()
    return AbelianGroup(free_rank, tuple(chain))


def direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    """The direct sum of any number of groups (the trivial group for none),
    in one canonicalize call over all their torsion."""
    torsion: list[int] = []
    free_rank = 0
    for g in groups:
        torsion += g.torsion
        free_rank += g.free_rank
    return _canonicalize(tuple(sorted(torsion)), free_rank)


def from_relations(rows: Iterable[Sequence[int]], n: int) -> AbelianGroup:
    """Z^n / <rows>, for integer rows of length n.  Repeated and zero rows
    are dropped; integer row and column operations bring the rest to a
    diagonal, one column at a time: the least nonzero entry of the column is
    the pivot, the others are reduced mod it, and a remainder left in the
    pivot row is swapped into the column as a smaller pivot.  A pivot of 1
    leaves no remainder, and the last column's entry is the gcd of what is
    left in it.  Rows that do not span a lattice of rank n (an infinite
    quotient) raise ValueError."""
    matrix = [list(row) for row in dict.fromkeys(map(tuple, rows)) if any(row)]
    diagonal: list[int] = []
    for c in range(n - 1):
        while True:
            live = [row for row in matrix if row[c]]
            if not live:
                raise ValueError(f"the relations do not span a lattice of rank {n}")
            pivot = min(live, key=lambda row: abs(row[c]))
            p = pivot[c]
            for row in live:
                if row is not pivot:
                    q = row[c] // p
                    row[c:] = [a - q * b for a, b in zip(row[c:], pivot[c:])]
            if p in (1, -1):
                break
            if any(row[c] for row in live if row is not pivot):
                continue
            # column c holds p alone, so subtracting multiples of it from
            # the other columns changes the pivot row only
            pivot[c + 1 :] = [a % p for a in pivot[c + 1 :]]
            rest = [j for j in range(c + 1, n) if pivot[j]]
            if not rest:
                break
            for row in matrix:
                row[c], row[rest[0]] = row[rest[0]], row[c]
        diagonal.append(abs(p))
        matrix = [row for row in matrix if row is not pivot]
    if n:
        last = gcd(*(row[-1] for row in matrix))
        if not last:
            raise ValueError(f"the relations do not span a lattice of rank {n}")
        diagonal.append(last)
    return canonicalize([d for d in diagonal if d > 1])
