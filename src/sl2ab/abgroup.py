"""Finitely generated abelian groups in invariant-factor canonical form.

Every structure result in this package is expressed as an AbelianGroup: a free
rank plus a divisibility chain d1 | d2 | ... | dk of torsion coefficients, each
at least 2.  Two groups are isomorphic exactly when their canonical forms are
equal, so dataclass equality is isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping

from .polyarith import factorint


class InvalidProfileError(ValueError):
    """An order profile that no finite abelian group realizes."""


@dataclass(frozen=True)
class AbelianGroup:
    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError(f"free rank must be >= 0, got {self.free_rank}")
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor must be >= 2, got {d}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"not a divisibility chain: {self.torsion}")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

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
            parts.extend(factorint(d).items())
        return tuple(sorted(parts))

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "invariant_factors": list(self.torsion)}

    @classmethod
    def from_json(cls, data: Mapping) -> "AbelianGroup":
        return canonicalize(data["invariant_factors"], data["free_rank"])

    def __str__(self) -> str:
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
    factor <= 1 is rejected (a trivial summand is expressed by omission).
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
            raise ValueError(f"torsion factor must be >= 2, got {f}")
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


def direct_sum(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    return canonicalize(a.torsion + b.torsion, a.free_rank + b.free_rank)


def _profile_of_chain(torsion: tuple[int, ...]) -> dict[int, int]:
    """Exact element-order counts of (+) Z/d, via F(m) = prod gcd(m, d_i)."""
    exp = lcm(*torsion) if torsion else 1
    divisors = sorted(m for m in range(1, exp + 1) if exp % m == 0)
    annihilated: dict[int, int] = {}
    for m in divisors:
        count = 1
        for d in torsion:
            count *= gcd(m, d)
        annihilated[m] = count
    profile: dict[int, int] = {}
    for m in divisors:
        profile[m] = annihilated[m] - sum(
            profile[t] for t in divisors if t < m and m % t == 0
        )
    return {m: c for m, c in profile.items() if c}


def from_order_statistics(counts: Mapping[int, int]) -> AbelianGroup:
    """Reconstruct a finite abelian group from its exact order profile.

    counts maps element order -> number of elements of that order, covering the
    whole group.  For each prime p, the count of elements of order dividing p^k
    is p to the sum of min(k, lambda_i) over the partition lambda of the p-part,
    so consecutive quotients reveal the conjugate partition.  The reconstructed
    group's profile is recomputed and compared, so any profile no abelian group
    realizes raises InvalidProfileError.
    """
    cleaned: dict[int, int] = {}
    for order, count in counts.items():
        if not isinstance(order, int) or order < 1:
            raise InvalidProfileError(f"bad element order {order!r}")
        if not isinstance(count, int) or count < 1:
            raise InvalidProfileError(f"bad count {count!r} for order {order}")
        cleaned[order] = count
    if cleaned.get(1) != 1:
        raise InvalidProfileError("profile must contain exactly one identity")
    n = sum(cleaned.values())

    prime_powers: list[int] = []
    for p, a in factorint(n).items():
        # counts of elements with order dividing p^k, k = 0..a
        s_prev = 0
        conjugate: list[int] = []
        running = 1
        for k in range(1, a + 1):
            running += cleaned.get(p**k, 0)
            fac = factorint(running)
            if running != 1 and (len(fac) != 1 or p not in fac):
                raise InvalidProfileError(
                    f"{running} elements of order dividing {p}^{k}: not a power of {p}"
                )
            s_k = fac.get(p, 0)
            conjugate.append(s_k - s_prev)
            s_prev = s_k
        if any(c2 > c1 for c1, c2 in zip(conjugate, conjugate[1:])):
            raise InvalidProfileError(f"order counts at p={p} are not a valid partition")
        conjugate.append(0)
        for k in range(1, a + 1):
            prime_powers.extend([p**k] * (conjugate[k - 1] - conjugate[k]))

    group = canonicalize(prime_powers)
    if group.order() != n or _profile_of_chain(group.torsion) != cleaned:
        raise InvalidProfileError("profile is not realized by any abelian group")
    return group
