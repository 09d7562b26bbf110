"""Cross-validation suites pitting the structure formulas against independent
references: hardcoded classification tables, a second splitting algorithm, and
brute-force enumeration over small finite rings.

The tables in this module are deliberately *not* used by the production code
paths, which always derive results live from splitting data; here they serve
as fixed ground truth.  Each suite returns a list of CaseResult rows so the
command-line front end can print per-case pass/fail lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .abgroup import AbelianGroup, TRIVIAL_GROUP, direct_sum
from .oracle import (
    FiniteRing,
    FiniteRingSpec,
    RingFactor,
    prop_local_formula,
    sl2_abelianization,
)
from .polyarith import cyclotomic_polynomial, is_squarefree, primes_dividing
from .splitting import (
    Cyclotomic,
    GeneralPoly,
    Quadratic,
    Rational,
    dedekind_split,
    quadratic_min_poly,
)
from .theorems import compute, s_for_inverted


@dataclass(frozen=True)
class CaseResult:
    """One verified case: a short name, a verdict, and the values compared."""

    name: str
    ok: bool
    detail: str = ""


# --------------------------------------------------------------------------
# reference tables
# --------------------------------------------------------------------------

# Real quadratic Z[...sqrt(d)]: torsion invariant factors keyed by d mod 24.
# Residues 4 and 20 can never occur for squarefree d (both force 4 | d) but
# are kept so the table matches its source row for row.
_QUADRATIC_ROWS: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((5,), ()),
    ((1,), (12, 12)),
    ((9,), (4, 12)),
    ((13,), (3, 3)),
    ((21,), (3,)),
    ((17,), (4, 4)),
    ((2, 11, 14, 20, 23), (2, 2)),
    ((4, 7, 10, 19, 22), (6, 6)),
)
_QUADRATIC_OTHERWISE: tuple[int, ...] = (2, 6)

QUADRATIC_TORSION_BY_RESIDUE: dict[int, tuple[int, ...]] = {
    r: torsion for residues, torsion in _QUADRATIC_ROWS for r in residues
}


def quadratic_reference(d: int) -> AbelianGroup:
    """Hardcoded nine-case mod-24 table for real quadratic rings of integers."""
    if d <= 1 or not is_squarefree(d):
        raise ValueError(f"need squarefree d > 1, got {d}")
    torsion = QUADRATIC_TORSION_BY_RESIDUE.get(d % 24, _QUADRATIC_OTHERWISE)
    return AbelianGroup(0, torsion)


def cyclotomic_reference(n: int) -> AbelianGroup:
    """Hardcoded four-case classification for Z[zeta_N], keyed by the shape
    of N: {1, 2} -> Z/12; a power 2^k (k >= 2) -> Z/2 + Z/2; 2^k 3^m with
    k <= 1 and m >= 1 -> Z/3; anything else -> trivial."""
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    if n in (1, 2):
        return AbelianGroup(0, (12,))
    if n % 4 == 2:
        n //= 2
    rest = n
    twos = threes = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 3 == 0:
        rest //= 3
        threes += 1
    if rest > 1:
        return TRIVIAL_GROUP
    if threes == 0 and twos >= 2:
        return AbelianGroup(0, (2, 2))
    if threes >= 1 and twos <= 1:
        return AbelianGroup(0, (3,))
    return TRIVIAL_GROUP


def sl2_order_zmod(n: int) -> int:
    """|SL2(Z/n)| = n^3 * prod over p | n of (1 - p^-2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    num = n**3
    den = 1
    for p in primes_dividing(n):
        num *= p * p - 1
        den *= p * p
    return num // den


# --------------------------------------------------------------------------
# the ring menagerie for the oracle suites
# --------------------------------------------------------------------------


# Local rings of order <= 16, smallest first: every supported one of order
# <= 13 up to isomorphism, then Z/16, F_16 and F_2[x]/(x^4).
LOCAL_RINGS: tuple[tuple[str, RingFactor], ...] = (
    ("F_2", RingFactor(2, 1)),
    ("F_3", RingFactor(3, 1)),
    ("Z/4", RingFactor(2, 2)),
    ("F_4", RingFactor(2, 1, (1, 1, 1))),
    ("F_2[x]/(x^2)", RingFactor(2, 1, (0, 0, 1))),
    ("F_5", RingFactor(5, 1)),
    ("F_7", RingFactor(7, 1)),
    ("Z/8", RingFactor(2, 3)),
    ("F_8", RingFactor(2, 1, (1, 1, 0, 1))),
    ("F_2[x]/(x^3)", RingFactor(2, 1, (0, 0, 0, 1))),
    ("Z/9", RingFactor(3, 2)),
    ("F_9", RingFactor(3, 1, (1, 0, 1))),
    ("F_3[x]/(x^2)", RingFactor(3, 1, (0, 0, 1))),
    ("F_11", RingFactor(11, 1)),
    ("F_13", RingFactor(13, 1)),
    ("Z/16", RingFactor(2, 4)),
    ("F_16", RingFactor(2, 1, (1, 1, 0, 0, 1))),
    ("F_2[x]/(x^4)", RingFactor(2, 1, (0, 0, 0, 0, 1))),
)

GE2_RINGS: tuple[tuple[str, FiniteRingSpec], ...] = tuple(
    (label, FiniteRingSpec((factor,))) for label, factor in LOCAL_RINGS
) + (
    ("Z/6", FiniteRingSpec.zmod(6)),
    ("Z/12", FiniteRingSpec.zmod(12)),
)


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def suite_quadratic_table() -> list[CaseResult]:
    """Real quadratic d in (1, 500]: congruence path == mod-24 table == the
    general-polynomial path on the minimal polynomial (irreducibility, Sturm
    count and the factorization criterion)."""
    out: list[CaseResult] = []
    for d in range(2, 501):
        if not is_squarefree(d):
            continue
        table = quadratic_reference(d)
        live = compute(Quadratic(d)).group
        via_criterion = compute(GeneralPoly(quadratic_min_poly(d))).group
        ok = live == table == via_criterion
        out.append(
            CaseResult(
                f"d={d} (d mod 24 = {d % 24})",
                ok,
                f"live {live} | table {table} | min-poly {via_criterion}",
            )
        )
    return out


def suite_cyclotomic_table() -> list[CaseResult]:
    """Z[zeta_N] for N <= 60: live result == four-case classification, and
    the generic minimal-polynomial splitting agrees with the closed-form
    cyclotomic splitting at 2 and 3 (as e-f multisets)."""
    out: list[CaseResult] = []
    for n in range(1, 61):
        expected = cyclotomic_reference(n)
        spec = Cyclotomic(n)
        got = compute(spec).group
        ok = got == expected
        detail = f"live {got} | table {expected}"
        phi_n = cyclotomic_polynomial(n)
        for p in (2, 3):
            generic = dedekind_split(phi_n, p).ef_multiset()
            closed = spec.split_at(p).ef_multiset()
            if generic != closed:
                ok = False
                detail += (
                    f" | splitting of {p} disagrees: generic {generic}, "
                    f"closed-form {closed}"
                )
        out.append(CaseResult(f"N={n}", ok, detail))
    return out


_Z_INV_CLASSES: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = (
    ("2 and 3 inverted", (6, 12, 30), ()),
    ("only 2 inverted", (2, 10), (3,)),
    ("only 3 inverted", (3,), (4,)),
    ("neither 2 nor 3 inverted", (5, 7, 11), (12,)),
)


def suite_z_inv_n() -> list[CaseResult]:
    """Z[1/n] four-way classification by which of 2, 3 divide n."""
    out: list[CaseResult] = []
    for label, samples, torsion in _Z_INV_CLASSES:
        expected = AbelianGroup(0, torsion)
        for n in samples:
            outcome = compute(Rational(), s_for_inverted(n))
            ok = outcome.group == expected
            out.append(
                CaseResult(
                    f"Z[1/{n}] ({label})",
                    ok,
                    f"computed {outcome.group} | expected {expected}",
                )
            )
    return out


def suite_oracle_local() -> list[CaseResult]:
    """Brute-force abelianization == local-ring formula, for every local ring
    in LOCAL_RINGS."""
    out: list[CaseResult] = []
    for label, factor in LOCAL_RINGS:
        spec = FiniteRingSpec((factor,))
        enumerated = sl2_abelianization(spec)
        formula = prop_local_formula(factor)
        out.append(
            CaseResult(
                f"SL2({label})",
                enumerated == formula,
                f"enumerated {enumerated} | formula {formula}",
            )
        )
    return out


def suite_ge2() -> list[CaseResult]:
    """Elementary matrices generate all of SL2 over every test ring: the
    group the E12/E21 matrices of an additive basis generate, counted as
    |words| |G'| from the cosets of its commutator subgroup, has as many
    elements as the direct determinant-one enumeration."""
    out: list[CaseResult] = []
    for label, spec in GE2_RINGS:
        ring = FiniteRing(spec)
        direct = sum(1 for _ in oracle._sl2_indices(ring))
        quotient = oracle._derived_quotient(ring, oracle._elementary_gens(ring))
        words, derived = len(quotient.reps), len(quotient.derived)
        out.append(
            CaseResult(
                f"SL2({label})",
                words * derived == direct,
                f"direct {direct} element(s) | generated {words} word(s) x "
                f"{derived} in G' = {words * derived}",
            )
        )
    return out


def suite_product_lemma() -> list[CaseResult]:
    """SL2 over a product ring decomposes: the Z/12 abelianization equals the
    direct sum of its Z/4 and Z/3 local results, and the direct enumeration
    and the count from the ring tables match the |SL2(Z/n)| order formula
    for n <= 16."""
    out: list[CaseResult] = []
    ab12, ab4, ab3 = (FiniteRing(FiniteRingSpec.zmod(n)).sl2ab for n in (12, 4, 3))
    combined = direct_sum(ab4, ab3)
    expected = AbelianGroup(0, (12,))
    out.append(
        CaseResult(
            "SL2(Z/12) vs Z/4 + Z/3 factors",
            ab12 == combined == expected,
            f"Z/12 gives {ab12} | factors give {combined} | expected {expected}",
        )
    )
    for n in range(2, 17):
        spec = FiniteRingSpec.zmod(n)
        ring = FiniteRing(spec)
        listed = sum(1 for _ in oracle._sl2_indices(ring))
        counted = ring.sl2_order
        predicted = sl2_order_zmod(n)
        out.append(
            CaseResult(
                f"|SL2(Z/{n})|",
                listed == counted == predicted,
                f"listed {listed} | counted {counted} | formula {predicted}",
            )
        )
    return out


SUITES = {
    "quadratic-table": suite_quadratic_table,
    "cyclotomic-table": suite_cyclotomic_table,
    "z-inv-n": suite_z_inv_n,
    "oracle-local": suite_oracle_local,
    "ge2": suite_ge2,
    "product-lemma": suite_product_lemma,
}
