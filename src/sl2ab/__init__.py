"""Abelianization of SL2 over rings of S-integers in global fields.

The structure results implemented here reduce the abelianization of
SL2(O_{K,S}) — when the unit group is infinite — to bookkeeping about the
primes of the ring above 2 and 3: each surviving prime with residue field F_2
contributes Z/4 (unramified) or Z/2 + Z/2 (ramified), each surviving prime
with residue field F_3 contributes Z/3, and nothing else contributes.  The
package computes these splittings for several field forms, assembles the
results, and cross-checks them against brute-force matrix enumeration over
small finite rings.
"""

from .abgroup import (
    AbelianGroup,
    TRIVIAL_GROUP,
    canonicalize,
    direct_sum,
    from_relations,
)
from .oracle import (
    BudgetExceededError,
    DEFAULT_RING_CAP,
    FiniteRing,
    FiniteRingSpec,
    RingFactor,
    enumerate_sl2_direct,
    prop_local_formula,
    sl2_abelianization,
)
from .polyarith import IntPoly, ModPoly, cyclotomic_polynomial, factor_mod_p
from .splitting import (
    Cyclotomic,
    GeneralPoly,
    NotPMaximalError,
    PrimeAbove,
    Quadratic,
    Rational,
    RationalFunction,
    Signature,
    SplittingData,
    UserFunctionField,
    UserNumberField,
    dedekind_split,
    quadratic_min_poly,
)
from .theorems import (
    ComputeOutcome,
    Contribution,
    FiniteUnitsError,
    SSet,
    compute,
    s_for_inverted,
)
from .verify import CaseResult, SUITES

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BudgetExceededError",
    "CaseResult",
    "ComputeOutcome",
    "Contribution",
    "Cyclotomic",
    "DEFAULT_RING_CAP",
    "FiniteRing",
    "FiniteRingSpec",
    "FiniteUnitsError",
    "GeneralPoly",
    "IntPoly",
    "ModPoly",
    "NotPMaximalError",
    "PrimeAbove",
    "Quadratic",
    "Rational",
    "RationalFunction",
    "RingFactor",
    "SSet",
    "SUITES",
    "Signature",
    "SplittingData",
    "TRIVIAL_GROUP",
    "UserFunctionField",
    "UserNumberField",
    "canonicalize",
    "compute",
    "cyclotomic_polynomial",
    "dedekind_split",
    "direct_sum",
    "enumerate_sl2_direct",
    "factor_mod_p",
    "from_relations",
    "prop_local_formula",
    "quadratic_min_poly",
    "s_for_inverted",
    "sl2_abelianization",
]
