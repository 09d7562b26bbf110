#!/usr/bin/env python3
"""Survey the brute-force oracle over the small-ring menagerie.

For every ring in the standard list: enumerate SL2(R), report its order and
abelianization, check that the elementary matrices generate it, and (for the
local rings) compare against the closed local-ring formula.
"""

import argparse
import sys
import time
from pathlib import Path

# run from a checkout: this checkout's package comes before any installed one
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sl2ab.oracle import (
    enumerate_sl2_direct,
    generate_from_elementary,
    prop_local_formula,
    sl2_abelianization,
)
from sl2ab.verify import GE2_RINGS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-generation",
        action="store_true",
        help="skip the elementary-generation cross-check",
    )
    args = parser.parse_args()

    failures = 0
    for name, spec in GE2_RINGS:
        start = time.perf_counter()
        group = enumerate_sl2_direct(spec)
        ab = sl2_abelianization(spec)
        line = f"{name:<14} |R|={spec.order:>2}  |SL2(R)|={len(group):>5}  ab = {ab}"
        if len(spec.factors) == 1:
            formula = prop_local_formula(spec.factors[0])
            if formula == ab:
                line += "  [matches local formula]"
            else:
                line += f"  [MISMATCH: formula {formula}]"
                failures += 1
        if not args.skip_generation:
            if generate_from_elementary(spec) == group:
                line += " [generated by elementaries]"
            else:
                line += " [GENERATION FAILED]"
                failures += 1
        print(f"{line}  ({time.perf_counter() - start:.2f}s)")
    if failures:
        print(f"{failures} mismatch(es)")
        return 1
    print("all rings consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
