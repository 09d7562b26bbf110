#!/usr/bin/env python3
"""Regenerate the classification tables from the live formulas.

Prints the real-quadratic table (by radicand), the cyclotomic table, and the
Z[1/n] table, in the same format as `sl2ab table ...`.  Everything is derived
on the fly; nothing here reads the hardcoded verification tables.
"""

import argparse
import sys
from pathlib import Path

# run from a checkout: this checkout's package comes before any installed one
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sl2ab.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-max", type=int, default=500, help="largest radicand")
    parser.add_argument("--n-max", type=int, default=60, help="largest zeta index")
    parser.add_argument("--inv-max", type=int, default=30, help="largest 1/n")
    args = parser.parse_args()

    sections = [
        ("real quadratic rings of integers", ["table", "quadratic", "2", str(args.d_max)]),
        ("cyclotomic rings of integers", ["table", "cyclotomic", str(args.n_max)]),
        ("the rings Z[1/n]", ["table", "z-inv-n", str(args.inv_max)]),
    ]
    for title, argv in sections:
        print(f"== {title} ==")
        code = run(argv)
        if code != 0:
            return code
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
