#!/usr/bin/env python3
"""Run the whole verification battery at desk scale and print a summary.

The algebraic identities (functional equation, factorization, grade sums)
are cheap and run at the series bound; everything backed by exhaustive
enumeration runs at its own, smaller bound.  Exits nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import sys
import time

from geode import (
    verify_bijections,
    verify_factorization,
    verify_functional_equation,
    verify_grade_sums,
    verify_marked_subdigons,
    verify_marked_trees,
)


def run(args: argparse.Namespace) -> int:
    battery = [
        (verify_functional_equation, args.series_bound),
        (verify_factorization, args.series_bound),
        (verify_grade_sums, args.series_bound),
        (verify_marked_trees, args.tree_bound),
        (verify_marked_subdigons, args.subdigon_bound),
        (verify_bijections, args.subdigon_bound),
    ]
    failures = 0
    for check, bound in battery:
        start = time.perf_counter()
        report = check(bound)
        elapsed = time.perf_counter() - start
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{report.name:<20} weight<={report.bound:<3} "
            f"{report.checked:>7} checked  {verdict}  ({elapsed:.2f}s)"
        )
        if args.verbose or not report.passed:
            for line in report.lines()[1:]:
                print(f"    {line.strip()}")
        failures += not report.passed
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--series-bound", type=int, default=12)
    parser.add_argument("--tree-bound", type=int, default=10)
    parser.add_argument("--subdigon-bound", type=int, default=8)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()
    for name, bound in vars(args).items():
        if name.endswith("_bound") and bound < 0:
            flag = "--" + name.replace("_", "-")
            parser.error(f"{flag} must be nonnegative, got {bound}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
