#!/usr/bin/env python3
"""Print and check the per-grade coefficient totals of S and G.

Summing a grade amounts to setting every t_n to a single t.  For S the
totals are the Catalan numbers C_w (trees with w edges, partitioned by
type); the printed 'expected' column comes from the classical Catalan
recurrence.  For G they are the differences C_{w+1} - C_w, with G_0 = 1,
as setting every t_n = t in S = 1 + (t_1 + t_2 + ...) G shows.  A row where
either column disagrees is marked and the exit status is 1.
"""

from __future__ import annotations

import argparse
import sys

from geode import geode_series, hyper_catalan_series


def catalan(count: int) -> list[int]:
    out = [1]
    for n in range(1, count):
        out.append(sum(out[i] * out[n - 1 - i] for i in range(n)))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=12, metavar="N")
    args = parser.parse_args()
    bound = args.max_weight
    if bound < 0:
        parser.error(f"--max-weight must be nonnegative, got {bound}")

    s, g = hyper_catalan_series(bound), geode_series(bound)
    s_sums = [0] * (bound + 1)
    g_sums = [0] * (bound + 1)
    for m, c in s.items():
        s_sums[m.edge_weight] += c
    for m, c in g.items():
        g_sums[m.edge_weight] += c

    expected = catalan(bound + 2)
    g_expected = [1] + [expected[w + 1] - expected[w] for w in range(1, bound + 1)]
    print(f"{'weight':>6} {'S grade sum':>14} {'expected':>14} {'G grade sum':>14}")
    mismatch = False
    for w in range(bound + 1):
        good = s_sums[w] == expected[w] and g_sums[w] == g_expected[w]
        marker = "" if good else "  <- MISMATCH"
        mismatch |= bool(marker)
        print(f"{w:>6} {s_sums[w]:>14} {expected[w]:>14} {g_sums[w]:>14}{marker}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
