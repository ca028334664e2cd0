"""The benchmark's workloads: the CLI invocations that make up one pass.

BENCHMARK.json says why each workload was chosen; ``Workload`` adds what its
fixed keys cannot hold: what the seed controls, which layers the workload
should and should not stress, and what its items are.

Each workload is a closed loop of one client: the invocations of a pass run
one after another, each in a fresh ``python -m geode.cli`` process, and the
next starts only when the previous has exited.  Only ``listing`` uses the
seed; the others depend on their bounds alone and merely record it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import check


@dataclass(frozen=True)
class Workload:
    name: str
    seed: str
    stresses: str
    spares: str
    items: str
    passes: Callable[[int, bool], list[list[str]]]


def _tables(seed: int, tiny: bool) -> list[list[str]]:
    s, g, gj = (4, 4, 3) if tiny else (30, 24, 20)
    return [
        ["s-table", "--max-weight", str(s)],
        ["g-table", "--max-weight", str(g)],
        ["g-table", "--max-weight", str(gj), "--format", "json"],
    ]


# Several shorter invocations per pass rather than one long one: on a shared
# host a long child's time depends on which core it lands on, and summing a
# few children per pass halved the run-to-run spread in an A/B test.


def _algebra(seed: int, tiny: bool) -> list[list[str]]:
    bounds = ("4", "3") if tiny else ("14", "13", "12")
    return [
        ["verify", "--checks", "functional-eq,factorization",
         "--max-weight", bound, "--format", "json"]
        for bound in bounds
    ]


def _enumeration(seed: int, tiny: bool) -> list[list[str]]:
    bound = "3" if tiny else "9"
    return [
        ["verify", "--checks", "marked-trees,marked-subdigons",
         "--max-weight", bound, "--max-enum-weight", bound],
        ["verify", "--checks", "bijections", "--max-weight", bound,
         "--max-enum-weight", bound],
        ["g-table", "--max-weight", bound, "--with-counts"],
    ]


# Listing: K types of one grade whose plain and marked listings together
# hold LINES lines (within 1 %), with the plain share fixed to within 2 % of
# PLAIN_SHARE.  Every seed then lists the same amount of text from the same
# number of processes; the seed only picks which admissible set is listed.
LISTING_FULL = {"weight": 12, "k": 4, "lines": 20_000, "plain_share": 0.22, "band": (2000, 8000)}
LISTING_TINY = {"weight": 5, "k": 2, "lines": 55, "plain_share": 0.36, "band": (5, 40)}


def listing_sets(params: dict) -> list[tuple[tuple[int, ...], ...]]:
    """Every admissible K-set of types for the listing workload, in a fixed order."""
    lo, hi = params["band"]
    sizes = {}
    for m in check.partitions(params["weight"]):
        plain, marked = check.tree_count(m), check.marked_tree_count(m)
        if lo <= plain + marked <= hi:
            sizes[m] = (plain, marked)
    target = params["lines"]
    admissible = []
    for combo in combinations(sorted(sizes), params["k"]):
        plain = sum(sizes[m][0] for m in combo)
        total = plain + sum(sizes[m][1] for m in combo)
        if abs(total - target) <= 0.01 * target and abs(plain / target - params["plain_share"]) <= 0.02:
            admissible.append(combo)
    return admissible


def _listing(seed: int, tiny: bool) -> list[list[str]]:
    params = LISTING_TINY if tiny else LISTING_FULL
    sets = listing_sets(params)
    if not sets:
        raise ValueError(f"no admissible type set for {params}")
    rng = random.Random(seed)
    chosen = list(rng.choice(sets))
    rng.shuffle(chosen)
    argvs = []
    for m in chosen:
        text = ",".join(map(str, m))
        base = ["trees", "--type", text, "--max-enum-weight", str(params["weight"])]
        argvs += [base, base + ["--marked"]]
    return argvs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tables",
            seed="ignored (recorded only); the bounds fix the work",
            stresses="series.enumerate_types, factorization.geode_series, "
            "hypercatalan.hyper_catalan, cli emission",
            spares="series.mul, trees, subdigons",
            items="table rows emitted: 28,629 + 7,338 + 2,714 per pass",
            passes=_tables,
        ),
        Workload(
            "algebra",
            seed="ignored (recorded only); the bounds fix the work",
            stresses="series.mul (TruncatedSeries.__mul__)",
            spares="trees, subdigons, cli emission",
            items="'checked' summed over the three JSON reports: 2,306 per pass",
            passes=_algebra,
        ),
        Workload(
            "enumeration",
            seed="ignored (recorded only); the bounds fix the work",
            stresses="trees.count_marked_trees, trees.enumerate_trees, "
            "subdigons.verify_bijections and the subdigon cache",
            spares="series.mul, tree text output",
            items="'checked' summed over the text report plus counted "
            "table rows: 62,451 + 97 per pass",
            passes=_enumeration,
        ),
        Workload(
            "listing",
            seed="draws which admissible set of 4 weight-12 types is listed; "
            "every set lists 20,000 lines within 1 %",
            stresses="trees.enumerate_trees, trees.enumerate_marked_trees, "
            "trees.serialize, cli output",
            spares="series, hypercatalan, subdigons, verification",
            items="tree lines listed: 20,000 within 1 % per pass",
            passes=_listing,
        ),
    )
}
