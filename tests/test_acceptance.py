"""Acceptance battery: exact, desk-scale checks of every headline identity.

Each test prints one pass/fail line; run with ``pytest -v -s`` to see them.
All equalities are exact integer comparisons, no tolerances anywhere.
"""

import subprocess
import sys
import time

from geode import (
    OrderedTree,
    Subdigon,
    TypeVector,
    count_initial_leaves,
    count_marked_subdigons,
    count_marked_trees,
    enumerate_trees,
    enumerate_types,
    geode_series,
    hyper_catalan,
    verify_bijections,
    verify_factorization,
    verify_functional_equation,
)
from oracles import catalan_numbers, clawed_nodes, external_faces, word_type

V = TypeVector

SERIES_BOUND = 12
TREE_BOUND = 10
SUBDIGON_BOUND = 8

# running example: a 12-gon dissection and its tree, both of type (2,3,2,1)
RUNNING_EXAMPLE = "((()((()())()))()()(((()()()))(())()))"

# the four marked-leaf illustration trees with their circled-leaf counts
ILLUSTRATION_TREES = [
    ("(((()())())())", 2),
    ("(()(()(()())))", 4),
    ("(()((())()))", 2),
    ("(()((()()()))())", 4),
]


def _report(num: int, name: str, ok: bool) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_catalan_specialization():
    start = time.perf_counter()
    values = [hyper_catalan(V((0, k))) for k in range(7)]
    elapsed = time.perf_counter() - start
    ok = values == [1, 1, 2, 5, 14, 42, 132] == catalan_numbers(7) and elapsed < 1.0
    _report(1, "catalan specialization", ok)


def test_02_tree_counts_match_closed_form():
    ok = all(
        len(enumerate_trees(m)) == hyper_catalan(m)
        for m in enumerate_types(TREE_BOUND)
    )
    _report(2, f"tree counts = closed form up to weight {TREE_BOUND}", ok)


def test_03_functional_equation():
    report = verify_functional_equation(SERIES_BOUND)
    ok = report.passed and report.checked == len(enumerate_types(SERIES_BOUND))
    _report(3, f"functional equation at weight {SERIES_BOUND}", ok)


def test_04_factorization_including_consistency_equations():
    report = verify_factorization(SERIES_BOUND)
    consistency = [g for g in report.groups if "consistency" in g.label]
    ok = report.passed and len(consistency) == 1 and consistency[0].checked > 0
    _report(4, f"factorization at weight {SERIES_BOUND}", ok)


def test_05_geode_nonnegativity():
    g = geode_series(SERIES_BOUND)  # raises on any negative intermediate
    ok = all(value >= 0 for _, value in g.items())
    _report(5, f"geode nonnegativity at weight {SERIES_BOUND}", ok)


def test_06_geode_counts_marked_trees():
    g = geode_series(TREE_BOUND)
    ok = all(
        g.coefficient(m) == count_marked_trees(m)
        for m in enumerate_types(TREE_BOUND)
    )
    _report(6, f"geode = marked-tree counts up to weight {TREE_BOUND}", ok)


def test_07_marked_subdigons_match_marked_trees():
    ok = all(
        count_marked_subdigons(m) == count_marked_trees(m)
        for m in enumerate_types(SUBDIGON_BOUND)
    )
    _report(7, f"marked subdigons = marked trees up to weight {SUBDIGON_BOUND}", ok)


def test_08_bijection_roundtrips():
    report = verify_bijections(SUBDIGON_BOUND)
    ok = report.passed and all(group.checked > 0 for group in report.groups)
    _report(8, f"bijection roundtrips up to weight {SUBDIGON_BOUND}", ok)


def test_09_figure_spot_checks():
    tree = OrderedTree.parse(RUNNING_EXAMPLE)
    sub = Subdigon.parse(RUNNING_EXAMPLE)
    ok = word_type(tree.word) == word_type(sub.boundary) == (2, 3, 2, 1)
    ok = ok and [
        count_initial_leaves(OrderedTree.parse(text))
        for text, _ in ILLUSTRATION_TREES
    ] == [count for _, count in ILLUSTRATION_TREES]
    ok = ok and len(external_faces(sub.boundary)) == 3
    ok = ok and len(clawed_nodes(tree.word)) == 3
    _report(9, "figure-derived spot checks", ok)


def _cli_bytes(*argv: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "geode.cli", *argv],
        capture_output=True,
        check=True,
    )
    return proc.stdout


def test_10_table_determinism():
    s_args = ("s-table", "--max-weight", "6", "--format", "json")
    g_args = ("g-table", "--max-weight", "5", "--with-counts")
    ok = _cli_bytes(*s_args) == _cli_bytes(*s_args)
    ok = ok and _cli_bytes(*g_args) == _cli_bytes(*g_args)
    _report(10, "table output is deterministic across runs", ok)
