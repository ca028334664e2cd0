import math
from itertools import accumulate

import pytest

import geode.hypercatalan
from geode import (
    TruncatedSeries,
    TypeVector,
    enumerate_trees,
    enumerate_types,
    hyper_catalan,
    hyper_catalan_series,
    verify_functional_equation,
)
from geode.hypercatalan import _hyper_catalan_tails
from geode.series import _graded_layout, _graded_tails, _rows
from oracles import catalan_numbers, partition_counts

V = TypeVector


def test_catalan_specialization():
    values = [hyper_catalan(V((0, k))) for k in range(7)]
    assert values == [1, 1, 2, 5, 14, 42, 132]
    assert values == catalan_numbers(7)


def test_small_values():
    assert hyper_catalan(V.zero()) == 1
    assert hyper_catalan(V((0, 2))) == 2
    assert hyper_catalan(V((0, 3))) == 5
    # oracle: the three ordered trees with one unary and one binary node
    assert hyper_catalan(V((1, 1))) == 3
    assert len(enumerate_trees(V((1, 1)))) == 3


def test_division_is_exact_up_to_weight_18():
    for m in enumerate_types(18):
        numerator = math.factorial(m.edge_weight)
        denominator = math.factorial(m.leaf_count)
        for e in m.entries:
            denominator *= math.factorial(e)
        assert numerator % denominator == 0
        assert hyper_catalan(m) == numerator // denominator


def test_graded_table_matches_the_single_monomial_formula_up_to_weight_20():
    rows = list(_rows(_hyper_catalan_tails(20)))
    assert rows == [(e, hyper_catalan(V(e))) for e in _graded_layout(20)]
    # a smaller bound is a prefix: the factorial table has no bound-dependent entry
    assert all(
        list(_rows(_hyper_catalan_tails(b))) == rows[: len(_graded_layout(b))] for b in range(20)
    )


def test_series_matches_the_single_monomial_formula_up_to_weight_16():
    # the per-monomial route that S was once built by, kept as a reference
    for b in range(17):
        expected = TruncatedSeries(b, {m: hyper_catalan(m) for m in enumerate_types(b)})
        assert hyper_catalan_series(b) == expected


def test_grade_starts_mark_each_grade_at_its_first_vector():
    bound = 20
    entries, p = _graded_layout(bound), partition_counts(bound)
    starts = [0, *accumulate(p)]
    assert starts[-1] == len(entries)
    for w in range(bound + 1):
        grade = entries[starts[w]:starts[w + 1]]
        assert grade[0] == ((w,) if w else ())  # t_1^w leads its grade
        assert len(grade) == p[w]
        assert {V(e).edge_weight for e in grade} == {w}
        # raw tuples: TypeVector would trim a trailing zero silently
        assert all(not e or e[-1] for e in grade)
        assert all(a > b for a, b in zip(grade, grade[1:]))  # strictly descending


def test_series_small_bounds():
    assert hyper_catalan_series(1) == TruncatedSeries(1, {V.zero(): 1, V((1,)): 1})
    assert hyper_catalan_series(2) == TruncatedSeries(
        2, {V.zero(): 1, V((1,)): 1, V((2,)): 1, V((0, 1)): 1}
    )
    s3 = hyper_catalan_series(3)
    assert s3.coefficient(V((3,))) == 1
    assert s3.coefficient(V((1, 1))) == 3
    assert s3.coefficient(V((0, 0, 1))) == 1
    assert len(s3) == 7


def test_counts_match_tree_enumeration():
    for m in enumerate_types(7):
        assert hyper_catalan(m) == len(enumerate_trees(m))


def test_series_support_is_every_type():
    # no coefficient vanishes, so the key set is the whole graded enumeration
    assert hyper_catalan_series(6).support() == enumerate_types(6)


def test_grade_sums_are_catalan():
    # setting every t_n to t turns S into the ordinary Catalan series,
    # because trees with w edges are partitioned by type
    bound = 9
    s = hyper_catalan_series(bound)
    sums = [0] * (bound + 1)
    for m, c in s.items():
        sums[m.edge_weight] += c
    assert sums == catalan_numbers(bound + 1)


def test_functional_equation_trivial_bound():
    report = verify_functional_equation(0)
    assert report.passed
    assert report.checked == 1


def test_functional_equation_weight_5():
    report = verify_functional_equation(5)
    assert report.passed
    assert not report.groups[0].mismatches
    assert report.checked == len(enumerate_types(5))


def test_functional_equation_every_bound_up_to_12():
    assert all(verify_functional_equation(w).passed for w in range(13))


def test_functional_equation_bound_20():
    assert verify_functional_equation(20).passed


@pytest.mark.parametrize("corrupt", ["1", "0,1,2"])
def test_functional_equation_detects_a_corrupted_coefficient(monkeypatch, corrupt):
    # weight 1 feeds every power of S; weight 8 (the bound) reaches only the
    # left-hand side, so truncating S^n at bound - n must not hide either
    exact = geode.hypercatalan._hyper_catalan_tails
    bad = V.parse(corrupt)
    m1, *t = bad.entries
    r = V((0, *t)).edge_weight  # the tail's weight

    def corrupted(bound, lift=0):
        table = exact(bound, lift)
        table[r][_graded_tails(bound)[0][r].index(tuple(t))][m1] += 1  # C((m1, *t)) only
        return table

    monkeypatch.setattr(geode.hypercatalan, "_hyper_catalan_tails", corrupted)
    report = verify_functional_equation(8)
    assert not report.passed
    assert bad.text in [mm.monomial for mm in report.groups[0].mismatches]
