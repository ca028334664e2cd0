import re

import pytest

from geode import (
    NegativeGeodeCoefficientError,
    TypeVector,
    count_marked_trees,
    enumerate_types,
    geode_series,
    grading_key,
    hyper_catalan,
    solve_factorization,
    verify_bijections,
    verify_factorization,
    verify_functional_equation,
    verify_grade_sums,
    verify_marked_subdigons,
    verify_marked_trees,
)
from geode import cli, hyper_catalan_series
from geode.factorization import _lifted_targets
from geode.series import _graded_layout
from oracles import catalan_numbers

V = TypeVector


def test_small_coefficients():
    g = geode_series(4)
    assert g.coefficient(V.zero()) == 1
    assert g.coefficient(V((1,))) == 1
    assert g.coefficient(V((2,))) == 1
    assert g.coefficient(V((0, 1))) == 2
    assert g.coefficient(V((1, 1))) == 5
    assert g.coefficient(V((0, 0, 1))) == 3
    assert g.coefficient(V((0, 2))) == 5


def test_coefficients_against_brute_force_marks():
    # type (1,1): three trees contribute 2 + 1 + 2 marks; type (0,2): 3 + 2
    assert count_marked_trees(V((1, 1))) == 5
    assert count_marked_trees(V((0, 2))) == 5
    g = geode_series(4)
    assert g.coefficient(V((1, 1))) == 5
    assert g.coefficient(V((0, 2))) == 5


def test_factorization_weight_1():
    report = verify_factorization(1)
    assert report.passed


def test_factorization_weight_4_consistency_equation():
    # the t_2^2 equation is never used by the recurrence: it demands
    # C(0,2) = G(0,1), i.e. 2 = 2
    assert hyper_catalan(V((0, 2))) == 2
    assert geode_series(4).coefficient(V((0, 1))) == 2
    report = verify_factorization(4)
    assert report.passed
    labels = [g.label for g in report.groups]
    assert any("consistency" in label for label in labels)


def test_overdetermined_equations_hold():
    bound = 12
    g = geode_series(bound)
    for m in enumerate_types(bound):
        if not m or m.multiplicity(1):
            continue
        recomposed = sum(
            g.coefficient(m - V.unit(n))
            for n in range(2, len(m.entries) + 1)
            if m.multiplicity(n)
        )
        assert recomposed == hyper_catalan(m)


def test_factorization_group_counts_match_the_types_up_to_weight_12():
    # counted from entry tuples in the library; here from the public vectors
    for bound in range(13):
        types = enumerate_types(bound)
        with_t1 = sum(1 for m in types if m.multiplicity(1))
        without_t1 = sum(1 for m in types if m and not m.multiplicity(1))
        report = verify_factorization(bound)
        assert [g.checked for g in report.groups] == [1, with_t1, without_t1]


def test_nonnegativity():
    g = geode_series(12)
    assert all(value >= 0 for _, value in g.items())


def test_solution_is_independent_of_the_processing_order():
    bound = 8
    default = geode_series(bound)
    types = enumerate_types(bound)
    # any order refining the grading is valid; reverse each grade
    reordered: list[V] = []
    for weight in range(bound + 1):
        grade = [m for m in types if m.edge_weight == weight]
        reordered.extend(reversed(grade))
    e1 = V.unit(1)
    targets = {k: hyper_catalan(k + e1) for k in types}
    assert solve_factorization(bound, targets, reordered) == default


def test_solution_matches_a_reordered_run_from_lifted_vectors_at_weight_14():
    # pins the entry-level lift of k to k + e_1 against TypeVector addition
    bound = 14
    types = enumerate_types(bound)
    reordered = [
        m for weight in range(bound + 1)
        for m in reversed([m for m in types if m.edge_weight == weight])
    ]
    e1 = V.unit(1)
    targets = {k: hyper_catalan(k + e1) for k in types}
    assert solve_factorization(bound, targets, reordered) == geode_series(bound)


def test_geode_recurrence_and_g_table_build_no_type_vector(capsys, monkeypatch):
    built = []
    init = TypeVector.__init__

    def counting(self, entries=()):
        built.append(entries)
        init(self, entries)

    monkeypatch.setattr(TypeVector, "__init__", counting)
    g = geode_series(10)
    s = hyper_catalan_series(10)
    assert cli.main(["g-table", "--max-weight", "10"]) == 0
    assert capsys.readouterr().out.count("\n") == len(g) + 1
    assert built == []
    g.items()  # the API boundary does build them, so the counter is live
    assert len(built) == len(g)
    s.items()
    assert len(built) == len(g) + len(s)


def test_lifted_targets_match_the_formula_at_k_plus_e1_up_to_weight_20():
    # C(k + e_1) = C(k) (w + 1) / (k_1 + 1), against the formula at the lifted vector
    e1 = V.unit(1)
    for bound in (0, 1, 20):
        targets = list(_lifted_targets(bound))
        assert targets == [hyper_catalan(k + e1) for k in enumerate_types(bound)]


def test_order_visiting_a_vector_too_early_is_a_value_error():
    # reversed, t_4 comes first, before the t_1 its recurrence term needs
    bound = 4
    types = enumerate_types(bound)
    e1 = V.unit(1)
    targets = {k: hyper_catalan(k + e1) for k in types}
    with pytest.raises(ValueError, match=r"t\^\[0,0,0,1\]"):
        solve_factorization(bound, targets, reversed(types))


def test_corrupted_targets_raise_on_negative_coefficient():
    bound = 3
    types = enumerate_types(bound)
    e1 = V.unit(1)
    targets = {k: hyper_catalan(k + e1) for k in types}
    targets[V((1, 1))] = 0  # forces G(1,1) = -G(2) < 0
    with pytest.raises(NegativeGeodeCoefficientError):
        solve_factorization(bound, targets, types)


def test_marked_tree_interpretation_small():
    report = verify_marked_trees(3)
    assert report.passed
    assert report.checked == 7  # every monomial of weight <= 3 compared


def test_marked_subdigon_interpretation_small():
    report = verify_marked_subdigons(5)
    assert report.passed


def test_grade_sums_cross_module():
    # total marks per grade, counted on trees, must match the Geode grade
    # sums; both also equal consecutive Catalan differences, because setting
    # every t_n to t in the factorization gives cat(w) = sum of lower grades
    bound = 7
    g = geode_series(bound)
    grade_sums = [0] * (bound + 1)
    for m, value in g.items():
        grade_sums[m.edge_weight] += value
    for weight in range(bound + 1):
        by_trees = sum(
            count_marked_trees(m)
            for m in enumerate_types(bound)
            if m.edge_weight == weight
        )
        assert by_trees == grade_sums[weight]
    cat = catalan_numbers(bound + 2)
    assert grade_sums[0] == 1
    assert grade_sums[1:] == [cat[w + 1] - cat[w] for w in range(1, bound + 1)]


def test_series_support_is_every_type():
    bound = 6
    g = geode_series(bound)
    assert g.support() == sorted(enumerate_types(bound), key=grading_key)
    assert all(value >= 1 for _, value in g.items())


BOUND_TAKERS = [
    verify_functional_equation,
    verify_factorization,
    verify_grade_sums,
    verify_marked_trees,
    verify_marked_subdigons,
    verify_bijections,
    geode_series,
    hyper_catalan_series,
    enumerate_types,
]


@pytest.mark.parametrize("build", BOUND_TAKERS)
def test_a_negative_bound_is_a_value_error(build):
    # every route reads the one type index, which rejects the bound itself
    with pytest.raises(ValueError, match="^bound must be nonnegative, got -1$"):
        build(-1)


@pytest.mark.parametrize("bound", [True, 2.0, "3"])
@pytest.mark.parametrize("build", BOUND_TAKERS)
def test_a_bound_that_is_not_an_int_is_a_type_error(build, bound):
    # the type index is cached, and True == 1, 2.0 == 2: cold or warm, neither passes as an int
    _graded_layout.cache_clear()
    message = f"^bound must be an int, got {re.escape(repr(bound))}$"
    with pytest.raises(TypeError, match=message):
        build(bound)
    build(int(bound))
    with pytest.raises(TypeError, match=message):
        build(bound)
