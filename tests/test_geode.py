import re

import pytest

from geode import (
    NegativeGeodeCoefficientError,
    TypeVector,
    count_marked_subdigons,
    count_marked_trees,
    enumerate_subdigons,
    enumerate_trees,
    enumerate_types,
    geode_series,
    hyper_catalan,
    verify_bijections,
    verify_factorization,
    verify_functional_equation,
    verify_grade_sums,
    verify_marked_subdigons,
    verify_marked_trees,
)
from geode import TruncatedSeries, cli, factorization, hyper_catalan_series
from geode.factorization import _solve
from geode.hypercatalan import _hyper_catalan_tails
from geode.series import _graded_layout, _graded_tails, _rows
from oracles import (
    catalan_numbers, enumerate_marked_subdigons, enumerate_marked_trees, geode_by_entries
)

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
        if not m or m.entries[0]:
            continue
        recomposed = sum(
            g.coefficient(m - V.unit(n)) for n, m_n in enumerate(m.entries, 1) if n > 1 and m_n
        )
        assert recomposed == hyper_catalan(m)


def test_factorization_group_counts_match_the_types_up_to_weight_12():
    # counted from entry tuples in the library; here from the public vectors
    for bound in range(13):
        types = enumerate_types(bound)
        with_t1 = sum(1 for m in types if m and m.entries[0])
        without_t1 = sum(1 for m in types if m and not m.entries[0])
        report = verify_factorization(bound)
        assert [g.checked for g in report.groups] == [1, with_t1, without_t1]


def test_a_wrong_constant_term_fails_in_the_constant_term_group(monkeypatch):
    def corrupted(bound):  # S with constant term 2
        return hyper_catalan_series(bound) + TruncatedSeries.one(bound)

    monkeypatch.setattr(factorization, "hyper_catalan_series", corrupted)
    constant, defining, consistency = verify_factorization(3).groups
    assert (constant.label, constant.mismatches) == ("constant term", (("", 2, 1),))
    assert defining.mismatches == consistency.mismatches == ()


def test_nonnegativity():
    g = geode_series(12)
    assert all(value >= 0 for _, value in g.items())


def lifted_pairs(types):
    """(entries of k, C(k + e_1)) for each k, the recurrence's input, from the formula."""
    e1 = V.unit(1)
    return [(k.entries, hyper_catalan(k + e1)) for k in types]


def test_solution_is_independent_of_the_processing_order():
    # graded order, each grade reversed, and the per-tail solve all give the same G
    bound = 8
    types = enumerate_types(bound)
    reordered = [
        m for weight in range(bound + 1)
        for m in reversed([m for m in types if m.edge_weight == weight])
    ]
    graded = geode_by_entries(lifted_pairs(types))
    assert geode_by_entries(lifted_pairs(reordered)) == graded
    assert dict(_rows(_solve(bound))) == graded


def test_solution_matches_a_reordered_run_from_lifted_vectors_at_weight_14():
    # pins the per-tail lift of k to k + e_1 against TypeVector addition
    bound = 14
    types = enumerate_types(bound)
    reordered = [
        m for weight in range(bound + 1)
        for m in reversed([m for m in types if m.edge_weight == weight])
    ]
    solved = geode_by_entries(lifted_pairs(reordered))
    assert TruncatedSeries(bound, {m: solved[m.entries] for m in types}) == geode_series(bound)


def test_per_tail_solve_matches_the_entry_keyed_recurrence_up_to_weight_20():
    # the oracle runs monomial by monomial, each grade reversed, from C(k + e_1) by the formula
    e1, types = V.unit(1), enumerate_types(20)
    reordered = [
        m for weight in range(21) for m in reversed([m for m in types if m.edge_weight == weight])
    ]
    expected = geode_by_entries([(k.entries, hyper_catalan(k + e1)) for k in reordered])
    for bound in range(21):
        tails, table = _graded_tails(bound)[0], _solve(bound)
        lengths = [[bound + 1 - r] * len(ts) for r, ts in enumerate(tails)]
        assert [[len(g) for g in gs] for gs in table] == lengths  # m_1 = 0, ..., bound - r
        solved = {
            V((j, *t)).entries: value
            for ts, gs in zip(tails, table) for t, g in zip(ts, gs) for j, value in enumerate(g)
        }
        assert solved == {k.entries: expected[k.entries] for k in enumerate_types(bound)}


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
    # each tail's targets, the lift = 1 table, against the formula at the lifted vector
    for bound in (0, 1, 20):
        tails = _graded_tails(bound)[0]
        assert _hyper_catalan_tails(bound, 1) == [
            [[hyper_catalan(V((j + 1, *t))) for j in range(bound + 1 - r)] for t in ts]
            for r, ts in enumerate(tails)
        ]


def test_corrupted_targets_raise_on_negative_coefficient(monkeypatch):
    real = factorization._hyper_catalan_tails

    def corrupted(bound, lift):
        targets = real(bound, lift)
        targets[2][0][2] = 0  # C((3, 1)): G(2,1) = -G(3) = -1, in grade 4
        targets[3][0][0] = 0  # C((1, 0, 1)): G(0,0,1) = -G(1) = -1, in grade 3
        return targets

    # the tail (1) is solved before the tail (0, 1), but grade 3 comes first
    monkeypatch.setattr(factorization, "_hyper_catalan_tails", corrupted)
    message = r"^coefficient of t\^\[0,0,1\] came out -1$"
    with pytest.raises(NegativeGeodeCoefficientError, match=message):
        _solve(4)
    with pytest.raises(NegativeGeodeCoefficientError, match=message):
        geode_series(4)


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
    graded = sorted(enumerate_types(bound), key=lambda m: (m.edge_weight, [-e for e in m.entries]))
    assert g.support() == graded
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
    _graded_tails.cache_clear()
    message = f"^bound must be an int, got {re.escape(repr(bound))}$"
    with pytest.raises(TypeError, match=message):
        build(bound)
    build(int(bound))
    with pytest.raises(TypeError, match=message):
        build(bound)


@pytest.mark.parametrize("m", ["1,1", (1, 1), None])
@pytest.mark.parametrize(
    "build",
    [
        enumerate_trees,
        enumerate_marked_trees,
        count_marked_trees,
        enumerate_subdigons,
        enumerate_marked_subdigons,
        count_marked_subdigons,
        hyper_catalan,
    ],
)
def test_a_type_that_is_not_a_type_vector_is_a_type_error(build, m):
    with pytest.raises(TypeError, match=f"^a type must be a TypeVector, got {re.escape(repr(m))}$"):
        build(m)
