import ast
import importlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geode import (
    TruncatedSeries,
    TypeVector,
    enumerate_types,
    grading_key,
    mismatches_between,
    sum_of_variables,
)
from oracles import partition_counts

V = TypeVector


def test_edge_weight_examples():
    assert V(()).edge_weight == 0
    assert V((0, 2)).edge_weight == 4
    assert V((2, 3, 2, 1)).edge_weight == 18


def test_leaf_count_examples():
    assert V(()).leaf_count == 1
    assert V((0, 2)).leaf_count == 3
    assert V((2, 3, 2, 1)).leaf_count == 11


entry_vectors = st.lists(st.integers(min_value=0, max_value=5), max_size=6).map(tuple)


@given(entry_vectors)
def test_grading_against_direct_sums(entries):
    m = V(entries)
    assert m.edge_weight == sum((i + 1) * e for i, e in enumerate(entries))
    assert m.leaf_count == 1 + sum(i * e for i, e in enumerate(entries))
    assert m.node_count == 1 + m.edge_weight


@given(entry_vectors)
def test_node_count_is_leaves_plus_internal(entries):
    m = V(entries)
    assert m.node_count == m.leaf_count + sum(m.entries)


def test_canonical_trimming():
    assert V((0, 1, 0)) == V((0, 1))
    assert V((0, 0)).entries == ()
    # 100,000 trailing zeros: stripping them one slice at a time is quadratic
    assert V.parse("1," + "0," * 99_999 + "0").entries == (1,)
    with pytest.raises(ValueError):
        V((1, -1))


def test_text_roundtrip():
    assert V.parse("") == V.zero()
    assert V.parse("2,3,2,1").text == "2,3,2,1"
    assert V.parse("0,1,0") == V((0, 1))
    assert str(V.zero()) == ""
    with pytest.raises(ValueError):
        V.parse("1,x")


def test_unit_and_arithmetic():
    assert V.unit(3) == V((0, 0, 1))
    assert V((1, 1)) + V.unit(1) == V((2, 1))
    assert V((2, 1)) - V.unit(2) == V((2,))
    with pytest.raises(ValueError):
        V((1,)) - V.unit(2)


def test_enumerate_types_small():
    assert enumerate_types(0) == [V.zero()]
    assert enumerate_types(2) == [V(()), V((1,)), V((2,)), V((0, 1))]
    # the weight-3 grade appends exactly (3), (1,1), (0,0,1) in that order
    assert enumerate_types(3) == [
        V(()),
        V((1,)),
        V((2,)),
        V((0, 1)),
        V((3,)),
        V((1, 1)),
        V((0, 0, 1)),
    ]
    assert len(enumerate_types(3)) == 7


@pytest.mark.parametrize("bound", range(10))
def test_enumerate_types_sorted_and_unique(bound):
    types = enumerate_types(bound)
    assert len(set(types)) == len(types)
    assert all(m.edge_weight <= bound for m in types)
    assert types == sorted(types, key=grading_key)


def test_enumerate_types_grade_sizes_match_partitions():
    expected = partition_counts(14)
    sizes = [len(enumerate_types(0))]
    for w in range(1, 15):
        sizes.append(len(enumerate_types(w)) - len(enumerate_types(w - 1)))
    assert sizes == expected


def test_series_addition_and_subtraction():
    a = TruncatedSeries(2, {V.zero(): 1, V((1,)): 2})
    b = TruncatedSeries(2, {V((1,)): 3, V((0, 1)): 1})
    assert a + b == TruncatedSeries(2, {V.zero(): 1, V((1,)): 5, V((0, 1)): 1})
    assert (a + b) - b == a
    assert a - a == TruncatedSeries.zero(2)


def test_series_hand_expansions():
    one_plus_t1 = TruncatedSeries(2, {V.zero(): 1, V.unit(1): 1})
    sq = one_plus_t1 * one_plus_t1
    assert sq == TruncatedSeries(2, {V.zero(): 1, V((1,)): 2, V((2,)): 1})

    t2 = TruncatedSeries.variable(2, bound=3)
    assert t2 * t2 == TruncatedSeries.zero(3)  # weight 4 truncated away

    s = TruncatedSeries(2, {V.zero(): 1, V((1,)): 1, V((0, 1)): 1})
    assert s * s == TruncatedSeries(
        2, {V.zero(): 1, V((1,)): 2, V((2,)): 1, V((0, 1)): 2}
    )


def test_bound_mismatch_is_an_error():
    a = TruncatedSeries.one(2)
    b = TruncatedSeries.one(3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        mismatches_between(a, b)


def test_power_requires_positive_exponent():
    s = TruncatedSeries.one(2)
    with pytest.raises(ValueError):
        s.power(0)


def bounded_series(bound: int):
    types = enumerate_types(bound)
    return st.dictionaries(
        st.sampled_from(types), st.integers(min_value=-4, max_value=4), max_size=6
    ).map(lambda coeffs: TruncatedSeries(bound, coeffs))


@given(st.integers(0, 4).flatmap(lambda w: st.tuples(bounded_series(w), bounded_series(w))))
def test_mul_commutative(pair):
    a, b = pair
    assert a * b == b * a


@given(
    st.integers(0, 4).flatmap(
        lambda w: st.tuples(bounded_series(w), bounded_series(w), bounded_series(w))
    )
)
def test_mul_associative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@given(st.integers(0, 4).flatmap(bounded_series), st.integers(1, 4))
def test_power_matches_repeated_multiplication(s, k):
    expected = s
    for _ in range(k - 1):
        expected = expected * s
    assert s.power(k) == expected


@given(st.integers(0, 5).flatmap(lambda w: st.tuples(st.just(w), bounded_series(w), bounded_series(w))))
def test_multiplication_is_graded(args):
    bound, a, b = args
    product = a * b
    assert all(m.edge_weight <= bound for m in product.support())


def all_pairs_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Every monomial pair multiplied out; the constructor drops what overshoots."""
    product: dict[TypeVector, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            product[ma + mb] = product.get(ma + mb, 0) + ca * cb
    return TruncatedSeries(a.bound, product)


@given(st.integers(0, 6).flatmap(lambda w: st.tuples(bounded_series(w), bounded_series(w))))
def test_mul_matches_all_pairs_oracle(pair):
    a, b = pair
    assert a * b == all_pairs_product(a, b)


def test_mul_cancellation_mixed_lengths_and_exact_bound():
    # (t1 - t2)(t1 + t2) = t1^2 - t2^2: the t1*t2 terms cancel, the operands'
    # entries have lengths 1 and 2, and t2^2 lands exactly on the bound 4
    a = TruncatedSeries(4, {V.unit(1): 1, V.unit(2): -1})
    b = TruncatedSeries(4, {V.unit(1): 1, V.unit(2): 1})
    product = a * b
    assert product == all_pairs_product(a, b)
    assert product.items() == [(V((2,)), 1), (V((0, 2)), -1)]


def test_arithmetic_builds_no_type_vector(monkeypatch):
    a = TruncatedSeries(4, {V.zero(): 1, V((1,)): 2, V((0, 1)): -1, V((1, 0, 1)): 3})
    b = TruncatedSeries(4, {V((1,)): -2, V((2, 1)): 5, V((0, 0, 0, 1)): 1})
    built = []
    init = TypeVector.__init__

    def counting(self, entries=()):
        built.append(entries)
        init(self, entries)

    monkeypatch.setattr(TypeVector, "__init__", counting)
    a + b, a - b, a * b, a.with_bound(2)
    assert built == []
    a.items()  # the API boundary does build them, so the counter is live
    assert len(built) == len(a)


def mismatches_oracle(a: TruncatedSeries, b: TruncatedSeries) -> list:
    """The union of both supports in graded order, where the coefficients differ."""
    ca, cb = dict(a.items()), dict(b.items())
    union = sorted(ca.keys() | cb.keys(), key=grading_key)
    return [(m, ca.get(m, 0), cb.get(m, 0)) for m in union if ca.get(m, 0) != cb.get(m, 0)]


@given(st.integers(0, 5).flatmap(lambda w: st.tuples(bounded_series(w), bounded_series(w))))
def test_mismatches_hash_and_len(pair):
    a, b = pair
    assert mismatches_between(a, b) == mismatches_oracle(a, b)
    assert hash(a * b) == hash(b * a)
    assert hash((a + b) - b) == hash(a)
    for cancelled in (a - b, (a + b) - a):
        assert len(cancelled) == len(cancelled.items())
    assert len((a + b) - a) == len(b)


def test_with_bound_drops_monomials_above_it():
    s = TruncatedSeries(3, {V.zero(): 1, V((1,)): 2, V((0, 1)): 3, V((0, 0, 1)): 4})
    assert s.with_bound(2) == TruncatedSeries(2, {V.zero(): 1, V((1,)): 2, V((0, 1)): 3})
    assert s.with_bound(5).with_bound(3) == s


def test_enumerate_types_returns_a_fresh_list():
    types = enumerate_types(3)
    types.clear()
    assert len(enumerate_types(3)) == 7


def test_sum_of_variables():
    s = sum_of_variables(3)
    assert s == TruncatedSeries(3, {V.unit(1): 1, V.unit(2): 1, V.unit(3): 1})


def test_mismatch_listing():
    a = TruncatedSeries(2, {V.zero(): 1, V((1,)): 2})
    b = TruncatedSeries(2, {V.zero(): 1, V((1,)): 3, V((0, 1)): 1})
    assert mismatches_between(a, b) == [(V((1,)), 2, 3), (V((0, 1)), 0, 1)]


@pytest.mark.parametrize("module", ["series", "factorization", "trees"])
def test_no_function_calls_itself(module):
    # every walk in these modules is a loop, so no bound can exhaust the stack
    path = Path(importlib.import_module(f"geode.{module}").__file__)
    recursive = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            direct = isinstance(f, ast.Name) and f.id == node.name
            method = (
                isinstance(f, ast.Attribute)
                and f.attr == node.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            )
            if direct or method:
                recursive.append(f"{node.name} (line {call.lineno})")
    assert recursive == []
