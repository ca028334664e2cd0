import ast
import importlib
import operator
import sys
import time
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geode import (
    TruncatedSeries,
    TypeVector,
    enumerate_types,
    geode_series,
    hyper_catalan_series,
    sum_of_variables,
)
from geode import series as series_module
from geode.series import _code, _coefficient_rows, _graded_layout, _graded_tails, _primes
from oracles import monomial_cut, monomial_product, monomial_sum, partition_counts, primes_below

V = TypeVector


def negated(s: TruncatedSeries) -> TruncatedSeries:
    """-s, built through the constructor: the series has no subtraction."""
    return TruncatedSeries(s.bound, {m: -c for m, c in s.items()})


def graded(m: TypeVector) -> tuple:
    """Sort key of the graded order: by edge weight, then descending entries."""
    return m.edge_weight, [-e for e in m.entries]


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
    assert V.parse("1, 2") == V.parse(" 1 ,2 ") == V((1, 2))
    # int() alone takes "1_0", "+1", "-0" and the non-ASCII digits
    for bad in ["1,x", "1_0", "+1", "-0", "\u0663", "1,,2", "2,\u00b2"]:
        with pytest.raises(ValueError):
            V.parse(bad)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # int() refuses longer digit strings with a message of its own
        with pytest.raises(ValueError, match="not a comma-separated integer vector"):
            V.parse("9" * (limit + 1))


@pytest.mark.parametrize("n", [True, 2.0, "2"])
@pytest.mark.parametrize("build", [V.unit, lambda n: TruncatedSeries.variable(n, 3)])
def test_a_variable_index_that_is_not_an_int_is_a_type_error(build, n):
    # True == 1 would pass as t1; 2.0 and "2" would fail in arithmetic that names no index
    with pytest.raises(TypeError, match=f"^variable index must be an int, got {n!r}$"):
        build(n)


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
    assert types == sorted(types, key=graded)


def test_enumerate_types_grade_sizes_match_partitions():
    expected = partition_counts(14)
    sizes = [len(enumerate_types(0))]
    for w in range(1, 15):
        sizes.append(len(enumerate_types(w)) - len(enumerate_types(w - 1)))
    assert sizes == expected


@pytest.mark.parametrize("bound", range(21))
def test_the_layout_is_each_m1_before_the_tails_of_the_rest(bound):
    (tails, _, texts), entries = _graded_tails(bound), _graded_layout(bound)
    starts = [0, *accumulate(partition_counts(bound))]
    # each tail's text is its entries, a comma before each
    assert texts == tuple(tuple("".join(f",{e}" for e in t) for t in ts) for ts in tails)
    assert (len(tails), starts[-1]) == (bound + 1, len(entries))
    for w in range(bound + 1):
        grade = entries[starts[w]:starts[w + 1]]
        assert grade == tuple(V((w - r, *t)).entries for r in range(w + 1) for t in tails[r])
        # the tails of weight w are grade w's vectors without t_1, less their m_1 = 0
        assert tails[w] == tuple(e[1:] for e in grade if not e or not e[0])


def test_a_tail_code_does_not_depend_on_the_bound():
    # the loop's codes are each tail's 2^m_2 3^m_3 5^m_4 ..., at every bound up to 30
    for bound in range(31):
        tails, codes, _ = _graded_tails(bound)
        assert codes == tuple(tuple(map(_code, ts)) for ts in tails)
    codes = [_graded_tails(bound)[1] for bound in range(31)]
    assert all(codes[b] == codes[B][: b + 1] for B in range(31) for b in range(B))


def test_tail_codes_are_distinct_and_below_two_to_the_weight():
    codes = _graded_tails(30)[1]
    flat = [c for cs in codes for c in cs]
    assert len(set(flat)) == len(flat) == sum(map(len, _graded_tails(30)[0]))
    # t_n's code p(n) is below 2^n, so only the empty tail's code reaches 2^(its weight)
    assert codes[0] == (1,) and all(c < 2**r for r in range(1, 31) for c in codes[r])


def test_t_n_is_coded_by_the_n_minus_1_th_prime():
    _primes.cache_clear()  # every prime found anew, with no recursion
    primes = primes_below(40_000)
    assert TruncatedSeries.variable(3000, 3000)._tails == {3000: {primes[2998]: 1}}
    assert [_primes(k) for k in range(13)] == [tuple(primes[: 1 << k]) for k in range(13)]


@pytest.mark.parametrize("n", [1, 2, 3000])
def test_a_series_is_read_from_its_stored_columns(n):
    # ==, hash, len, items, str and repr cost the stored terms, not every monomial to the bound
    start = time.perf_counter()
    a, b = TruncatedSeries.variable(n, 3000), TruncatedSeries.variable(n, 3000)
    assert a == b and hash(a) == hash(b) and len(a) == 1
    assert a.items() == [(V.unit(n), 1)]
    assert str(a) == f"t{n}" and repr(a) == f"<TruncatedSeries bound=3000: t{n}>"
    grade_4 = {V((0, 2)): 6, V((2, 1)): 4, V((4,)): 7, V((1, 0, 1)): 8}
    terms = {V.unit(3000): 5, V.unit(n): 2, V.zero(): 1, V((0, 1)): 3, **grade_4}
    s = TruncatedSeries(3000, terms)
    assert s.support() == sorted(terms, key=graded) and len(s) == len(terms)
    assert s == TruncatedSeries(3000, dict(reversed(terms.items())))
    assert time.perf_counter() - start < 1


def test_series_addition_and_subtraction():
    a = TruncatedSeries(2, {V.zero(): 1, V((1,)): 2})
    b = TruncatedSeries(2, {V((1,)): 3, V((0, 1)): 1})
    assert a + b == TruncatedSeries(2, {V.zero(): 1, V((1,)): 5, V((0, 1)): 1})
    assert (a + b) + negated(b) == a


def test_series_hand_expansions():
    one_plus_t1 = TruncatedSeries(2, {V.zero(): 1, V.unit(1): 1})
    sq = one_plus_t1 * one_plus_t1
    assert sq == TruncatedSeries(2, {V.zero(): 1, V((1,)): 2, V((2,)): 1})

    t2 = TruncatedSeries.variable(2, bound=3)
    assert t2 * t2 == TruncatedSeries(3)  # weight 4 truncated away

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
        _coefficient_rows(a, b)


@pytest.mark.parametrize("operand", [5, None, {V.zero(): 1}])
@pytest.mark.parametrize("op", [operator.add, operator.mul, _coefficient_rows])
def test_an_operand_that_is_not_a_series_is_a_type_error(op, operand):
    with pytest.raises(TypeError, match="^operand must be a TruncatedSeries, got "):
        op(TruncatedSeries.one(3), operand)


@pytest.mark.parametrize(
    "op, operand",
    [(operator.add, 5), (operator.sub, None), (operator.add, (1,)), (operator.sub, "1")],
)
def test_a_type_vector_plus_or_minus_a_non_vector_is_a_type_error(op, operand):
    with pytest.raises(TypeError, match="^unsupported operand type"):
        op(V((1,)), operand)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: TruncatedSeries(3).coefficient(m),
        lambda m: TruncatedSeries(2, {m: 1}),
    ],
)
@pytest.mark.parametrize("m", ["1", (1,), None])
def test_a_monomial_that_is_not_a_type_vector_is_a_type_error(call, m):
    with pytest.raises(TypeError, match="^a type must be a TypeVector, got "):
        call(m)


@pytest.mark.parametrize("value", [1.5, 2.0, "1", True, None])
def test_a_coefficient_that_is_not_an_int_is_a_type_error(value):
    with pytest.raises(TypeError, match="^a coefficient must be an int, got "):
        TruncatedSeries(2, {V((1,)): value})


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


HUGE = st.integers(min_value=-(2**100), max_value=2**100)


def huge_terms(bound: int):
    """{entries: coefficient} dicts of weight <= bound, coefficients up to 2^100 in size."""
    entries = [m.entries for m in enumerate_types(bound)]
    return st.dictionaries(st.sampled_from(entries), HUGE | st.integers(-3, 3), max_size=8)


def terms_of(series: TruncatedSeries) -> dict:
    """The nonzero terms by entries, once ``coefficient`` has read each of them, and a zero
    at every other type up to two above the bound."""
    terms = {m.entries: c for m, c in series.items()}
    for m in enumerate_types(series.bound + 2):
        assert series.coefficient(m) == terms.get(m.entries, 0), m
    return terms


NEGATIVE = TruncatedSeries(
    6, {V(()): -(2**100), V((1,)): -1, V((0, 1)): 2**100 - 1, V((2, 0, 0, 1)): -7, V((6,)): -2}
)


@pytest.mark.parametrize(
    "series",
    [hyper_catalan_series(12), geode_series(12), NEGATIVE, NEGATIVE * NEGATIVE],
    ids=["S", "G", "negative", "negative-squared"],
)
def test_coefficient_reads_the_items(series):
    assert len(terms_of(series)) == len(series)


def test_coefficient_unpacks_one_column(monkeypatch):
    # the column of the monomial's tail, not the whole table
    calls, unpack = [], series_module._unpack
    monkeypatch.setattr(series_module, "_unpack", lambda *a: calls.append(a) or unpack(*a))
    g = geode_series(12)
    for m in enumerate_types(12):
        calls.clear()
        assert g.coefficient(m) >= 1
        assert len(calls) == 1


@given(
    st.integers(0, 6).flatmap(
        lambda w: st.tuples(
            st.just(w), huge_terms(w), huge_terms(w), st.sets(st.integers(0, 7)), st.integers(0, 9)
        )
    )
)
def test_arithmetic_matches_the_monomial_dict_oracle(args):
    # c cancels a chosen part of a, so sums and products of mixed signs reach 0; products of
    # products and series of unlike slot widths meet in every operation
    bound, a, b, cancelled, cut = args
    c = {e: -v for i, (e, v) in enumerate(a.items()) if i in cancelled}
    sa, sb, sc = (TruncatedSeries(bound, {V(e): v for e, v in t.items()}) for t in (a, b, c))
    sn = TruncatedSeries(bound, {V(e): -v for e, v in b.items()})  # -b: no series subtracts
    ac = monomial_sum(a, c)
    assert terms_of(sa + sb) == monomial_sum(a, b)
    assert terms_of(sa + sn) == monomial_sum(a, b, -1)
    assert terms_of(sa + sc) == ac
    assert terms_of(sa * sb) == monomial_product(a, b, bound)
    assert terms_of((sa + sc) * sb) == monomial_product(ac, b, bound)
    assert terms_of(sa * sb + sn * sa) == {}
    assert terms_of((sa * sb) * (sa + sn)) == monomial_product(
        monomial_product(a, b, bound), monomial_sum(a, b, -1), bound
    )
    low = min(cut, bound)
    assert terms_of(sa.with_bound(cut)) == monomial_cut(a, cut)
    lowered = sa.with_bound(low) * TruncatedSeries(low, {V(e): v for e, v in b.items()})
    assert terms_of(lowered) == monomial_product(a, b, low)
    raised = (sa * sb).with_bound(bound + 3)
    assert terms_of(raised * sb.with_bound(bound + 3)) == monomial_product(
        monomial_product(a, b, bound), b, bound + 3
    )
    assert raised.with_bound(bound) == sa * sb


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
    a + b, a * b, a.with_bound(2), a.with_bound(6)
    assert built == []
    a.items()  # the API boundary does build them, so the counter is live
    assert len(built) == len(a)


def mismatches_oracle(a: TruncatedSeries, b: TruncatedSeries) -> list:
    """The union of both supports in graded order, where the coefficients differ."""
    ca, cb = dict(a.items()), dict(b.items())
    union = sorted(ca.keys() | cb.keys(), key=graded)
    return [(m, ca.get(m, 0), cb.get(m, 0)) for m in union if ca.get(m, 0) != cb.get(m, 0)]


@given(st.integers(0, 5).flatmap(lambda w: st.tuples(bounded_series(w), bounded_series(w))))
def test_mismatches_hash_and_len(pair):
    a, b = pair
    rows = _coefficient_rows(a, b)
    assert [(V(e), x, y) for e, x, y in rows if x != y] == mismatches_oracle(a, b)
    assert hash(a * b) == hash(b * a)
    assert hash((a + b) + negated(b)) == hash(a)
    for cancelled in (a + negated(b), (a + b) + negated(a)):
        assert len(cancelled) == len(cancelled.items())
    assert len((a + b) + negated(a)) == len(b)


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


def test_series_are_immutable():
    def build():
        return TruncatedSeries(2, {V.zero(): 1, V((1,)): 2, V((0, 1)): 3})

    s = build()
    for field in ("bound", "_tails", "x"):
        with pytest.raises(AttributeError):
            setattr(s, field, 0)
    assert s == build()


def test_mismatch_listing():
    a = TruncatedSeries(2, {V.zero(): 1, V((1,)): 2})
    b = TruncatedSeries(2, {V.zero(): 1, V((1,)): 3, V((0, 1)): 1})
    # every monomial up to the bound, zeros included: each row is one comparison
    rows = [((), 1, 1), ((1,), 2, 3), ((2,), 0, 0), ((0, 1), 0, 1)]
    assert list(_coefficient_rows(a, b)) == rows


@pytest.mark.parametrize("short", ["weight", "tail"])
def test_a_short_table_cannot_be_packed(short):
    # the tails and the table are zipped strictly, as in _rows: neither is a smaller series
    s = sum_of_variables(6)
    table = s._table()
    assert TruncatedSeries._packed(6, table) == s
    (table if short == "weight" else table[-1]).pop()
    with pytest.raises(ValueError):
        TruncatedSeries._packed(6, table)


# The subdigon enumerator recurses through its lru_cache (directly, and
# through the cached slot groups), but only to a depth bounded by the weight,
# and enumerate_subdigons warms the cache lightest type first, so each nested
# call is a cache hit.
RECURSION_ALLOWED = {"_enumerate_subdigons_cached"}


@pytest.mark.parametrize(
    "path",
    sorted(Path(importlib.import_module("geode").__file__).parent.glob("*.py")),
    ids=lambda path: path.stem,
)
def test_no_function_calls_itself(path):
    # every walk in the package is a loop, so no bound can exhaust the stack
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
            if (direct or method) and node.name not in RECURSION_ALLOWED:
                recursive.append(f"{node.name} (line {call.lineno})")
    assert recursive == []


def test_sources_parse_as_python_3_10():
    # the package supports Python 3.10, which CI runs but this suite may not:
    # this checks the grammar only (no except*, no PEP 695 generics, ...),
    # not which stdlib APIs a file calls
    sources = sorted(Path(importlib.import_module("geode").__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert sources and tests
    rejected = []
    for path in sources + tests:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as error:
            rejected.append(f"{path.name}: {error}")
    assert rejected == []


def test_value_contract_is_written_once():
    # only _Value sets the contract; each value class names just its _key and slots
    owners = {"__setattr__": set(), "__eq__": set(), "__hash__": set(), "__reduce__": set()}
    for path in Path(importlib.import_module("geode").__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in owners:
                    owners[item.name].add(node.name)
    assert owners == {name: {"_Value"} for name in owners}
