import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import geode.trees as trees_module
from geode import (
    LEAF,
    MarkedTree,
    OrderedTree,
    TypeVector,
    clawed_nodes,
    compose_tree,
    count_initial_leaves,
    count_marked_trees,
    decompose_tree,
    enumerate_marked_trees,
    enumerate_trees,
    enumerate_types,
    post_order,
    root_decompose,
    tree_to_subdigon,
    tree_type,
)
from oracles import all_tree_brackets, bracket_initial_leaves, bracket_type, node_paths

V = TypeVector

SECT2_TREE = "((()((()())()))()()(((()()()))(())()))"

random_trees = st.recursive(
    st.just(LEAF),
    lambda children: st.lists(children, min_size=1, max_size=3).map(
        lambda kids: OrderedTree(tuple(kids))
    ),
    max_leaves=12,
)


def test_parse_serialize_examples():
    assert OrderedTree.parse("()") == LEAF
    assert OrderedTree.parse("(()())") == OrderedTree((LEAF, LEAF))
    assert OrderedTree.parse(SECT2_TREE).serialize() == SECT2_TREE
    for bad in ["", "(", "(()", "()()", "(()))", ")", "(*)", "(" * 3000]:
        with pytest.raises(ValueError):
            OrderedTree.parse(bad)


def test_deep_chain_parses_without_recursion():
    text = "(" * 3000 + ")" * 3000
    chain = OrderedTree.parse(text)
    assert tree_type(chain) == V((2999,))
    assert chain.serialize() == text

    marked_text = "(" * 3000 + "*" + ")" * 3000
    assert MarkedTree.parse(marked_text).serialize() == marked_text

    n, marked = decompose_tree(chain)
    assert (n, marked.serialize()) == (1, "(" * 2998 + "*" + ")" * 2998)
    assert marked == MarkedTree.parse("(" * 2998 + "*" + ")" * 2998)
    assert compose_tree(n, marked).serialize() == text
    assert compose_tree(n, marked) == chain

    assert count_marked_trees(V((1200,))) == 1


def test_deep_chains_compare_and_hash():
    text = "(" * 3000 + ")" * 3000
    a, b = OrderedTree.parse(text), OrderedTree.parse(text)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # the same depth, differing only at the bottom
    assert a != OrderedTree.parse("(" * 2999 + "()()" + ")" * 2999)


@given(random_trees)
def test_parse_serialize_roundtrip(tree):
    assert OrderedTree.parse(tree.serialize()) == tree


def test_tree_type_examples():
    assert tree_type(LEAF) == V.zero()
    assert tree_type(OrderedTree.parse("(()())")) == V((0, 1))
    assert tree_type(OrderedTree.parse(SECT2_TREE)) == V((2, 3, 2, 1))


def test_enumerate_trees_small_types():
    assert [t.serialize() for t in enumerate_trees(V.zero())] == ["()"]
    assert len(enumerate_trees(V((0, 2)))) == 2
    assert len(enumerate_trees(V((1, 1)))) == 3


def test_enumeration_matches_generate_and_filter_oracle():
    # independent oracle: generate every tree with a fixed edge count by a
    # different recursion, then bucket by type
    for edges in range(7):
        buckets: dict[tuple, list[str]] = {}
        for bracket in all_tree_brackets(edges):
            buckets.setdefault(bracket_type(bracket), []).append(bracket)
        for m_entries, brackets in buckets.items():
            ours = [t.serialize() for t in enumerate_trees(V(m_entries))]
            assert sorted(ours) == sorted(brackets)
            assert len(set(ours)) == len(ours)


def test_enumeration_is_deterministic():
    m = V((1, 2))
    assert enumerate_trees(m) == enumerate_trees(m)


def test_enumeration_is_in_ascending_word_order():
    for m in enumerate_types(7):
        words = [t.word for t in enumerate_trees(m)]
        assert all(u < v for u, v in zip(words, words[1:]))


def test_post_order_examples():
    assert post_order(LEAF) == [0]

    tree = OrderedTree.parse("(()())")
    assert [not tree.word[i] for i in post_order(tree)] == [True, True, False]

    # left comb: the inner pair is finished before its sibling leaf
    text = "((()())())"
    order = post_order(OrderedTree.parse(text))
    assert order == [2, 3, 1, 4, 0]
    preorder_paths, _ = node_paths(text)
    assert [preorder_paths[i] for i in order] == [(0, 0), (0, 1), (0,), (1,), ()]


@given(random_trees)
def test_post_order_properties(tree):
    order = post_order(tree)
    word = tree.word
    assert sorted(order) == list(range(tree_type(tree).node_count))  # a permutation
    preorder_paths, postorder_paths = node_paths(tree.serialize())
    paths = [preorder_paths[i] for i in order]
    rank = {path: r for r, path in enumerate(paths)}
    for path, i in zip(paths, order):
        for child in range(word[i]):
            assert rank[path + (child,)] < rank[path]
    # full post-order characterization: descendants precede ancestors and
    # sibling subtrees keep child order, i.e. lexicographic with open end
    assert paths == sorted(paths, key=lambda p: p + (float("inf"),)) == postorder_paths
    leaves = [i for i in order if not word[i]]
    assert leaves == sorted(leaves)  # left-to-right order


def test_clawed_node_examples():
    assert clawed_nodes(LEAF) == []
    assert clawed_nodes(OrderedTree.parse("(()())")) == [0]
    assert clawed_nodes(OrderedTree.parse("(()(()()))")) == [2]
    sect2 = OrderedTree.parse(SECT2_TREE)
    claws = clawed_nodes(sect2)
    assert len(claws) == 3
    preorder_paths, _ = node_paths(SECT2_TREE)
    assert [preorder_paths[i] for i in claws] == [(0, 1, 0), (3, 0, 0), (3, 1)]


def test_first_internal_node_in_post_order_is_clawed():
    for m in enumerate_types(6):
        if not m:
            continue
        for tree in enumerate_trees(m):
            first_internal = next(i for i in post_order(tree) if tree.word[i])
            assert first_internal == clawed_nodes(tree)[0]


def _assert_walks_read_the_subdigon_image(tree):
    # the stack pass shares no code with the structure map, nor the claw scan
    # with _first_claw, so each checks the other by a second route
    word = tree.word
    assert [word[i] for i in post_order(tree)] == list(tree_to_subdigon(tree).boundary)
    assert clawed_nodes(tree)[:1] == ([trees_module._first_claw(word)] if word[0] else [])


def test_walks_read_the_subdigon_image_exhaustively():
    for m in enumerate_types(8):
        for tree in enumerate_trees(m):
            _assert_walks_read_the_subdigon_image(tree)


@given(random_trees)
def test_walks_read_the_subdigon_image_random(tree):
    _assert_walks_read_the_subdigon_image(tree)


def test_count_initial_leaves_examples():
    assert count_initial_leaves(LEAF) == 1
    assert count_initial_leaves(OrderedTree.parse("(((()())())())")) == 2
    assert count_initial_leaves(OrderedTree.parse("(()(()()))")) == 3


@given(random_trees)
def test_initial_leaves_positive_and_match_oracle(tree):
    count = count_initial_leaves(tree)
    assert count >= 1
    assert count == bracket_initial_leaves(tree.serialize())


def test_count_marked_trees_examples():
    assert count_marked_trees(V.zero()) == 1
    assert count_marked_trees(V((0, 1))) == 2
    # the three trees of type (1,1) carry 2 + 1 + 2 initial leaves
    assert count_marked_trees(V((1, 1))) == 5
    assert len(enumerate_marked_trees(V((1, 1)))) == 5


def test_marked_tree_invariant():
    tree = OrderedTree.parse("((())())")  # post-order: leaf, unary, leaf, root
    assert count_initial_leaves(tree) == 1
    MarkedTree(tree, 0)
    with pytest.raises(ValueError):
        MarkedTree(tree, 1)
    with pytest.raises(ValueError):
        MarkedTree(tree, -1)


def test_marked_enumeration_counts_initial_leaves_once_per_tree(monkeypatch):
    real, seen = trees_module.count_initial_leaves, []
    monkeypatch.setattr(
        trees_module, "count_initial_leaves", lambda tree: seen.append(tree) or real(tree)
    )
    m = V((2, 1, 1))
    marked = enumerate_marked_trees(m)
    assert seen == enumerate_trees(m)
    assert len(marked) == count_marked_trees(m)
    assert all(MarkedTree(x.tree, x.mark) == x for x in marked)
    # decompose_tree builds its result unchecked; the public constructor
    # accepts every mark it makes and still rejects a bad one
    for k in enumerate_types(7)[1:]:  # the zero type has nothing to decompose
        for tree in enumerate_trees(k):
            _, marked = decompose_tree(tree)
            assert MarkedTree(marked.tree, marked.mark) == marked
    cherry = OrderedTree.parse("(()())")
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            MarkedTree(cherry, bad)


def test_marked_tree_text_forms():
    assert [m.serialize() for m in enumerate_marked_trees(V((0, 1)))] == [
        "(*())",
        "(()*)",
    ]
    assert MarkedTree.parse("(()*)") == MarkedTree(OrderedTree.parse("(()())"), 1)
    assert MarkedTree.parse("*") == MarkedTree(LEAF, 0)
    with pytest.raises(ValueError):
        MarkedTree.parse("(()())")  # no mark
    with pytest.raises(ValueError):
        MarkedTree.parse("(**)")  # two marks
    deep = "(" * 3000 + "{}" + ")" * 3000
    for bad in [deep.format("()"), deep.format("**")]:
        with pytest.raises(ValueError):
            MarkedTree.parse(bad)


def test_decompose_examples():
    n, marked = decompose_tree(OrderedTree.parse("(()())"))
    assert (n, marked.serialize()) == (2, "*")

    n, marked = decompose_tree(OrderedTree.parse("((()())())"))
    assert (n, marked.serialize()) == (2, "(*())")

    n, marked = decompose_tree(OrderedTree.parse("(()(()()))"))
    assert (n, marked.serialize()) == (2, "(()*)")

    with pytest.raises(ValueError):
        decompose_tree(LEAF)


def test_compose_examples():
    assert compose_tree(2, MarkedTree.parse("*")).serialize() == "(()())"
    assert compose_tree(3, MarkedTree.parse("(*())")).serialize() == "((()()())())"
    with pytest.raises(ValueError):
        compose_tree(0, MarkedTree.parse("*"))


def test_decompose_compose_roundtrip_exhaustive():
    for m in enumerate_types(6):
        if not m:
            continue
        for tree in enumerate_trees(m):
            n, marked = decompose_tree(tree)
            assert tree_type(marked.tree) == m - V.unit(n)
            assert compose_tree(n, marked) == tree
        for n in range(1, len(m.entries) + 1):
            if not m.multiplicity(n):
                continue
            for marked in enumerate_marked_trees(m - V.unit(n)):
                assert decompose_tree(compose_tree(n, marked)) == (n, marked)


@given(random_trees.filter(lambda t: not t.is_leaf))
def test_decompose_compose_roundtrip_random(tree):
    n, marked = decompose_tree(tree)
    assert compose_tree(n, marked) == tree


def test_root_decompose_examples():
    assert [t.serialize() for t in root_decompose(OrderedTree.parse("(()())"))] == [
        "()",
        "()",
    ]
    assert [t.serialize() for t in root_decompose(OrderedTree.parse("((())())"))] == [
        "(())",
        "()",
    ]
    with pytest.raises(ValueError):
        root_decompose(LEAF)


def test_root_decompose_of_a_deep_chain_is_linear():
    # children reads the root's spans only, not every subtree of the chain
    chain = OrderedTree.parse("(" * 5000 + "()" + ")" * 5000)
    tracemalloc.start()
    try:
        parts = root_decompose(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parts == [OrderedTree.parse("(" * 4999 + "()" + ")" * 4999)]
    assert peak < 10_000_000


def test_root_decompose_type_bookkeeping():
    for m in enumerate_types(6):
        if not m:
            continue
        for tree in enumerate_trees(m):
            parts = root_decompose(tree)
            total = V.unit(len(parts))
            for part in parts:
                total = total + tree_type(part)
            assert total == m
            assert OrderedTree(tuple(parts)) == tree


def test_root_decompose_realizes_functional_equation():
    # grouping trees by root degree and child types reproduces the coefficient
    # identity behind S = 1 + sum_n t_n S^n
    for m in enumerate_types(6):
        if not m:
            continue
        signatures = [
            tuple(part.serialize() for part in root_decompose(tree))
            for tree in enumerate_trees(m)
        ]
        assert len(set(signatures)) == len(signatures)
        total = 0
        seen_compositions = {
            tuple(tree_type(OrderedTree.parse(s)) for s in sig) for sig in signatures
        }
        for composition in seen_compositions:
            product = 1
            for part_type in composition:
                product *= len(enumerate_trees(part_type))
            total += product
        assert total == len(enumerate_trees(m))
