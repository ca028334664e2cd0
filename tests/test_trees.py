import contextlib
import io
import tracemalloc
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import geode.trees as trees_module
import oracles
from geode import (
    LEAF,
    MarkedTree,
    OrderedTree,
    TypeVector,
    cli,
    compose_tree,
    count_initial_leaves,
    count_marked_trees,
    decompose_tree,
    enumerate_trees,
    enumerate_types,
    tree_to_subdigon,
)
from oracles import (
    all_tree_brackets,
    bracket_initial_leaves,
    bracket_type,
    clawed_nodes,
    enumerate_marked_trees,
    nested_tuple,
    node_paths,
    post_order,
    word_type,
)

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
    assert word_type(chain.word) == (2999,)
    assert chain.serialize() == text

    marked_text = "(" * 3000 + "*" + ")" * 3000
    assert MarkedTree.parse(marked_text).serialize() == marked_text

    n, marked = decompose_tree(chain)
    assert (n, marked.serialize()) == (1, "(" * 2998 + "*" + ")" * 2998)
    assert marked == MarkedTree.parse("(" * 2998 + "*" + ")" * 2998)
    assert compose_tree(n, marked).serialize() == text
    assert compose_tree(n, marked) == chain

    assert count_marked_trees(V((1200,))) == 1


def test_a_deep_chain_lists_in_linear_memory():
    # one word of 3,001 letters and its text: a memo per prefix of the word
    # would hold about 4.5 million letters (36 MB) at this depth
    for extra, text in [
        ([], "(" * 3001 + ")" * 3001 + "\n"),
        (["--marked"], "(" * 3000 + "*" + ")" * 3000 + "\n"),
    ]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["trees", "--type", "1", *extra]) == 0  # loads the modules
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                argv = ["trees", "--type", "3000", "--max-enum-weight", "3000", *extra]
                assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.getvalue() == text
        assert peak < 2**20


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
    assert word_type(LEAF.word) == ()
    assert word_type(OrderedTree.parse("(()())").word) == (0, 1)
    assert word_type(OrderedTree.parse(SECT2_TREE).word) == (2, 3, 2, 1)


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
    assert post_order(LEAF.word) == [0]

    tree = OrderedTree.parse("(()())")
    assert [not tree.word[i] for i in post_order(tree.word)] == [True, True, False]

    # left comb: the inner pair is finished before its sibling leaf
    text = "((()())())"
    order = post_order(OrderedTree.parse(text).word)
    assert order == [2, 3, 1, 4, 0]
    preorder_paths, _ = node_paths(text)
    assert [preorder_paths[i] for i in order] == [(0, 0), (0, 1), (0,), (1,), ()]


@given(random_trees)
def test_post_order_properties(tree):
    word = tree.word
    order = post_order(word)
    assert sorted(order) == list(range(V(word_type(word)).node_count))  # a permutation
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
    assert clawed_nodes(LEAF.word) == []
    assert clawed_nodes(OrderedTree.parse("(()())").word) == [0]
    assert clawed_nodes(OrderedTree.parse("(()(()()))").word) == [2]
    claws = clawed_nodes(OrderedTree.parse(SECT2_TREE).word)
    assert len(claws) == 3
    preorder_paths, _ = node_paths(SECT2_TREE)
    assert [preorder_paths[i] for i in claws] == [(0, 1, 0), (3, 0, 0), (3, 1)]


def test_first_internal_node_in_post_order_is_clawed():
    for m in enumerate_types(6):
        if not m:
            continue
        for tree in enumerate_trees(m):
            first_internal = next(i for i in post_order(tree.word) if tree.word[i])
            assert first_internal == clawed_nodes(tree.word)[0]


def _assert_walks_read_the_subdigon_image(tree):
    # the stack pass shares no code with the structure map, nor the claw scan
    # with _first_claw, so each checks the other by a second route
    word = tree.word
    assert [word[i] for i in post_order(word)] == list(tree_to_subdigon(tree).boundary)
    assert clawed_nodes(word)[:1] == ([trees_module._first_claw(word)] if word[0] else [])


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
    real, seen = oracles.count_initial_leaves, []
    monkeypatch.setattr(
        oracles, "count_initial_leaves", lambda tree: seen.append(tree) or real(tree)
    )
    m = V((2, 1, 1))
    marked = enumerate_marked_trees(m)  # through the validating MarkedTree constructor
    assert seen == enumerate_trees(m)
    assert len(marked) == count_marked_trees(m)
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
            assert word_type(marked.tree.word) == (m - V.unit(n)).entries
            assert compose_tree(n, marked) == tree
        for n, m_n in enumerate(m.entries, 1):
            if not m_n:
                continue
            for marked in enumerate_marked_trees(m - V.unit(n)):
                assert decompose_tree(compose_tree(n, marked)) == (n, marked)


@given(random_trees.filter(lambda t: t != LEAF))
def test_decompose_compose_roundtrip_random(tree):
    n, marked = decompose_tree(tree)
    assert compose_tree(n, marked) == tree


def _splits(k, n):
    """Every ordered n-tuple of types summing to k."""
    if n == 1:
        return [(k,)]
    splits = []
    for head in enumerate_types(k.edge_weight):
        try:
            rest = k - head
        except ValueError:  # the head exceeds k at some entry
            continue
        splits += [(head, *tail) for tail in _splits(rest, n - 1)]
    return splits


def _tree_of(nested):
    """Build a tree from the nested-tuple oracle with the children constructor."""
    return OrderedTree(tuple(map(_tree_of, nested)))


def test_root_decompose_type_bookkeeping():
    # a tree of type m splits at its root into n subtrees whose types sum to
    # m - e_n, and the children constructor puts them back together
    for m in enumerate_types(6)[1:]:
        for tree in enumerate_trees(m):
            parts = [_tree_of(child) for child in nested_tuple(tree.serialize())]
            total = V.unit(len(parts))
            for part in parts:
                total = total + V(word_type(part.word))
            assert total == m
            assert OrderedTree(tuple(parts)) == tree


def test_root_decompose_realizes_functional_equation():
    # the bijection behind S = 1 + sum_n t_n S^n: a tree of type m is a root
    # with n children over an ordered n-tuple of trees whose types sum to m - e_n
    for m in enumerate_types(6)[1:]:
        built = [
            OrderedTree(parts)
            for n, m_n in enumerate(m.entries, 1)
            if m_n
            for split in _splits(m - V.unit(n), n)
            for parts in product(*map(enumerate_trees, split))
        ]
        assert sorted(t.word for t in built) == [t.word for t in enumerate_trees(m)]
