import pytest
from hypothesis import given
from hypothesis import strategies as st

from geode import (
    LEAF,
    MarkedSubdigon,
    OrderedTree,
    Subdigon,
    TRIVIAL,
    TypeVector,
    clawed_nodes,
    compose_subdigon,
    count_initial_external_edges,
    count_initial_leaves,
    count_marked_subdigons,
    count_marked_trees,
    decompose_subdigon,
    decompose_tree,
    enumerate_marked_subdigons,
    enumerate_subdigons,
    enumerate_trees,
    enumerate_types,
    external_edges_ccw,
    external_faces,
    hyper_catalan,
    post_order,
    subdigon_to_tree,
    subdigon_type,
    tree_to_subdigon,
    tree_type,
    verify_bijections,
)

V = TypeVector

SECT2_SUBDIGON = "((()((()())()))()()(((()()()))(())()))"

TRIANGLE = Subdigon((None, None))

random_subdigons = st.recursive(
    st.just(TRIVIAL),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda parts: Subdigon(tuple(None if p.is_trivial else p for p in parts))
    ),
    max_leaves=12,
)


def test_canonical_form_rejects_glued_trivial():
    with pytest.raises(ValueError):
        Subdigon((TRIVIAL,))


def test_parse_serialize():
    assert Subdigon.parse("*e*") == TRIVIAL
    assert Subdigon.parse("(()())") == TRIANGLE
    assert Subdigon.parse(SECT2_SUBDIGON).serialize() == SECT2_SUBDIGON
    with pytest.raises(ValueError):
        Subdigon.parse("()")  # a bare boundary edge is not a subdigon
    for bad in ["(()", "", ")", "()()", "(*)", "(" * 3000]:
        with pytest.raises(ValueError):
            Subdigon.parse(bad)


def test_deep_chain_parses_without_recursion():
    chain = Subdigon.parse("(" * 3000 + ")" * 3000)
    assert subdigon_type(chain) == V((2999,))

    # a 3000-deep chain of bigons; compared by text, as == still recurses
    text = "(" * 3000 + "()" + ")" * 3000
    deep = Subdigon.parse(text)
    assert deep.serialize() == text
    tree = subdigon_to_tree(deep)
    assert tree.serialize() == text
    assert tree_to_subdigon(tree).serialize() == text
    assert external_edges_ccw(deep) == [(0,) * 3000]
    assert [(p, f.serialize()) for p, f in external_faces(deep)] == [
        ((0,) * 2999, "(())")
    ]
    assert count_initial_external_edges(deep) == 1
    n, marked = decompose_subdigon(deep)
    assert (n, marked.mark) == (1, 0)
    assert marked.serialize() == "(" * 2999 + "*" + ")" * 2999
    assert compose_subdigon(n, marked).serialize() == text
    assert count_marked_subdigons(V((1200,))) == 1
    assert count_marked_subdigons(V.unit(1200)) == 1200


def test_type_examples():
    assert subdigon_type(TRIVIAL) == V.zero()
    assert subdigon_type(TRIANGLE) == V((0, 1))
    assert subdigon_type(Subdigon.parse(SECT2_SUBDIGON)) == V((2, 3, 2, 1))


def test_structure_map_examples():
    assert subdigon_to_tree(TRIVIAL) == LEAF
    assert subdigon_to_tree(TRIANGLE).serialize() == "(()())"
    assert tree_to_subdigon(OrderedTree.parse("(())")).serialize() == "(())"  # bigon
    assert tree_to_subdigon(LEAF) == TRIVIAL


def test_structure_map_is_a_type_preserving_bijection():
    for m in enumerate_types(6):
        trees = enumerate_trees(m)
        subs = enumerate_subdigons(m)
        assert len(subs) == len(trees) == hyper_catalan(m)
        images = [subdigon_to_tree(s) for s in subs]
        assert sorted(t.serialize() for t in images) == sorted(
            t.serialize() for t in trees
        )
        for s, t in zip(subs, images):
            assert tree_type(t) == m
            assert tree_to_subdigon(t) == s


@given(random_subdigons)
def test_roundtrip_random(sub):
    assert tree_to_subdigon(subdigon_to_tree(sub)) == sub
    assert subdigon_type(sub) == tree_type(subdigon_to_tree(sub))


def test_external_faces_examples():
    assert external_faces(TRIVIAL) == []
    assert external_faces(TRIANGLE) == [((), TRIANGLE)]
    assert len(external_faces(Subdigon.parse(SECT2_SUBDIGON))) == 3


def test_external_edges_examples():
    assert external_edges_ccw(TRIVIAL) == [()]
    assert external_edges_ccw(TRIANGLE) == [(0,), (1,)]


def test_walk_agrees_with_post_order_under_the_structure_map():
    for m in enumerate_types(6):
        for sub in enumerate_subdigons(m):
            tree = subdigon_to_tree(sub)
            leaf_paths = [p for p, node in post_order(tree) if node.is_leaf]
            if sub.is_trivial:
                assert external_edges_ccw(sub) == [()] and leaf_paths == [()]
                continue
            assert external_edges_ccw(sub) == leaf_paths
            assert [p for p, _ in external_faces(sub)] == [
                p for p, _ in clawed_nodes(tree)
            ]


def test_markable_edge_counts():
    assert count_initial_external_edges(TRIVIAL) == 1
    assert count_initial_external_edges(TRIANGLE) == 2
    # face behind the second slot: the edge before it stays markable
    assert count_initial_external_edges(Subdigon.parse("(()(()()))")) == 3


@given(random_subdigons)
def test_markable_count_mirrors_initial_leaves(sub):
    assert count_initial_external_edges(sub) == count_initial_leaves(
        subdigon_to_tree(sub)
    )


def test_marked_subdigon_invariant():
    deep = Subdigon.parse("((())())")  # first external face is the inner bigon
    assert count_initial_external_edges(deep) == 1
    MarkedSubdigon(deep, 0)
    with pytest.raises(ValueError):
        MarkedSubdigon(deep, 1)


def test_count_marked_subdigons_examples():
    assert count_marked_subdigons(V.zero()) == 1
    assert count_marked_subdigons(V((0, 1))) == 2
    assert count_marked_subdigons(V((1, 1))) == 5


def test_marked_counts_agree_with_trees():
    for m in enumerate_types(6):
        assert count_marked_subdigons(m) == count_marked_trees(m)
        assert len(enumerate_marked_subdigons(m)) == count_marked_subdigons(m)


def test_decompose_examples():
    n, marked = decompose_subdigon(TRIANGLE)
    assert (n, marked.subdigon, marked.mark) == (2, TRIVIAL, 0)

    n, marked = decompose_subdigon(Subdigon.parse("((()))"))
    assert (n, marked.subdigon.serialize(), marked.mark) == (1, "(())", 0)

    with pytest.raises(ValueError):
        decompose_subdigon(TRIVIAL)


def test_compose_examples():
    assert compose_subdigon(2, MarkedSubdigon(TRIVIAL, 0)) == TRIANGLE
    bigon = Subdigon.parse("(())")
    assert compose_subdigon(1, MarkedSubdigon(bigon, 0)).serialize() == "((()))"
    with pytest.raises(ValueError):
        compose_subdigon(0, MarkedSubdigon(TRIVIAL, 0))


def test_decompose_compose_roundtrip_exhaustive():
    for m in enumerate_types(6):
        if not m:
            continue
        for sub in enumerate_subdigons(m):
            n, marked = decompose_subdigon(sub)
            assert subdigon_type(marked.subdigon) == m - V.unit(n)
            assert compose_subdigon(n, marked) == sub
        for n in range(1, len(m.entries) + 1):
            if not m.multiplicity(n):
                continue
            for marked in enumerate_marked_subdigons(m - V.unit(n)):
                assert decompose_subdigon(compose_subdigon(n, marked)) == (n, marked)


def test_decompositions_commute_with_the_structure_map():
    for m in enumerate_types(6):
        if not m:
            continue
        for sub in enumerate_subdigons(m):
            n_sub, marked_sub = decompose_subdigon(sub)
            n_tree, marked_tree = decompose_tree(subdigon_to_tree(sub))
            assert n_sub == n_tree
            assert subdigon_to_tree(marked_sub.subdigon) == marked_tree.tree
            assert marked_sub.mark == marked_tree.mark


def test_marked_serialization():
    assert MarkedSubdigon(TRIVIAL, 0).serialize() == "*"
    assert MarkedSubdigon(TRIANGLE, 1).serialize() == "(()*)"


def test_verify_bijections_report():
    report = verify_bijections(5)
    assert report.passed
    assert len(report.groups) == 5
    assert all(group.checked > 0 for group in report.groups)
