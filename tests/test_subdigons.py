import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import geode.subdigons as subdigons_module
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

    # a 3000-deep chain of bigons
    text = "(" * 3000 + "()" + ")" * 3000
    deep = Subdigon.parse(text)
    assert deep.serialize() == text
    tree = subdigon_to_tree(deep)
    assert tree.serialize() == text
    assert tree == OrderedTree.parse(text)
    assert tree_to_subdigon(tree).serialize() == text
    assert tree_to_subdigon(tree) == deep
    assert external_edges_ccw(deep) == [(0,) * 3000]
    assert [(p, f.serialize()) for p, f in external_faces(deep)] == [
        ((0,) * 2999, "(())")
    ]
    assert count_initial_external_edges(deep) == 1
    n, marked = decompose_subdigon(deep)
    assert (n, marked.mark) == (1, 0)
    assert marked.serialize() == "(" * 2999 + "*" + ")" * 2999
    assert compose_subdigon(n, marked).serialize() == text
    assert compose_subdigon(n, marked) == deep
    assert count_marked_subdigons(V((1200,))) == 1
    assert count_marked_subdigons(V.unit(1200)) == 1200


def test_deep_chains_compare_and_hash():
    text = "(" * 3000 + "()" + ")" * 3000
    a, b = Subdigon.parse(text), Subdigon.parse(text)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # the same depth, differing only in the innermost face
    assert a != Subdigon.parse("(" * 3000 + "()()" + ")" * 3000)


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


def test_marked_enumeration_counts_markable_edges_once_per_subdigon(monkeypatch):
    real, seen = subdigons_module.count_initial_external_edges, []
    monkeypatch.setattr(
        subdigons_module,
        "count_initial_external_edges",
        lambda sub: seen.append(sub) or real(sub),
    )
    m = V((2, 1, 1))
    marked = enumerate_marked_subdigons(m)
    assert seen == enumerate_subdigons(m)
    assert len(marked) == count_marked_subdigons(m)
    assert all(MarkedSubdigon(x.subdigon, x.mark) == x for x in marked)
    # the public constructor, and so the decompose map, still checks the mark
    monkeypatch.setattr(subdigons_module, "count_initial_external_edges", lambda sub: 0)
    with pytest.raises(ValueError):
        decompose_subdigon(TRIANGLE)


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


def test_deep_chains_decompose_and_compose_without_recursion():
    # every face a triangle gluing its second slot: the one boundary slot before
    # each glued one is markable, so marks run up to the depth
    text = "(()" * 3000 + "(()())" + ")" * 3000
    deep = Subdigon.parse(text)
    assert tree_to_subdigon(OrderedTree.parse(text)) == deep
    assert count_initial_external_edges(deep) == 3002
    n, marked = decompose_subdigon(deep)
    assert (n, marked.mark) == (2, 3000)
    assert compose_subdigon(n, marked) == deep
    # a mark part of the way down glues the new face there
    composed = compose_subdigon(1, MarkedSubdigon(deep, 1500))
    assert composed.serialize() == (
        "(()" * 1500 + "((())" + "(()" * 1499 + "(()())" + ")" * 3000
    )
    assert decompose_subdigon(composed) == (1, MarkedSubdigon(deep, 1500))


def test_compose_glues_onto_the_edge_the_boundary_walk_lists():
    for m in enumerate_types(5):
        for marked in enumerate_marked_subdigons(m):
            edge = external_edges_ccw(marked.subdigon)[marked.mark]
            expected = subdigons_module._replace_slot(
                marked.subdigon, edge, Subdigon((None, None))
            )
            assert compose_subdigon(2, marked) == expected


def test_cached_word_is_the_word_of_the_slots():
    for sub in [TRIVIAL, TRIANGLE, Subdigon.parse(SECT2_SUBDIGON)]:
        fresh = subdigons_module._slot_word(sub)
        hash(sub)
        assert sub._word == fresh
        assert subdigon_to_tree(sub).word == fresh
    built = tree_to_subdigon(OrderedTree.parse(SECT2_SUBDIGON))
    assert not hasattr(built, "_word")  # computed on first use, not copied from the tree
    assert built == Subdigon.parse(SECT2_SUBDIGON)
    assert built._word == subdigons_module._slot_word(built)


@pytest.mark.parametrize("cached", [False, True])
def test_copy_and_pickle_before_and_after_caching(cached):
    sub = Subdigon.parse(SECT2_SUBDIGON)
    marked = MarkedSubdigon(sub, 0)
    if cached:
        hash(sub)
    for value in (sub, marked):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value)
    assert copy.deepcopy(sub).serialize() == SECT2_SUBDIGON


def _failing_groups(report):
    assert not report.passed
    return {group.label for group in report.groups if group.mismatches}


def test_verify_bijections_detects_a_corrupted_structure_map(monkeypatch):
    real = subdigons_module.tree_to_subdigon
    target = OrderedTree.parse("((())())")  # the root's two subtrees differ

    def corrupted(tree):
        sub = real(tree)
        return Subdigon(sub.slots[::-1]) if tree == target else sub

    monkeypatch.setattr(subdigons_module, "tree_to_subdigon", corrupted)
    assert _failing_groups(verify_bijections(4)) == {
        "structure maps invert each other and preserve type"
    }


def test_verify_bijections_detects_a_wrong_mark_from_deletion(monkeypatch):
    real = subdigons_module.decompose_subdigon
    target = Subdigon.parse("((()())())")  # deletion leaves a triangle marked 0

    def corrupted(sub):
        n, marked = real(sub)
        if sub == target:
            marked = MarkedSubdigon(marked.subdigon, 1)
        return n, marked

    assert real(target)[1] == MarkedSubdigon(TRIANGLE, 0)
    monkeypatch.setattr(subdigons_module, "decompose_subdigon", corrupted)
    failing = _failing_groups(verify_bijections(4))
    assert failing & {
        "deletion bijects onto marked structures",
        "deletion commutes with the structure map",
    }


def test_verify_bijections_detects_a_corrupted_attachment(monkeypatch):
    real = subdigons_module.compose_subdigon
    target = (2, MarkedSubdigon(TRIANGLE, 1))

    def corrupted(n, marked):
        sub = real(n, marked)
        return Subdigon(sub.slots[::-1]) if (n, marked) == target else sub

    monkeypatch.setattr(subdigons_module, "compose_subdigon", corrupted)
    assert _failing_groups(verify_bijections(4)) == {"deletion/attachment round trips"}
