import copy
import hashlib
import pickle
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import geode.subdigons as subdigons_module
import geode.trees as trees_module
import oracles
from geode import (
    LEAF,
    MarkedSubdigon,
    MarkedTree,
    OrderedTree,
    Subdigon,
    TRIVIAL,
    TypeVector,
    compose_subdigon,
    count_initial_external_edges,
    count_initial_leaves,
    count_marked_subdigons,
    count_marked_trees,
    decompose_subdigon,
    decompose_tree,
    enumerate_subdigons,
    enumerate_trees,
    enumerate_types,
    hyper_catalan,
    subdigon_to_tree,
    tree_to_subdigon,
    verify_bijections,
)
from oracles import (
    clawed_nodes,
    enumerate_marked_subdigons,
    external_edges_ccw,
    external_faces,
    nested_tuple,
    node_paths,
    post_order,
    word_type,
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
    assert word_type(chain.boundary) == (2999,)

    # a 3000-deep chain of bigons
    text = "(" * 3000 + "()" + ")" * 3000
    deep = Subdigon.parse(text)
    assert deep.serialize() == text
    tree = subdigon_to_tree(deep)
    assert tree.serialize() == text
    assert tree == OrderedTree.parse(text)
    assert tree_to_subdigon(tree).serialize() == text
    assert tree_to_subdigon(tree) == deep
    # the one boundary edge comes first, and the innermost bigon completes on it
    assert external_edges_ccw(deep.boundary) == [0]
    assert external_faces(deep.boundary) == [1] and deep.boundary[:2] == (0, 1)
    _, postorder_paths = node_paths(text)
    assert [postorder_paths[i] for i in external_edges_ccw(deep.boundary)] == [(0,) * 3000]
    assert [postorder_paths[i] for i in external_faces(deep.boundary)] == [(0,) * 2999]
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
    assert word_type(TRIVIAL.boundary) == ()
    assert word_type(TRIANGLE.boundary) == (0, 1)
    assert word_type(Subdigon.parse(SECT2_SUBDIGON).boundary) == (2, 3, 2, 1)


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
            assert word_type(t.word) == m.entries
            assert tree_to_subdigon(t) == s


def test_tree_and_subdigon_types_agree_under_the_structure_map():
    trees = [t for m in enumerate_types(8) for t in enumerate_trees(m)]
    assert trees[0] == LEAF and tree_to_subdigon(LEAF) == TRIVIAL
    for t in trees:
        assert word_type(t.word) == word_type(tree_to_subdigon(t).boundary)


def test_enumeration_order_is_pinned():
    # one "type:subdigon" line per subdigon of weight <= 7, in enumeration order
    digest = hashlib.sha256()
    lines = 0
    for m in enumerate_types(7):
        for sub in enumerate_subdigons(m):
            digest.update(f"{m.text}:{sub.serialize()}\n".encode())
            lines += 1
    assert lines == 626  # the Catalan numbers C_0 + ... + C_7
    assert digest.hexdigest() == (
        "0a8f48078fed2b10d22d66d7e1d58c6b7f312ba5838c23e2ac25195cb5c53abf"
    )


def test_boundary_word_order_is_pinned():
    # the letters of each boundary word, one word per line, over every type up to weight 8
    lines = [
        " ".join(map(str, sub.boundary))
        for m in enumerate_types(8)
        for sub in enumerate_subdigons(m)
    ]
    assert len(lines) == 2056  # the Catalan numbers C_0 + ... + C_8
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "939dc5d11d7c7f918310355e375f3eb949f70fb8dd66a336837c08dc7e1a7cca"
    )


def test_hostile_sizes_enumerate_in_loops():
    # a chain of 3,000 bigons and one face of 3,001 edges, one subdigon each:
    # the chain caches a word for every lighter type (about 36 MB of letters),
    # and the face's 3,000 slots are filled by a loop, not by recursion
    subdigons_module._enumerate_subdigons_cached.cache_clear()
    subdigons_module._slot_groups.cache_clear()
    tracemalloc.start()
    try:
        start = time.process_time()
        chain = enumerate_subdigons(V((3000,)))
        face = enumerate_subdigons(V.unit(3000))
        elapsed = time.process_time() - start  # traced, which only slows it
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        subdigons_module._enumerate_subdigons_cached.cache_clear()
        subdigons_module._slot_groups.cache_clear()
    assert [sub.boundary for sub in chain] == [(0,) + (1,) * 3000]
    assert [sub.boundary for sub in face] == [(0,) * 3000 + (3000,)]
    assert elapsed < 1.4
    assert peak < 40 * 2**20


@given(random_subdigons)
def test_roundtrip_random(sub):
    assert tree_to_subdigon(subdigon_to_tree(sub)) == sub
    assert word_type(sub.boundary) == word_type(subdigon_to_tree(sub).word)


def _slot_path(sub, position):
    """The slot path of the node at a boundary-word position, read off the text."""
    _, postorder_paths = node_paths("()" if sub.is_trivial else sub.serialize())
    return postorder_paths[position]


def test_external_faces_examples():
    assert external_faces(TRIVIAL.boundary) == []
    assert external_faces(TRIANGLE.boundary) == [2]
    assert _slot_path(TRIANGLE, 2) == ()  # the central face
    sect2 = Subdigon.parse(SECT2_SUBDIGON)
    faces = external_faces(sect2.boundary)
    assert len(faces) == 3
    assert [_slot_path(sect2, i) for i in faces] == [(0, 1, 0), (3, 0, 0), (3, 1)]


def test_external_edges_examples():
    assert external_edges_ccw(TRIVIAL.boundary) == [0]
    edges = external_edges_ccw(TRIANGLE.boundary)
    assert edges == [0, 1]
    assert [_slot_path(TRIANGLE, i) for i in edges] == [(0,), (1,)]


def test_walk_agrees_with_post_order_under_the_structure_map():
    # a boundary-word position is the post-order rank of the tree image's node
    for m in enumerate_types(6):
        for sub in enumerate_subdigons(m):
            word = subdigon_to_tree(sub).word
            order = post_order(word)
            rank = {node: r for r, node in enumerate(order)}
            assert external_edges_ccw(sub.boundary) == [rank[i] for i in order if not word[i]]
            assert external_faces(sub.boundary) == [rank[i] for i in clawed_nodes(word)]


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
    real, seen = oracles.count_initial_external_edges, []
    monkeypatch.setattr(
        oracles, "count_initial_external_edges", lambda sub: seen.append(sub) or real(sub)
    )
    m = V((2, 1, 1))
    marked = enumerate_marked_subdigons(m)  # through the validating MarkedSubdigon constructor
    assert seen == enumerate_subdigons(m)
    assert len(marked) == count_marked_subdigons(m)
    # decompose_subdigon builds its result unchecked; the public constructor
    # accepts every mark it makes and still rejects a bad one
    for k in enumerate_types(7)[1:]:  # the zero type has nothing to decompose
        for sub in enumerate_subdigons(k):
            _, marked = decompose_subdigon(sub)
            assert MarkedSubdigon(marked.subdigon, marked.mark) == marked
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            MarkedSubdigon(TRIANGLE, bad)


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
            assert word_type(marked.subdigon.boundary) == (m - V.unit(n)).entries
            assert compose_subdigon(n, marked) == sub
        for n, m_n in enumerate(m.entries, 1):
            if not m_n:
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


def _glued(sub, path, face):
    """The text of sub with the boundary edge at a slot path replaced by the text face."""
    text = "()" if sub.is_trivial else sub.serialize()  # the trivial subdigon's lone edge
    preorder_paths, _ = node_paths(text)
    start = -1
    for _ in range(preorder_paths.index(path) + 1):  # step to that node's "("
        start = text.index("(", start + 1)
    return text[:start] + face + text[start + 2 :]


def test_compose_glues_onto_the_edge_the_boundary_walk_lists():
    for m in enumerate_types(5):
        for marked in enumerate_marked_subdigons(m):
            edge = external_edges_ccw(marked.subdigon.boundary)[marked.mark]
            path = _slot_path(marked.subdigon, edge)
            expected = Subdigon.parse(_glued(marked.subdigon, path, "(()())"))
            assert compose_subdigon(2, marked) == expected


def _nested(sub):
    """The oracle's nested tuples of a subdigon's text: a slot is () or a glued face."""
    return () if sub.is_trivial else nested_tuple(sub.serialize())


def _from_slots(face):
    """The subdigon built slot by slot through the public constructor."""
    return Subdigon(tuple(_from_slots(slot) if slot else None for slot in face))


def test_boundary_words_are_pinned():
    assert TRIVIAL.boundary == (0,)
    assert TRIANGLE.boundary == (0, 0, 2)
    assert Subdigon((None,)).boundary == (0, 1)  # the bigon
    assert Subdigon.parse(SECT2_SUBDIGON).boundary == (
        (0, 0, 0, 2, 0, 2, 2) + (0,) + (0,) + (0, 0, 0, 3, 1, 0, 1, 0, 3) + (4,)
    )
    for m in enumerate_types(7):
        for sub in enumerate_subdigons(m):
            assert _from_slots(_nested(sub)) == sub


@pytest.mark.parametrize("cached", [False, True])
def test_copy_and_pickle_before_and_after_caching(cached):
    # A Subdigon caches nothing now; hashing it first must still leave every
    # copy and pickle equal to the original.
    sub = Subdigon.parse(SECT2_SUBDIGON)
    marked = MarkedSubdigon(sub, 0)
    if cached:
        hash(sub)
    for value in (sub, marked):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value)
    assert copy.deepcopy(sub).serialize() == SECT2_SUBDIGON


def test_hostile_depth_stays_linear():
    k = 50_000
    texts = [
        "(" * k + "()" + ")" * k,  # a chain of bigons, k deep
        "(" * k + "()" + "())" * k,  # a left comb: each triangle glues its first slot
        "(()" * k + "()" + ")" * k,  # a right comb: each triangle glues its second slot
    ]
    start = time.process_time()
    for text in texts:
        sub = Subdigon.parse(text)
        assert sub.serialize() == text
        tree = subdigon_to_tree(sub)
        assert tree.word == OrderedTree.parse(text).word
        assert tree_to_subdigon(tree) == sub
        assert sum(word_type(sub.boundary)) == k
        marks = count_initial_external_edges(sub)
        n, marked = decompose_subdigon(sub)
        assert marked.mark < marks
        assert compose_subdigon(n, marked) == sub
        # the words against the oracle walks, at full depth
        order = post_order(tree.word)
        assert [tree.word[i] for i in order] == list(sub.boundary)
        assert clawed_nodes(tree.word) == [trees_module._first_claw(tree.word)]
        assert external_faces(sub.boundary) == [marked.mark + n]
        edges = external_edges_ccw(sub.boundary)
        assert edges == [r for r, i in enumerate(order) if not tree.word[i]]
    assert time.process_time() - start < 5


def _failing_groups(report):
    assert not report.passed
    return {group.label for group in report.groups if group.mismatches}


def _coverage_mismatches(report):
    (group,) = [g for g in report.groups if g.label == "deletion bijects onto marked structures"]
    return group.mismatches


def test_verify_bijections_detects_a_corrupted_structure_map(monkeypatch):
    real = subdigons_module.tree_to_subdigon
    target = OrderedTree.parse("((())())")  # the root's two subtrees differ

    def corrupted(tree):  # the root's subtrees swapped
        return Subdigon.parse("(()(()))") if tree == target else real(tree)

    monkeypatch.setattr(subdigons_module, "tree_to_subdigon", corrupted)
    assert _failing_groups(verify_bijections(4)) == {
        "structure maps invert each other and preserve type"
    }


def test_verify_bijections_detects_a_corrupted_inverse_structure_map(monkeypatch):
    real = subdigons_module.subdigon_to_tree
    target = Subdigon.parse("((())())")
    wrong = OrderedTree.parse("(()(()))")  # the same type, another tree

    def corrupted(sub):
        return wrong if sub == target else real(sub)

    monkeypatch.setattr(subdigons_module, "subdigon_to_tree", corrupted)
    assert "structure maps invert each other and preserve type" in _failing_groups(
        verify_bijections(4)
    )


def test_verify_bijections_runs_each_map_once_per_object(monkeypatch):
    calls = dict.fromkeys(
        [
            "tree_to_subdigon",
            "subdigon_to_tree",
            "decompose_tree",
            "compose_tree",
            "decompose_subdigon",
            "compose_subdigon",
        ],
        0,
    )

    def counted(name):
        real = getattr(subdigons_module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(subdigons_module, name, counted(name))
    assert verify_bijections(6).passed
    trees = sum(hyper_catalan(m) for m in enumerate_types(6))
    assert trees == 197
    assert calls.pop("tree_to_subdigon") == trees
    assert calls.pop("subdigon_to_tree") == trees
    # the one-node tree and the trivial subdigon have nothing to decompose
    assert calls == dict.fromkeys(calls, trees - 1)


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
    # both subdigons of type (0,2) now delete to the triangle marked 1: one
    # wanted structure is reached and one is missed, so that side counts 0 of 2
    assert _coverage_mismatches(verify_bijections(4)) == (("0,2", 4, 2),)


def test_verify_bijections_reports_a_deletion_no_lighter_type_enumerated(monkeypatch):
    real = subdigons_module.decompose_subdigon
    target = Subdigon.parse("((())())")
    heavier = compose_subdigon(2, MarkedSubdigon(target, 0))  # weight 5, past the bound

    def corrupted(sub):
        n, marked = real(sub)
        return (n, MarkedSubdigon(heavier, 0)) if sub == target else (n, marked)

    monkeypatch.setattr(subdigons_module, "decompose_subdigon", corrupted)
    # no lighter type's table holds a tree image for `heavier`, and the miss is a failure
    assert "deletion commutes with the structure map" in _failing_groups(verify_bijections(4))


def test_verify_bijections_detects_a_corrupted_attachment(monkeypatch):
    real = subdigons_module.compose_subdigon
    target = (2, MarkedSubdigon(TRIANGLE, 1))

    def corrupted(n, marked):  # "(()(()()))" with its central face's slots swapped
        return Subdigon.parse("((()())())") if (n, marked) == target else real(n, marked)

    monkeypatch.setattr(subdigons_module, "compose_subdigon", corrupted)
    assert _failing_groups(verify_bijections(4)) == {"deletion/attachment round trips"}


def test_verify_bijections_detects_a_type_changing_tree_map(monkeypatch):
    real = subdigons_module.tree_to_subdigon
    target = OrderedTree.parse("(()())")  # type (0,1); the square has type (0,0,1)

    def corrupted(tree):
        return Subdigon((None, None, None)) if tree == target else real(tree)

    monkeypatch.setattr(subdigons_module, "tree_to_subdigon", corrupted)
    assert _failing_groups(verify_bijections(4)) == {
        "structure maps invert each other and preserve type"
    }


def test_verify_bijections_detects_a_wrong_mark_from_leaf_stripping(monkeypatch):
    real = subdigons_module.decompose_tree
    target = OrderedTree.parse("((()())())")  # stripping leaves a cherry marked 0
    cherry = OrderedTree.parse("(()())")

    def corrupted(tree):
        n, marked = real(tree)
        if tree == target:
            marked = MarkedTree(marked.tree, 1)
        return n, marked

    assert real(target) == (2, MarkedTree(cherry, 0))
    monkeypatch.setattr(subdigons_module, "decompose_tree", corrupted)
    assert _coverage_mismatches(verify_bijections(4)) == (("0,2", 4, 2),)


def test_verify_bijections_detects_a_corrupted_leaf_attachment(monkeypatch):
    real = subdigons_module.compose_tree
    cherry = OrderedTree.parse("(()())")
    target = (2, MarkedTree(cherry, 1))

    def corrupted(n, marked):
        if (n, marked) == target:
            marked = MarkedTree(cherry, 0)  # attach to the other initial leaf
        return real(n, marked)

    monkeypatch.setattr(subdigons_module, "compose_tree", corrupted)
    assert _failing_groups(verify_bijections(4)) == {"deletion/attachment round trips"}


def test_verify_bijections_detects_a_short_wanted_set(monkeypatch):
    real = subdigons_module.count_initial_external_edges

    def short(sub):  # the triangle, the one subdigon of type (0,1), loses its last mark
        return real(sub) - (sub == TRIANGLE)

    monkeypatch.setattr(subdigons_module, "count_initial_external_edges", short)
    # each heavier type's deletions reach a structure no longer wanted
    assert _coverage_mismatches(verify_bijections(4)) == (("1,1", 6, 5), ("0,2", 4, 3))


def test_verify_bijections_wants_no_mark_below_a_limit_of_0(monkeypatch):
    real = subdigons_module.count_initial_external_edges

    def negative(sub):  # the triangle's limit of 2 comes out -2: none of its marks is wanted
        return -real(sub) if sub == TRIANGLE else real(sub)

    monkeypatch.setattr(subdigons_module, "count_initial_external_edges", negative)
    # the two deletions onto the triangle reach nothing wanted, whatever the sign
    assert _coverage_mismatches(verify_bijections(4)) == (("1,1", 6, 4), ("0,2", 4, 2))
