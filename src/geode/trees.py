"""Ordered rooted trees: typed enumeration, traversal, and leaf marking.

An ordered tree is a rooted tree whose children carry a left-to-right order.
Its type is the vector m with m_n = number of nodes having exactly n
children (the downdegree sequence), so a tree of type m has edge_weight(m)
edges and leaf_count(m) leaves.

A tree is stored as its preorder degree word (Lukasiewicz code), the child
counts of its nodes in preorder, read-only as ``tree.word``; so trees compare
and hash as flat tuples at any depth, and every walk is a loop over words:

>>> OrderedTree.parse("(()(()()))").word == (2, 0, 2, 0, 0)
True

Text form: a leaf is "()" and an internal node wraps the forms of its
children, e.g. "(()())" is a root with two leaf children.  A marked tree
renders its marked leaf as "*".
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterator

from .series import TypeVector, _Value

Path = tuple[int, ...]
Word = tuple[int, ...]


class OrderedTree(_Value):
    __slots__ = ("word",)
    word: Word

    def __init__(self, children: tuple[OrderedTree, ...] = ()) -> None:
        word = (len(children), *chain.from_iterable(child.word for child in children))
        object.__setattr__(self, "word", word)

    _key = property(attrgetter("word"))

    def __reduce__(self) -> tuple:
        # copy and pickle would restore the slot through __setattr__
        return OrderedTree._from_word, (self.word,)

    @classmethod
    def _from_word(cls, word: Word) -> OrderedTree:
        """Trusted constructor: wrap a valid preorder degree word as is."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "word", word)
        return tree

    @property
    def children(self) -> tuple[OrderedTree, ...]:
        return tuple(node for path, node in post_order(self) if len(path) == 1)

    @property
    def is_leaf(self) -> bool:
        return not self.word[0]

    def serialize(self) -> str:
        parts: list[str] = []
        pending = [-1]  # children not yet closed, per open node, over a sentinel
        for degree in self.word:
            parts.append("(")
            pending.append(degree)
            while not pending[-1]:  # close every node this letter finishes
                pending.pop()
                parts.append(")")
                pending[-1] -= 1
        return "".join(parts)

    @classmethod
    def parse(cls, text: str) -> OrderedTree:
        word, marks = _parse_brackets(text)
        if marks:
            raise ValueError(f"unexpected '*' in unmarked text {text!r}")
        return cls._from_word(word)

    def __repr__(self) -> str:
        return f"OrderedTree.parse({self.serialize()!r})"


LEAF = OrderedTree()


def _parse_brackets(text: str) -> tuple[Word, list[int]]:
    """Scan the bracket grammar shared by trees and subdigons, without recursion.

    A node is "(" + its children + ")"; "*" is a childless node standing for
    a marked leaf.  Returns the preorder degree word and the post-order leaf
    positions of every "*", so callers that take no mark reject a non-empty
    list.
    """
    word: list[int] = []
    open_nodes: list[int] = []  # preorder index of each unclosed "("
    marks: list[int] = []
    leaves = 0
    for pos, char in enumerate(text):
        if word and not open_nodes:
            raise ValueError(f"trailing input after position {pos} in {text!r}")
        if char == "(" or char == "*":
            if open_nodes:
                word[open_nodes[-1]] += 1
            if char == "(":
                open_nodes.append(len(word))
            else:
                marks.append(leaves)
                leaves += 1
            word.append(0)
        elif char == ")" and open_nodes:
            if not word[open_nodes.pop()]:
                leaves += 1
        else:
            raise ValueError(f"unexpected {char!r} at position {pos} in {text!r}")
    if open_nodes or not word:
        raise ValueError(f"unbalanced or empty bracket text {text!r}")
    return tuple(word), marks


def _mark_text(text: str, mark: int) -> str:
    """Render the mark-th "()" of a bracket text as "*"."""
    # "()" occurs only as a childless node, so this is the mark-th leaf
    pieces = text.split("()", mark + 1)
    return "()".join(pieces[:-1]) + "*" + pieces[-1]


class MarkedTree(_Value):
    """A tree with one marked leaf, identified by its post-order position.

    Only *initial* leaves are markable: the marked leaf must be visited
    before any internal node in post-order traversal.
    """

    tree: OrderedTree
    mark: int

    def __init__(self, tree: OrderedTree, mark: int) -> None:
        limit = count_initial_leaves(tree)
        if not 0 <= mark < limit:
            raise ValueError(f"mark {mark} is not an initial leaf position (limit {limit})")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "mark", mark)

    _key = property(attrgetter("tree", "mark"))

    @classmethod
    def _from_valid(cls, tree: OrderedTree, mark: int) -> MarkedTree:
        """Trusted constructor: the mark is known to be an initial leaf of the tree."""
        marked = object.__new__(cls)
        object.__setattr__(marked, "tree", tree)
        object.__setattr__(marked, "mark", mark)
        return marked

    def serialize(self) -> str:
        return _mark_text(self.tree.serialize(), self.mark)

    @classmethod
    def parse(cls, text: str) -> MarkedTree:
        word, marks = _parse_brackets(text)
        if len(marks) != 1:
            raise ValueError(f"expected exactly one '*' in {text!r}, found {len(marks)}")
        return cls(OrderedTree._from_word(word), marks[0])

    def __repr__(self) -> str:
        return f"MarkedTree.parse({self.serialize()!r})"


def tree_type(tree: OrderedTree) -> TypeVector:
    """Downdegree counts: entry n is the number of nodes with n children."""
    return TypeVector(tuple(tree.word.count(n) for n in range(1, max(tree.word) + 1)))


def _words(m: TypeVector) -> Iterator[Word]:
    """Every preorder degree word of type m, in ascending lexicographic order.

    A word spends m_n letters n and one 0 per leaf, and is admissible iff
    each proper prefix leaves a child slot open (the root has one; a letter
    d fills one and opens d).  Backtracks in a loop.
    """
    counts = [m.leaf_count, *m.entries]  # letters still to place, by degree
    internal = m.node_count - m.leaf_count
    slots = 1  # open child slots after the prefix
    word: list[int] = []
    d = 0  # the next letter to try after the prefix
    while True:
        if not internal:
            # only leaves remain, and they fill the open slots exactly
            yield tuple(word) + (0,) * counts[0]
        elif d < len(counts):
            # an internal node is still to come, so a leaf must not close
            # the last open slot; the slots never outnumber the leaves left
            if counts[d] and (d or slots > 1):
                counts[d] -= 1
                word.append(d)
                slots, internal, d = slots - 1 + d, internal - bool(d), 0
            else:
                d += 1
            continue
        if not word:
            return
        # backtrack: take back the last letter and try the next one in its place
        d = word.pop()
        counts[d] += 1
        slots, internal, d = slots + 1 - d, internal + bool(d), d + 1


def enumerate_trees(m: TypeVector) -> list[OrderedTree]:
    """Every ordered tree of type m, exactly once, in a fixed order.

    Trees come in ascending lexicographic order of their degree words.
    """
    return [OrderedTree._from_word(word) for word in _words(m)]


def _spans(word: Word) -> Iterator[tuple[list[int], int, int]]:
    """(path, start, end) per node in post-order, word[start:end] being its subtree.

    One preorder scan emits each node when its last letter is read; the path
    is one live list, valid until the next step.
    """
    path: list[int] = []
    open_nodes: list[list[int]] = []  # [start, children not yet begun]
    for i, degree in enumerate(word):
        if open_nodes:
            parent = open_nodes[-1]
            path.append(word[parent[0]] - parent[1])
            parent[1] -= 1
        open_nodes.append([i, degree])
        while open_nodes and not open_nodes[-1][1]:
            yield path, open_nodes.pop()[0], i + 1
            del path[-1:]


def post_order(tree: OrderedTree) -> list[tuple[Path, OrderedTree]]:
    """(path, node) pairs with every node after all of its children.

    Children are traversed in their stored order, so leaves come out in
    left-to-right order.  Paths are child-index sequences from the root;
    they keep positions distinct even when equal subtrees repeat.
    """
    word = tree.word
    return [(tuple(p), OrderedTree._from_word(word[s:e])) for p, s, e in _spans(word)]


def clawed_nodes(tree: OrderedTree) -> list[tuple[Path, OrderedTree]]:
    """Internal nodes whose children are all leaves, in post-order position."""
    word = tree.word
    return [
        (tuple(path), OrderedTree._from_word(word[start:end]))
        for path, start, end in _spans(word)
        if end - start == word[start] + 1 > 1
    ]


def _first_claw(word: Word) -> int | None:
    """Preorder index of the first clawed node met in post-order, if any.

    That node ends the leftmost descent through non-leaf children, so it is
    the first nonzero letter whose next word[i] letters are all leaves.
    """
    for i, degree in enumerate(word):
        if degree and not any(word[i + 1 : i + 1 + degree]):
            return i
    return None


def _initial_leaves(word: Word) -> int:
    # every leaf before the first clawed node lies left of the descent, so
    # post-order visits it first; the claw's own leaves follow
    i = _first_claw(word)
    return 1 if i is None else word[:i].count(0) + word[i]


def count_initial_leaves(tree: OrderedTree) -> int:
    """Leaves visited before any internal node in post-order.

    The single-node tree has no internal node at all, so its one leaf counts.
    """
    return _initial_leaves(tree.word)


def count_marked_trees(m: TypeVector) -> int:
    """Number of (tree of type m, initial leaf) pairs; a Geode coefficient.

    Exhaustive over degree words, so only feasible at modest edge weight.
    """
    return sum(_initial_leaves(word) for word in _words(m))


def enumerate_marked_trees(m: TypeVector) -> list[MarkedTree]:
    return [
        MarkedTree._from_valid(tree, mark)
        for tree in enumerate_trees(m)
        for mark in range(count_initial_leaves(tree))
    ]


def decompose_tree(tree: OrderedTree) -> tuple[int, MarkedTree]:
    """Strip the first clawed node met in post-order.

    Returns (n, marked) where the clawed node had n (leaf) children; in the
    result it is a bare leaf carrying the mark.  Together with compose_tree
    this realizes the bijection between trees of type m and pairs
    (n, marked tree of type m - e_n) behind S = 1 + (t_1 + t_2 + ...) G.
    """
    word = tree.word
    i = _first_claw(word)
    if i is None:
        raise ValueError("the single-node tree has no clawed node to strip")
    n = word[i]
    stripped = OrderedTree._from_word(word[:i] + (0,) + word[i + 1 + n :])
    return n, MarkedTree(stripped, word[:i].count(0))


def compose_tree(n: int, marked: MarkedTree) -> OrderedTree:
    """Attach n leaf children to the marked leaf; inverse of decompose_tree."""
    if n < 1:
        raise ValueError(f"child count must be positive, got {n}")
    word = marked.tree.word
    i = [j for j, degree in enumerate(word) if not degree][marked.mark]
    return OrderedTree._from_word(word[:i] + (n,) + (0,) * n + word[i + 1 :])


def root_decompose(tree: OrderedTree) -> list[OrderedTree]:
    """The subtrees hanging off the root, in order.

    This is the bijection behind the functional equation S = 1 + sum t_n S^n:
    a tree whose root has n children corresponds to the ordered n-tuple of
    its root subtrees, and type(tree) = e_n + sum of subtree types.
    """
    if tree.is_leaf:
        raise ValueError("the single-node tree has no root subtrees")
    return list(tree.children)
