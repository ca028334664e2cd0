"""Ordered rooted trees: typed enumeration, traversal, and leaf marking.

An ordered tree is a rooted tree whose children carry a left-to-right order.
Its type is the vector m with m_n = number of nodes having exactly n
children (the downdegree sequence), so a tree of type m has edge_weight(m)
edges and leaf_count(m) leaves.

A tree is stored as its preorder degree word (Lukasiewicz code), the child
counts of its nodes in preorder, read-only as ``tree.word``; so trees compare
and hash as flat tuples at any depth, and every walk is a loop over words.
The same letters read in post-order are the boundary word of the tree's
subdigon image:

>>> tree = OrderedTree.parse("(()(()()))")
>>> tree.word
(2, 0, 2, 0, 0)
>>> from geode.subdigons import tree_to_subdigon
>>> tree_to_subdigon(tree).boundary
(0, 0, 0, 2, 2)

Text form: a leaf is "()" and an internal node wraps the forms of its
children, e.g. "(()())" is a root with two leaf children.  A marked tree
renders its marked leaf as "*".
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterator

from .series import TypeVector, _require_type, _Value

Word = tuple[int, ...]


class OrderedTree(_Value):
    __slots__ = ("word",)
    word: Word

    def __init__(self, children: tuple[OrderedTree, ...] = ()) -> None:
        for child in children:
            if not isinstance(child, OrderedTree):
                raise TypeError(f"a child must be an OrderedTree, got {child!r}")
        _set_word(self, (len(children), *chain.from_iterable(child.word for child in children)))

    _key = property(attrgetter("word"))

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
        return _tree(word)

    def __repr__(self) -> str:
        return f"OrderedTree.parse({self.serialize()!r})"


# The trusted constructors below skip validation and set each field through
# its slot's member descriptor, which _Value.__setattr__ does not intercept.
_new = object.__new__
_set_word = OrderedTree.word.__set__


def _tree(word: Word) -> OrderedTree:
    """Trusted constructor: wrap a valid preorder degree word as is."""
    tree = _new(OrderedTree)
    _set_word(tree, word)
    return tree


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

    __slots__ = ("tree", "mark")
    tree: OrderedTree
    mark: int

    def __init__(self, tree: OrderedTree, mark: int) -> None:
        if not isinstance(tree, OrderedTree):
            raise TypeError(f"tree must be an OrderedTree, got {tree!r}")
        if type(mark) is not int:
            raise TypeError(f"mark must be an int, got {mark!r}")
        limit = count_initial_leaves(tree)
        if not 0 <= mark < limit:
            raise ValueError(f"mark {mark} is not an initial leaf position (limit {limit})")
        _set_tree(self, tree)
        _set_mark(self, mark)

    _key = property(attrgetter("tree", "mark"))

    def serialize(self) -> str:
        return _mark_text(self.tree.serialize(), self.mark)

    @classmethod
    def parse(cls, text: str) -> MarkedTree:
        word, marks = _parse_brackets(text)
        if len(marks) != 1:
            raise ValueError(f"expected exactly one '*' in {text!r}, found {len(marks)}")
        return cls(_tree(word), marks[0])

    def __repr__(self) -> str:
        return f"MarkedTree.parse({self.serialize()!r})"


_set_tree = MarkedTree.tree.__set__
_set_mark = MarkedTree.mark.__set__


def _marked_tree(word: Word, mark: int) -> MarkedTree:
    """Trusted constructor: the tree of a valid preorder degree word, marked at
    a position known to be an initial leaf."""
    tree = _new(OrderedTree)
    _set_word(tree, word)
    marked = _new(MarkedTree)
    _set_tree(marked, tree)
    _set_mark(marked, mark)
    return marked


def _words(m: TypeVector) -> Iterator[Word]:
    """Every preorder degree word of type m, in ascending lexicographic order.

    A word spends m_n letters n and one 0 per leaf, and is admissible iff
    each proper prefix leaves a child slot open (the root has one; a letter
    d fills one and opens d).  Backtracks in a loop.
    """
    _require_type(m)
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
    return list(map(_tree, _words(m)))


def _first_claw(word: Word) -> int | None:
    """Preorder index of the first clawed node met in post-order, if any.

    That node ends the leftmost descent through non-leaf children, so it is
    the first nonzero letter whose next word[i] letters are all leaves.
    """
    for i, degree in enumerate(word):
        # most internal nodes have an internal first child: reject them unsliced
        if degree and not word[i + 1] and not any(word[i + 2 : i + 1 + degree]):
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
    return sum(map(_initial_leaves, _words(m)))


def decompose_tree(tree: OrderedTree) -> tuple[int, MarkedTree]:
    """Strip the first clawed node met in post-order.

    Returns (n, marked) where the clawed node had n (leaf) children; in the
    result it is a bare leaf carrying the mark.  Together with compose_tree
    this realizes the bijection between trees of type m and pairs
    (n, marked tree of type m - e_n) behind S = 1 + (t_1 + t_2 + ...) G.
    """
    if not isinstance(tree, OrderedTree):
        raise TypeError(f"tree must be an OrderedTree, got {tree!r}")
    word = tree.word
    i = _first_claw(word)
    if i is None:
        raise ValueError("the single-node tree has no clawed node to strip")
    n = word[i]
    stripped = word[:i] + (0,) + word[i + 1 + n :]
    return n, _marked_tree(stripped, word[:i].count(0))  # an initial leaf by construction


def compose_tree(n: int, marked: MarkedTree) -> OrderedTree:
    """Attach n leaf children to the marked leaf; inverse of decompose_tree."""
    if type(n) is not int:
        raise TypeError(f"child count must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"child count must be positive, got {n}")
    if not isinstance(marked, MarkedTree):
        raise TypeError(f"marked must be a MarkedTree, got {marked!r}")
    word = marked.tree.word
    i = -1
    for _ in range(marked.mark + 1):  # step to the mark-th leaf
        i = word.index(0, i + 1)
    return _tree(word[:i] + (n,) + (0,) * n + word[i + 1 :])

