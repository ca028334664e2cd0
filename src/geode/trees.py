"""Ordered rooted trees: typed enumeration, traversal, and leaf marking.

An ordered tree is a rooted tree whose children carry a left-to-right order.
Its type is the vector m with m_n = number of nodes having exactly n
children (the downdegree sequence), so a tree of type m has edge_weight(m)
edges and leaf_count(m) leaves.

Internally a tree is its preorder degree word (Lukasiewicz code): the child
counts of its nodes in preorder, so "(()(()()))" is [2, 0, 2, 0, 0].
`enumerate_trees` and `count_marked_trees` run over words, and
`count_initial_leaves`, `decompose_tree` and `compose_tree` scan and splice
them.  `OrderedTree` is the nested public view, walked by loops only.

Text form: a leaf is "()" and an internal node wraps the forms of its
children, e.g. "(()())" is a root with two leaf children.  A marked tree
renders its marked leaf as "*".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from .series import TypeVector

Path = tuple[int, ...]
Node = TypeVar("Node")
Word = list[int]


@dataclass(frozen=True)
class OrderedTree:
    children: tuple[OrderedTree, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def serialize(self) -> str:
        parts: list[str] = []
        stack: list[OrderedTree | None] = [self]  # None closes a node
        while stack:
            node = stack.pop()
            if node is None:
                parts.append(")")
            else:
                parts.append("(")
                stack.append(None)
                stack += node.children[::-1]
        return "".join(parts)

    @classmethod
    def parse(cls, text: str) -> OrderedTree:
        tree, marks = _parse_brackets(text, OrderedTree)
        if marks:
            raise ValueError(f"unexpected '*' in unmarked text {text!r}")
        return tree

    def __repr__(self) -> str:
        return f"OrderedTree.parse({self.serialize()!r})"


LEAF = OrderedTree()


def _parse_brackets(
    text: str, make: Callable[[tuple], Node]
) -> tuple[Node, list[int]]:
    """Scan the bracket grammar shared by trees and subdigons, without recursion.

    A node is "(" + its children + ")" and is built by ``make(children)``;
    "*" is a childless node standing for a marked leaf.  Returns the root and
    the post-order leaf positions of every "*", so callers that take no mark
    reject a non-empty list.
    """
    stack: list[list[Node]] = [[]]
    marks: list[int] = []
    leaves = 0
    for pos, char in enumerate(text):
        if len(stack) == 1 and stack[0]:
            raise ValueError(f"trailing input after position {pos} in {text!r}")
        if char == "(":
            stack.append([])
        elif char == ")" and len(stack) > 1:
            children = stack.pop()
            if not children:
                leaves += 1
            stack[-1].append(make(tuple(children)))
        elif char == "*":
            marks.append(leaves)
            leaves += 1
            stack[-1].append(make(()))
        else:
            raise ValueError(f"unexpected {char!r} at position {pos} in {text!r}")
    if len(stack) > 1 or not stack[0]:
        raise ValueError(f"unbalanced or empty bracket text {text!r}")
    return stack[0][0], marks


def _mark_text(text: str, mark: int) -> str:
    """Render the mark-th "()" of a bracket text as "*"."""
    # "()" occurs only as a childless node, so this is the mark-th leaf
    pieces = text.split("()", mark + 1)
    return "()".join(pieces[:-1]) + "*" + pieces[-1]


@dataclass(frozen=True)
class MarkedTree:
    """A tree with one marked leaf, identified by its post-order position.

    Only *initial* leaves are markable: the marked leaf must be visited
    before any internal node in post-order traversal.
    """

    tree: OrderedTree
    mark: int

    def __post_init__(self) -> None:
        limit = count_initial_leaves(self.tree)
        if not 0 <= self.mark < limit:
            raise ValueError(
                f"mark {self.mark} is not an initial leaf position (limit {limit})"
            )

    def serialize(self) -> str:
        return _mark_text(self.tree.serialize(), self.mark)

    @classmethod
    def parse(cls, text: str) -> MarkedTree:
        tree, marks = _parse_brackets(text, OrderedTree)
        if len(marks) != 1:
            raise ValueError(f"expected exactly one '*' in {text!r}, found {len(marks)}")
        return cls(tree, marks[0])

    def __repr__(self) -> str:
        return f"MarkedTree.parse({self.serialize()!r})"


def tree_type(tree: OrderedTree) -> TypeVector:
    """Downdegree counts: entry n is the number of nodes with n children."""
    word = _word(tree)
    return TypeVector(tuple(word.count(n) for n in range(1, max(word) + 1)))


def _word(tree: OrderedTree) -> Word:
    """The preorder degree word of a tree."""
    word: Word = []
    stack = [tree]
    while stack:
        children = stack.pop().children
        word.append(len(children))
        stack += children[::-1]
    return word


def _tree_from_preorder(word: Word) -> OrderedTree:
    """Inverse of _word: evaluate the word right to left as Polish notation."""
    stack: list[OrderedTree] = []  # finished subtrees, the leftmost on top
    for degree in reversed(word):
        cut = len(stack) - degree
        stack[cut:] = [OrderedTree(tuple(stack[cut:][::-1])) if degree else LEAF]
    return stack[0]


def _words(m: TypeVector) -> Iterator[Word]:
    """Every preorder degree word of type m, in ascending lexicographic order.

    A word spends m_n letters n and one 0 per leaf, and is admissible iff
    each proper prefix leaves a child slot open (the root has one; a letter
    d fills one and opens d).  Backtracks in a loop; yields fresh lists.
    """
    counts = [m.leaf_count, *m.entries]  # letters still to place, by degree
    internal = m.node_count - m.leaf_count
    slots = 1  # open child slots after the prefix
    word: Word = []
    d = 0  # the next letter to try after the prefix
    while True:
        if not internal:
            # only leaves remain, and they fill the open slots exactly
            yield word + [0] * counts[0]
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
    return [_tree_from_preorder(word) for word in _words(m)]


def post_order(tree: OrderedTree) -> list[tuple[Path, OrderedTree]]:
    """(path, node) pairs with every node after all of its children.

    Children are traversed in their stored order, so leaves come out in
    left-to-right order.  Paths are child-index sequences from the root;
    they keep positions distinct even when equal subtrees repeat.
    """
    # the reverse of a preorder walk that visits children right to left
    out: list[tuple[Path, OrderedTree]] = []
    stack: list[tuple[Path, OrderedTree]] = [((), tree)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        stack += [(path + (i,), child) for i, child in enumerate(node.children)]
    return out[::-1]


def clawed_nodes(tree: OrderedTree) -> list[tuple[Path, OrderedTree]]:
    """Internal nodes whose children are all leaves, in post-order position."""
    return [
        (path, node)
        for path, node in post_order(tree)
        if node.children and all(child.is_leaf for child in node.children)
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
    return _initial_leaves(_word(tree))


def count_marked_trees(m: TypeVector) -> int:
    """Number of (tree of type m, initial leaf) pairs; a Geode coefficient.

    Exhaustive over degree words, so only feasible at modest edge weight.
    """
    return sum(_initial_leaves(word) for word in _words(m))


def enumerate_marked_trees(m: TypeVector) -> list[MarkedTree]:
    out: list[MarkedTree] = []
    for word in _words(m):
        tree = _tree_from_preorder(word)
        out += (MarkedTree(tree, mark) for mark in range(_initial_leaves(word)))
    return out


def decompose_tree(tree: OrderedTree) -> tuple[int, MarkedTree]:
    """Strip the first clawed node met in post-order.

    Returns (n, marked) where the clawed node had n (leaf) children; in the
    result it is a bare leaf carrying the mark.  Together with compose_tree
    this realizes the bijection between trees of type m and pairs
    (n, marked tree of type m - e_n) behind S = 1 + (t_1 + t_2 + ...) G.
    """
    word = _word(tree)
    i = _first_claw(word)
    if i is None:
        raise ValueError("the single-node tree has no clawed node to strip")
    n = word[i]
    word[i : i + 1 + n] = [0]
    return n, MarkedTree(_tree_from_preorder(word), word[:i].count(0))


def compose_tree(n: int, marked: MarkedTree) -> OrderedTree:
    """Attach n leaf children to the marked leaf; inverse of decompose_tree."""
    if n < 1:
        raise ValueError(f"child count must be positive, got {n}")
    word = _word(marked.tree)
    i = [j for j, degree in enumerate(word) if not degree][marked.mark]
    word[i : i + 1] = [n] + [0] * n
    return _tree_from_preorder(word)


def root_decompose(tree: OrderedTree) -> list[OrderedTree]:
    """The subtrees hanging off the root, in order.

    This is the bijection behind the functional equation S = 1 + sum t_n S^n:
    a tree whose root has n children corresponds to the ordered n-tuple of
    its root subtrees, and type(tree) = e_n + sum of subtree types.
    """
    if tree.is_leaf:
        raise ValueError("the single-node tree has no root subtrees")
    return list(tree.children)
