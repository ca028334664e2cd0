"""Ordered rooted trees: typed enumeration, traversal, and leaf marking.

An ordered tree is a rooted tree whose children carry a left-to-right order.
Its type is the vector m with m_n = number of nodes having exactly n
children (the downdegree sequence), so a tree of type m has edge_weight(m)
edges and leaf_count(m) leaves.

Text form: a leaf is "()" and an internal node wraps the forms of its
children, e.g. "(()())" is a root with two leaf children.  A marked tree
renders its marked leaf as "*".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from .series import TypeVector

Path = tuple[int, ...]
Node = TypeVar("Node")


@dataclass(frozen=True)
class OrderedTree:
    children: tuple[OrderedTree, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def serialize(self) -> str:
        return "(" + "".join(child.serialize() for child in self.children) + ")"

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
        seen = 0

        def rec(node: OrderedTree) -> str:
            nonlocal seen
            if node.is_leaf:
                seen += 1
                return "*" if seen - 1 == self.mark else "()"
            return "(" + "".join(rec(child) for child in node.children) + ")"

        return rec(self.tree)

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
    counts: dict[int, int] = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        degree = len(node.children)
        if degree:
            counts[degree] = counts.get(degree, 0) + 1
            stack.extend(node.children)
    if not counts:
        return TypeVector.zero()
    top = max(counts)
    return TypeVector(tuple(counts.get(n, 0) for n in range(1, top + 1)))


def enumerate_trees(m: TypeVector) -> list[OrderedTree]:
    """Every ordered tree of type m, exactly once, in a fixed order.

    Trees are generated through their preorder degree words over the multiset
    holding m_n copies of each degree n plus one 0 per leaf.  A word is
    admissible iff each proper prefix leaves at least one child slot open
    (start with one slot for the root; a node of degree d consumes a slot and
    opens d).  Words are emitted in ascending lexicographic order.
    """
    counts = {0: m.leaf_count}
    for n in range(1, len(m.entries) + 1):
        if m.multiplicity(n):
            counts[n] = m.multiplicity(n)
    degrees = sorted(counts)
    word: list[int] = []
    out: list[OrderedTree] = []

    def rec(open_slots: int, remaining: int) -> None:
        if remaining == 0:
            out.append(_tree_from_preorder(word))
            return
        for d in degrees:
            if not counts[d]:
                continue
            slots = open_slots - 1 + d
            # every remaining node fills exactly one slot, so the open count
            # can never exceed the nodes still to be placed
            if (slots == 0) != (remaining == 1) or slots > remaining - 1:
                continue
            counts[d] -= 1
            word.append(d)
            rec(slots, remaining - 1)
            word.pop()
            counts[d] += 1

    rec(1, m.node_count)
    return out


def _tree_from_preorder(word: list[int]) -> OrderedTree:
    it = iter(word)

    def build() -> OrderedTree:
        degree = next(it)
        return OrderedTree(tuple(build() for _ in range(degree)))

    return build()


def post_order(tree: OrderedTree) -> list[tuple[Path, OrderedTree]]:
    """(path, node) pairs with every node after all of its children.

    Children are traversed in their stored order, so leaves come out in
    left-to-right order.  Paths are child-index sequences from the root;
    they keep positions distinct even when equal subtrees repeat.
    """
    out: list[tuple[Path, OrderedTree]] = []

    def rec(node: OrderedTree, path: Path) -> None:
        for i, child in enumerate(node.children):
            rec(child, path + (i,))
        out.append((path, node))

    rec(tree, ())
    return out


def clawed_nodes(tree: OrderedTree) -> list[tuple[Path, OrderedTree]]:
    """Internal nodes whose children are all leaves, in post-order position."""
    return [
        (path, node)
        for path, node in post_order(tree)
        if node.children and all(child.is_leaf for child in node.children)
    ]


def count_initial_leaves(tree: OrderedTree) -> int:
    """Leaves visited before any internal node in post-order.

    The single-node tree has no internal node at all, so its one leaf counts.
    """
    seen = 0
    for _, node in post_order(tree):
        if node.is_leaf:
            seen += 1
        else:
            return seen
    return seen


def count_marked_trees(m: TypeVector) -> int:
    """Number of (tree of type m, initial leaf) pairs; a Geode coefficient.

    Exhaustive, so only feasible at modest edge weight.
    """
    return sum(count_initial_leaves(tree) for tree in enumerate_trees(m))


def enumerate_marked_trees(m: TypeVector) -> list[MarkedTree]:
    return [
        MarkedTree(tree, mark)
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
    if tree.is_leaf:
        raise ValueError("the single-node tree has no clawed node to strip")
    path: list[int] = []
    node = tree
    while True:
        step = next((i for i, c in enumerate(node.children) if not c.is_leaf), None)
        if step is None:
            break
        path.append(step)
        node = node.children[step]
    # siblings left of the descent are all leaves, so the mark's post-order
    # position is just the sum of the branch indices
    stripped = _replace_node(tree, tuple(path), LEAF)
    return len(node.children), MarkedTree(stripped, sum(path))


def compose_tree(n: int, marked: MarkedTree) -> OrderedTree:
    """Attach n leaf children to the marked leaf; inverse of decompose_tree."""
    if n < 1:
        raise ValueError(f"child count must be positive, got {n}")
    claw = OrderedTree((LEAF,) * n)
    seen = 0

    def rec(node: OrderedTree) -> OrderedTree:
        nonlocal seen
        if node.is_leaf:
            seen += 1
            return claw if seen - 1 == marked.mark else node
        return OrderedTree(tuple(rec(child) for child in node.children))

    return rec(marked.tree)


def root_decompose(tree: OrderedTree) -> list[OrderedTree]:
    """The subtrees hanging off the root, in order.

    This is the bijection behind the functional equation S = 1 + sum t_n S^n:
    a tree whose root has n children corresponds to the ordered n-tuple of
    its root subtrees, and type(tree) = e_n + sum of subtree types.
    """
    if tree.is_leaf:
        raise ValueError("the single-node tree has no root subtrees")
    return list(tree.children)


def _replace_node(tree: OrderedTree, path: Path, replacement: OrderedTree) -> OrderedTree:
    if not path:
        return replacement
    children = list(tree.children)
    children[path[0]] = _replace_node(children[path[0]], path[1:], replacement)
    return OrderedTree(tuple(children))
