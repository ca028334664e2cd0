"""Independent brute-force oracles for the test suite.

Everything here is stdlib-only and deliberately ignorant of the geode
package internals: trees are nested tuples built by a different recursion
than the library's enumerator, the integer sequences come from their
classical recurrences, and the walks read the plain words that trees and
subdigons expose (``tree.word``, ``sub.boundary``) with no argument checks.
The marked lists are built from the public enumerators, mark counts and
validating constructors alone.
"""

from __future__ import annotations

from functools import lru_cache

from geode import (
    MarkedSubdigon,
    MarkedTree,
    count_initial_external_edges,
    count_initial_leaves,
    enumerate_subdigons,
    enumerate_trees,
)


def catalan_numbers(count: int) -> list[int]:
    """The first ``count`` Catalan numbers via the convolution recurrence."""
    cat = [1]
    for n in range(1, count):
        cat.append(sum(cat[i] * cat[n - 1 - i] for i in range(n)))
    return cat


def primes_below(limit: int) -> list[int]:
    """The primes below ``limit``, by the sieve of Eratosthenes."""
    sieve = [False, False] + [True] * (limit - 2)
    for n in range(2, limit):
        if sieve[n]:
            sieve[n * n :: n] = [False] * len(range(n * n, limit, n))
    return [n for n, prime in enumerate(sieve) if prime]


def partition_counts(limit: int) -> list[int]:
    """p(0), ..., p(limit) by the parts-accumulation recurrence."""
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            p[total] += p[total - part]
    return p


@lru_cache(maxsize=None)
def _all_trees(edges: int) -> tuple[tuple, ...]:
    # A tree with edges >= 1 splits into its first root subtree and the tree
    # formed by the root with the remaining children.
    if edges == 0:
        return ((),)
    out = []
    for first_edges in range(edges):
        for first in _all_trees(first_edges):
            for rest in _all_trees(edges - 1 - first_edges):
                out.append((first,) + rest)
    return tuple(out)


def all_tree_brackets(edges: int) -> list[str]:
    """Every ordered tree with the given edge count, as bracket strings."""
    return [_bracket(t) for t in _all_trees(edges)]


def _bracket(t: tuple) -> str:
    return "(" + "".join(_bracket(c) for c in t) + ")"


def nested_tuple(s: str) -> tuple:
    """A bracket-string tree as nested tuples: each node is the tuple of its children."""
    pos = 0

    def rec() -> tuple:
        nonlocal pos
        assert s[pos] == "("
        pos += 1
        children = []
        while s[pos] != ")":
            children.append(rec())
        pos += 1
        return tuple(children)

    tree = rec()
    assert pos == len(s)
    return tree


def bracket_type(s: str) -> tuple[int, ...]:
    """Downdegree counts of a bracket-string tree, trailing zeros trimmed."""
    counts: dict[int, int] = {}

    def rec(node: tuple) -> None:
        if node:
            counts[len(node)] = counts.get(len(node), 0) + 1
        for child in node:
            rec(child)

    rec(nested_tuple(s))
    if not counts:
        return ()
    top = max(counts)
    return tuple(counts.get(n, 0) for n in range(1, top + 1))


def bracket_initial_leaves(s: str) -> int:
    """Leaves before the first internal node in post-order, from the string."""
    order: list[tuple] = []

    def rec(node: tuple) -> None:
        for child in node:
            rec(child)
        order.append(node)

    rec(nested_tuple(s))
    seen = 0
    for node in order:
        if node:
            return seen
        seen += 1
    return seen


def node_paths(s: str) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The child-index path from the root of every node, in preorder and in post-order.

    Read off the bracket string with a stack of child counters, so any depth
    parses.
    """
    preorder: list[tuple[int, ...]] = []
    postorder: list[tuple[int, ...]] = []
    path: list[int] = []
    begun = [0]  # children begun so far, per open node, under a root counter
    for char in s:
        if char == "(":
            path.append(begun[-1])
            begun[-1] += 1
            begun.append(0)
            preorder.append(tuple(path[1:]))
        else:
            begun.pop()
            postorder.append(tuple(path[1:]))
            path.pop()
    return preorder, postorder


def post_order(word: tuple[int, ...]) -> list[int]:
    """Preorder indices of a degree word's nodes, every node after all of its children.

    Children come in their stored order, so leaves come out left to right.
    """
    order: list[int] = []
    nodes: list[int] = []  # preorder index of each open node
    pending = [-1]  # children not yet closed, per open node, over a sentinel
    for i, degree in enumerate(word):
        nodes.append(i)
        pending.append(degree)
        while not pending[-1]:  # close every node this letter finishes
            pending.pop()
            order.append(nodes.pop())
            pending[-1] -= 1
    return order


def clawed_nodes(word: tuple[int, ...]) -> list[int]:
    """Preorder indices of the internal nodes whose children are all leaves, ascending."""
    return [i for i, n in enumerate(word) if n and not any(word[i + 1 : i + 1 + n])]


def external_faces(boundary: tuple[int, ...]) -> list[int]:
    """Boundary-word positions of the faces whose n slots, the n letters before, are all 0."""
    return [i for i, n in enumerate(boundary) if n and not any(boundary[i - n : i])]


def external_edges_ccw(boundary: tuple[int, ...]) -> list[int]:
    """Boundary-word positions of the boundary edges counterclockwise from the roof: the 0s."""
    return [i for i, letter in enumerate(boundary) if not letter]


def word_type(word: tuple[int, ...]) -> tuple[int, ...]:
    """The type entries of a tree's degree word or a subdigon's boundary word.

    Entry n counts the letters n: the nodes with n children, or the faces
    with n + 1 edges.
    """
    return tuple(map(word.count, range(1, max(word) + 1)))


def enumerate_marked_trees(m) -> list:
    """Every tree of type m with each of its initial leaves marked, tree by tree."""
    return [
        MarkedTree(tree, mark)
        for tree in enumerate_trees(m)
        for mark in range(count_initial_leaves(tree))
    ]


def enumerate_marked_subdigons(m) -> list:
    """Every subdigon of type m with each of its initial external edges marked."""
    return [
        MarkedSubdigon(sub, mark)
        for sub in enumerate_subdigons(m)
        for mark in range(count_initial_external_edges(sub))
    ]


def geode_by_entries(pairs) -> dict[tuple[int, ...], int]:
    """G(k) for each (entries of k, C(k + e_1)) pair, keyed by entries in the order given.

    The recurrence G(k) = C(k + e_1) - sum over n >= 2 with k_n >= 1 of G(k + e_1 - e_n),
    one monomial at a time on entry tuples: any order that visits lighter monomials first
    works, and a term not yet solved raises ``KeyError``.
    """
    solved: dict[tuple[int, ...], int] = {}
    for k, value in pairs:
        for i in range(1, len(k)):
            if k[i]:
                term = [k[0] + 1, *k[1:]]
                term[i] -= 1
                while not term[-1]:
                    term.pop()
                value -= solved[tuple(term)]
        solved[k] = value
    return solved


def monomial_product(a: dict, b: dict, bound: int) -> dict[tuple[int, ...], int]:
    """a * b cut at the bound, one monomial pair at a time, over {entries: coefficient} dicts
    with trimmed entry tuples; zero coefficients are left out."""
    product: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            width = max(len(ea), len(eb))
            pad_a, pad_b = ea + (0,) * (width - len(ea)), eb + (0,) * (width - len(eb))
            e = tuple(x + y for x, y in zip(pad_a, pad_b))
            if sum(n * m for n, m in enumerate(e, 1)) <= bound:
                product[e] = product.get(e, 0) + ca * cb
    return {e: c for e, c in product.items() if c}


def monomial_sum(a: dict, b: dict, sign: int = 1) -> dict[tuple[int, ...], int]:
    """a + sign * b over {entries: coefficient} dicts; zero coefficients are left out."""
    total = dict(a)
    for e, c in b.items():
        total[e] = total.get(e, 0) + sign * c
    return {e: c for e, c in total.items() if c}


def monomial_cut(a: dict, bound: int) -> dict[tuple[int, ...], int]:
    """The terms of a of weight at most the bound."""
    return {e: c for e, c in a.items() if sum(n * m for n, m in enumerate(e, 1)) <= bound and c}
