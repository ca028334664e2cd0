"""Subdigons: polygon dissections with a distinguished roof edge.

A subdigon is a polygon subdivided by noncrossing arcs, with one designated
edge (the roof).  The central face (the one whose boundary contains the roof)
has n >= 1 further edges, its slots, listed counterclockwise starting from
the roof; each slot either is a boundary edge of the polygon or glues in the
subdigon that lies behind an internal arc.  The lone roofed edge with no face
at all is the trivial subdigon.  Its type is the vector m with m_n = number
of faces having n + 1 edges (a roof plus n others); bigon faces (n = 1) are
allowed.

A subdigon is stored as its boundary word, read-only as ``sub.boundary``:
walk counterclockwise from the roof and write 0 for each boundary edge, and
n when a face with n + 1 edges completes.  The trivial subdigon is ``(0,)``.
Face deletion is a slice of it, and leaves the deleted face's roof marked:

>>> sub = Subdigon.parse("(()(()()))")
>>> sub.boundary
(0, 0, 0, 2, 2)
>>> decompose_subdigon(sub)
(2, MarkedSubdigon(subdigon=Subdigon.parse('(()())'), mark=1))

A face is *external* if its only internal edge is its own roof, and the
boundary edges of the polygon are its *external edges*.  Converting slots to
children maps subdigons to ordered trees so that faces become internal
nodes, external edges become leaves, and external faces become clawed nodes;
the boundary word is the post-order degree word of the tree image, so a
position in it is the post-order rank of the matching node.  The
structure maps are a change of traversal, between a tree's preorder word and
this word.  The first external face completes at the first nonzero letter,
and every markable edge is a 0 before it, so face deletion and attachment
are slices.  Every walk is a loop over the word, so depth is not limited by
Python's recursion limit.

Text form mirrors trees: a face is "(" + slots + ")", a boundary slot is
"()", and the trivial subdigon is "*e*".  A subdigon and its tree image
therefore serialize identically except for the trivial case.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, count, product
from operator import attrgetter, sub as subtract

from .hypercatalan import hyper_catalan
from .reports import VerificationReport, tally
from .series import TypeVector, _require_type, _trimmed, _Value, enumerate_types
from .trees import (
    OrderedTree,
    Word,
    _mark_text,
    _new,
    _parse_brackets,
    _tree,
    compose_tree,
    decompose_tree,
    enumerate_marked_trees,
    enumerate_trees,
)

TRIVIAL_TEXT = "*e*"


class Subdigon(_Value):
    """Either the trivial lone roofed edge (no slots) or a central face.

    Glued slots must themselves contain a face; a lone edge behind an arc
    would just be a boundary edge, which is written as None.  This keeps the
    representation canonical.  The boundary word is the slots' words, a 0 for
    each boundary edge, followed by the central face's letter.
    """

    __slots__ = ("boundary",)
    boundary: Word

    def __init__(self, slots: tuple[Subdigon | None, ...] = ()) -> None:
        word: list[int] = []
        for slot in slots:
            if slot is None:
                word.append(0)
            elif not isinstance(slot, Subdigon):
                raise TypeError(f"a slot must be a Subdigon or None, got {slot!r}")
            elif slot.is_trivial:
                raise ValueError("a glued slot must hold a face; boundary edges are None")
            else:
                word += slot.boundary
        word.append(len(slots))
        _set_boundary(self, tuple(word))

    _key = property(attrgetter("boundary"))

    @property
    def is_trivial(self) -> bool:
        return len(self.boundary) == 1

    def serialize(self) -> str:
        if self.is_trivial:
            return TRIVIAL_TEXT
        return subdigon_to_tree(self).serialize()

    @classmethod
    def parse(cls, text: str) -> Subdigon:
        if text == TRIVIAL_TEXT:
            return cls()
        word, marks = _parse_brackets(text)
        if marks:
            raise ValueError(f"unexpected '*' in unmarked text {text!r}")
        if word == (0,):
            raise ValueError(
                f"{text!r} is a bare boundary edge; the trivial subdigon is {TRIVIAL_TEXT!r}"
            )
        return tree_to_subdigon(_tree(word))

    def __repr__(self) -> str:
        return f"Subdigon.parse({self.serialize()!r})"


# Trusted constructors, as in trees: no validation, and each field is set
# through its slot's member descriptor.
_set_boundary = Subdigon.boundary.__set__


def _subdigon(word: Word) -> Subdigon:
    """Trusted constructor: wrap a valid boundary word as is."""
    sub = _new(Subdigon)
    _set_boundary(sub, word)
    return sub


TRIVIAL = Subdigon()


class MarkedSubdigon(_Value):
    """A subdigon with one marked external edge.

    The mark indexes the counterclockwise order of external edges from the
    roof and must fall at or before the completion of the first external
    face; the trivial subdigon's lone edge is markable (mark 0).
    """

    __slots__ = ("subdigon", "mark")
    subdigon: Subdigon
    mark: int

    def __init__(self, subdigon: Subdigon, mark: int) -> None:
        if not isinstance(subdigon, Subdigon):
            raise TypeError(f"subdigon must be a Subdigon, got {subdigon!r}")
        if type(mark) is not int:
            raise TypeError(f"mark must be an int, got {mark!r}")
        limit = count_initial_external_edges(subdigon)
        if not 0 <= mark < limit:
            raise ValueError(f"mark {mark} lies beyond the first external face (limit {limit})")
        _set_subdigon(self, subdigon)
        _set_mark(self, mark)

    _key = property(attrgetter("subdigon", "mark"))

    def __repr__(self) -> str:
        return f"MarkedSubdigon(subdigon={self.subdigon!r}, mark={self.mark!r})"

    def serialize(self) -> str:
        if self.subdigon.is_trivial:
            return "*"
        return _mark_text(self.subdigon.serialize(), self.mark)


_set_subdigon = MarkedSubdigon.subdigon.__set__
_set_mark = MarkedSubdigon.mark.__set__


def _marked_subdigon(subdigon: Subdigon, mark: int) -> MarkedSubdigon:
    """Trusted constructor: the mark is known to lie within the first external face."""
    marked = _new(MarkedSubdigon)
    _set_subdigon(marked, subdigon)
    _set_mark(marked, mark)
    return marked


def subdigon_to_tree(sub: Subdigon) -> OrderedTree:
    """Structure map: the roof becomes the root, slots become children.

    Boundary edges turn into leaves and glued subdigons into subtrees, so
    types are preserved.  The boundary word is the tree's post-order word.
    """
    if not isinstance(sub, Subdigon):
        raise TypeError(f"subdigon must be a Subdigon, got {sub!r}")
    return _tree(_retraverse(sub.boundary[::-1])[::-1])


def tree_to_subdigon(tree: OrderedTree) -> Subdigon:
    """Inverse structure map: glue a face of size n + 1 per n-child node."""
    if not isinstance(tree, OrderedTree):
        raise TypeError(f"tree must be an OrderedTree, got {tree!r}")
    return _subdigon(_retraverse(tree.word))


def _retraverse(word: Word) -> Word:
    """A tree's preorder word in post-order, in one stack pass.

    Each leaf is written, then every node it closes, innermost first.  An
    open node holds one stack entry per child still open or to come: its
    letter for the last child, under a 0 for each other.  A closing child
    pops one entry, and the letter coming off closes the node in turn.

    The same pass maps back, by the mirror identity: a post-order word read
    backwards is the preorder word of the mirror tree, and that tree's
    post-order word is the original preorder word read backwards.
    """
    out: list[int] = []
    write = out.append
    stack: list[int] = []
    for letter in word:
        if letter:
            stack.append(letter)
            stack += (0,) * (letter - 1)
            continue
        write(0)
        while stack:  # the leaf closes a child, and may close its ancestors
            top = stack.pop()
            if not top:
                break
            write(top)
    return tuple(out)


def count_initial_external_edges(sub: Subdigon) -> int:
    """Markable edges: those met at or before the first external face.

    Walking counterclockwise from the roof, the first face whose boundary
    walk completes is external; its own edges still count.  The trivial
    subdigon's lone edge is markable by convention, matching the single
    markable leaf of the one-node tree.
    """
    # the edges before the first nonzero letter; only the trivial word has none
    return next(compress(count(), sub.boundary), 1)


def enumerate_subdigons(m: TypeVector) -> list[Subdigon]:
    """Every subdigon of type m, exactly once, in a fixed order.

    Generated by choosing the central face size n + 1 (ascending n) and then
    distributing the remaining faces behind its n non-roof edges over all
    ordered type compositions.  Independent of the tree enumerator.
    """
    _require_type(m)
    # build the smaller types first, so every nested lookup is a cache hit:
    # a part of a type precedes it in _subvectors' lexicographic order
    for part in _subvectors(m.entries):
        _enumerate_subdigons_cached(_trimmed(part))
    return list(map(_subdigon, _enumerate_subdigons_cached(m.entries)))


@lru_cache(maxsize=None)
def _enumerate_subdigons_cached(entries: tuple[int, ...]) -> tuple[Word, ...]:
    """The boundary words of the type with these trimmed entries, as a tuple."""
    if not entries:
        return ((0,),)  # also the word of a boundary-edge slot
    out: list[Word] = []
    for n, faces in enumerate(entries, 1):
        if not faces:
            continue
        rest = (*entries[: n - 1], faces - 1, *entries[n:])
        central = (n,)
        for parts in _type_compositions(rest, n):
            slot_words = map(_enumerate_subdigons_cached, parts)
            out += [tuple(chain(*slots, central)) for slots in product(*slot_words)]
    return tuple(out)


def _type_compositions(total: tuple[int, ...], n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All ordered n-tuples of entry tuples summing to ``total``, each trimmed.

    Lexicographic in the order of ``_subvectors``, position by position.
    """
    heads: list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = [((), total)]
    for _ in range(n - 1):
        heads = [
            (prefix + (_trimmed(head),), tuple(map(subtract, rest, head)))
            for prefix, rest in heads
            for head in _subvectors(rest)
        ]
    return [prefix + (_trimmed(rest),) for prefix, rest in heads]


def _subvectors(entries: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every entry tuple bounded by ``entries`` position by position, ascending."""
    return list(product(*[range(e + 1) for e in entries]))


def count_marked_subdigons(m: TypeVector) -> int:
    """Number of subdigons of type m with a marked initial external edge.

    Exhaustive, so only feasible at modest edge weight.  Equals the Geode
    coefficient of t^m, mirroring the marked-tree count.
    """
    return sum(
        count_initial_external_edges(sub) for sub in enumerate_subdigons(m)
    )


def enumerate_marked_subdigons(m: TypeVector) -> list[MarkedSubdigon]:
    return [
        _marked_subdigon(sub, mark)
        for sub in enumerate_subdigons(m)
        for mark in range(count_initial_external_edges(sub))
    ]


def decompose_subdigon(sub: Subdigon) -> tuple[int, MarkedSubdigon]:
    """Delete the first external face met counterclockwise from the roof.

    Returns (n, marked) where the face had n + 1 edges; its former roof is
    now a boundary edge carrying the mark.  Deleting the central face of a
    one-face subdigon leaves the marked trivial subdigon.
    """
    if not isinstance(sub, Subdigon):
        raise TypeError(f"subdigon must be a Subdigon, got {sub!r}")
    if sub.is_trivial:
        raise ValueError("the trivial subdigon has no face to delete")
    word = sub.boundary
    i = next(compress(count(), word))  # the first face letter; its n edges precede it
    n = word[i]
    # the face's former roof is met at or before it: a markable edge by construction
    return n, _marked_subdigon(_subdigon(word[: i - n] + (0,) + word[i + 1 :]), i - n)


def compose_subdigon(n: int, marked: MarkedSubdigon) -> Subdigon:
    """Glue a face with n + 1 edges onto the marked boundary edge.

    Inverse of decompose_subdigon; gluing onto the trivial subdigon yields
    the bare (n + 2)-gon with a single face.
    """
    if type(n) is not int:
        raise TypeError(f"child count must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"a face needs at least one non-roof edge, got n={n}")
    if not isinstance(marked, MarkedSubdigon):
        raise TypeError(f"marked must be a MarkedSubdigon, got {marked!r}")
    # a markable edge comes before every face letter, so it is letter `mark`
    word, mark = marked.subdigon.boundary, marked.mark
    return _subdigon(word[:mark] + (0,) * n + (n,) + word[mark + 1 :])


def verify_bijections(bound: int) -> VerificationReport:
    """Exhaustively exercise every bijection up to the given edge weight.

    Checks, per type m: the tree/subdigon structure maps invert each other
    and preserve types; both direct counts agree with the hyper-Catalan
    closed form; face deletion and leaf stripping invert their composers and
    biject onto the marked structures of the reduced types; and deletion
    commutes with the structure map, including the induced marks.  Mismatch
    entries record how many objects (expected vs observed) survived each
    check for the offending monomial.
    """
    # one (type, objects expected, objects that passed) row per type and group
    roundtrip, counts, strip, coverage, square = [], [], [], [], []

    # Each map runs once per object, into a table of this type keyed by words
    # (a subdigon's boundary word is its equality key), and every group then
    # compares table entries: a lookup that misses is a failed comparison.  A
    # type is compared as the sorted letters its words spend.
    tree_of: dict[Word, Word] = {}  # boundary word -> tree word, of every subdigon so far
    # each reduced type's marked structures as (word, mark), enumerated once
    marked_words: dict[TypeVector, tuple[list[tuple[Word, int]], ...]] = {}

    for m in enumerate_types(bound):
        entries = m.entries
        # m_n letters n and a 0 per leaf, ascending
        letters = [n for n, k in enumerate((m.leaf_count, *entries)) for _ in range(k)]
        trees = enumerate_trees(m)
        subs = enumerate_subdigons(m)
        size = len(trees) + len(subs)
        counts.append((entries, 2 * hyper_catalan(m), size))
        image = {t.word: tree_to_subdigon(t).boundary for t in trees}
        inverse = {s.boundary: subdigon_to_tree(s).word for s in subs}
        tree_of.update(inverse)
        mapped = sum(inverse.get(s) == t and sorted(s) == letters for t, s in image.items())
        mapped += sum(image.get(t) == s and sorted(t) == letters for s, t in inverse.items())
        roundtrip.append((entries, size, mapped))
        if not entries:  # the one-node tree and the trivial subdigon have nothing to delete
            continue

        # word -> (n, stripped word, mark)
        cut_tree: dict[Word, tuple[int, Word, int]] = {}
        cut_sub: dict[Word, tuple[int, Word, int]] = {}
        restored = 0
        for t in trees:
            n, marked_tree = decompose_tree(t)
            restored += compose_tree(n, marked_tree).word == t.word
            cut_tree[t.word] = (n, marked_tree.tree.word, marked_tree.mark)
        for s in subs:
            n, marked_sub = decompose_subdigon(s)
            restored += compose_subdigon(n, marked_sub).boundary == s.boundary
            cut_sub[s.boundary] = (n, marked_sub.subdigon.boundary, marked_sub.mark)
        strip.append((entries, size, restored))

        reduced = {n: m - TypeVector.unit(n) for n, m_n in enumerate(entries, 1) if m_n}
        for k in reduced.values():
            if k not in marked_words:
                marked_words[k] = (
                    [(x.tree.word, x.mark) for x in enumerate_marked_trees(k)],
                    [(x.subdigon.boundary, x.mark) for x in enumerate_marked_subdigons(k)],
                )
        # wanted structures reached less wanted ones missed, per side: this
        # is the side's object count only if its deletions are distinct, all
        # wanted, and miss nothing wanted
        reached = 0
        for side, cut in enumerate((cut_tree, cut_sub)):
            want = {(n, *pair) for n, k in reduced.items() for pair in marked_words[k][side]}
            got = set(cut.values())
            reached += len(got & want) - len(want - got)
        coverage.append((entries, size, reached))
        # a deletion's tree image is read from the lighter type's table
        commuting = sum(
            cut_tree.get(inverse[s]) == (n, tree_of.get(stripped), mark)
            for s, (n, stripped, mark) in cut_sub.items()
        )
        square.append((entries, len(subs), commuting))

    groups = (
        tally("structure maps invert each other and preserve type", roundtrip),
        tally("direct enumeration counts match the closed form", counts),
        tally("deletion/attachment round trips", strip),
        tally("deletion bijects onto marked structures", coverage),
        tally("deletion commutes with the structure map", square),
    )
    return VerificationReport("bijections", bound, groups)
