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
from itertools import compress, count, product
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
    count_initial_leaves,
    decompose_tree,
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


def _marked_subdigon(word: Word, mark: int) -> MarkedSubdigon:
    """Trusted constructor: the subdigon of a valid boundary word, marked at an
    edge known to lie within its first external face."""
    sub = _new(Subdigon)
    _set_boundary(sub, word)
    marked = _new(MarkedSubdigon)
    _set_subdigon(marked, sub)
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
    return _initial_external_edges(sub.boundary)


def _initial_external_edges(word: Word) -> int:
    # the edges before the first nonzero letter; only the trivial word has none
    return next(compress(count(), word), 1)


def enumerate_subdigons(m: TypeVector) -> list[Subdigon]:
    """Every subdigon of type m, exactly once, in a fixed order.

    The central face size n + 1 ascends.  For each n, the remaining faces are
    split over the n non-roof edges (the slots) in every ordered way,
    lexicographically slot by slot, each slot's share ascending entry by
    entry; for each split, the slots' subdigons run through every
    combination, the first slot's changing slowest.  Independent of the tree
    enumerator.
    """
    return list(map(_subdigon, _subdigon_words(m)))


def _subdigon_words(m: TypeVector) -> tuple[Word, ...]:
    """The boundary words of ``enumerate_subdigons(m)``, from the cache."""
    _require_type(m)
    # build the smaller types first, so every nested lookup is a cache hit:
    # a part of a type precedes it in _subvectors' lexicographic order
    for part in _subvectors(m.entries):
        _enumerate_subdigons_cached(_trimmed(part))
    return _enumerate_subdigons_cached(m.entries)


@lru_cache(maxsize=None)
def _enumerate_subdigons_cached(entries: tuple[int, ...]) -> tuple[Word, ...]:
    """The boundary words of the type with these trimmed entries, as a tuple."""
    if not entries:
        return ((0,),)  # also the word of a boundary-edge slot
    out: list[Word] = []
    for n, faces in enumerate(entries, 1):
        if not faces:
            continue
        # one group per split of the other faces over the slots filled so
        # far: the words those slots spell, and the faces the later slots hold
        groups = [([()], _trimmed((*entries[: n - 1], faces - 1, *entries[n:])))]
        for _ in range(n - 1):
            groups = [
                ([head + word for head in heads for word in words], left)
                for heads, rest in groups
                for words, left in _slot_groups(rest)
            ]
        central = (n,)
        for heads, rest in groups:  # the last slot holds all that is left
            words = _enumerate_subdigons_cached(rest)
            out += [head + word + central for head in heads for word in words]
    return tuple(out)


@lru_cache(maxsize=None)
def _slot_groups(total: tuple[int, ...]) -> tuple[tuple[tuple[Word, ...], tuple[int, ...]], ...]:
    """Each way one slot can take part of ``total``: its words, and what is left.

    Shared by every type whose later slots hold ``total``, in the order of
    ``_subvectors``; every share is lighter than the type being built, so
    its words are already cached.
    """
    return tuple(
        (_enumerate_subdigons_cached(_trimmed(head)), _trimmed(tuple(map(subtract, total, head))))
        for head in _subvectors(total)
    )


def _subvectors(entries: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every entry tuple bounded by ``entries`` position by position, ascending."""
    return list(product(*[range(e + 1) for e in entries]))


def count_marked_subdigons(m: TypeVector) -> int:
    """Number of subdigons of type m with a marked initial external edge.

    Exhaustive, so only feasible at modest edge weight.  Equals the Geode
    coefficient of t^m, mirroring the marked-tree count.
    """
    return sum(map(_initial_external_edges, _subdigon_words(m)))


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
    return n, _marked_subdigon(word[: i - n] + (0,) + word[i + 1 :], i - n)


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
    commutes with the structure map, including the induced marks.  A marked
    structure of a reduced type is an object of that type with a mark below
    its limit (its initial leaves, or its initial external edges), so
    coverage reads each lighter type's limits, one per object, and builds no
    marked structure.  Mismatch entries record how many objects (expected vs
    observed) survived each check for the offending monomial.
    """
    # one (type, objects expected, objects that passed) row per type and group
    roundtrip, counts, strip, coverage, square = [], [], [], [], []

    # Each map runs once per object, into a table of this type keyed by words
    # (a subdigon's boundary word is its equality key), and every group then
    # compares table entries: a lookup that misses is a failed comparison.  A
    # type is compared as the sorted letters its words spend.
    tree_of: dict[Word, Word] = {}  # boundary word -> tree word, of every subdigon so far
    # per type lighter than the bound, each object's limit, the number of
    # marks it takes, by word: (trees, subdigons)
    limits: dict[TypeVector, tuple[dict[Word, int], dict[Word, int]]] = {}

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
        if m.edge_weight < bound:  # only a lighter type is a reduced type
            # a limit below 0 wants no mark, and must not cancel a wanted one
            limits[m] = (
                {t.word: max(count_initial_leaves(t), 0) for t in trees},
                {s.boundary: max(count_initial_external_edges(s), 0) for s in subs},
            )
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

        # n -> the limits of m - e_n
        reduced = {n: limits[m - TypeVector.unit(n)] for n, m_n in enumerate(entries, 1) if m_n}
        # wanted structures reached less wanted ones missed, per side: this
        # is the side's object count only if its deletions are distinct, all
        # wanted, and miss nothing wanted.  A deletion (n, w, j) is wanted
        # when 0 <= j < limit of w in m - e_n, and every wanted one is either
        # reached or missed, so the count is twice the distinct wanted
        # deletions less the number wanted
        reached = 0
        for side, cut in enumerate((cut_tree, cut_sub)):
            want = {n: pair[side] for n, pair in reduced.items()}
            hits = sum(n in want and 0 <= j < want[n].get(w, 0) for n, w, j in set(cut.values()))
            reached += 2 * hits - sum(sum(limit.values()) for limit in want.values())
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
