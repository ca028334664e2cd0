"""Subdigons: polygon dissections with a distinguished roof edge.

A subdigon is a polygon subdivided by noncrossing arcs, with one designated
edge (the roof).  It is stored nested: the central face (the one whose
boundary contains the roof) has n >= 1 further edges, listed counterclockwise
starting from the roof, and each such slot either is a boundary edge of the
polygon (stored as None) or glues in the subdigon that lies behind an
internal arc.  The lone roofed edge with no face at all is the trivial
subdigon.  Its type is the vector m with m_n = number of faces having n + 1
edges (a roof plus n others); bigon faces (n = 1) are allowed.

A face is *external* if its only internal edge is its own roof, and the
boundary edges of the polygon are its *external edges*.  Converting slots to
children maps subdigons to ordered trees so that faces become internal
nodes, external edges become leaves, and external faces become clawed nodes;
the counterclockwise boundary walk becomes post-order traversal.

Every walk over the nested slots is a loop, so depth is not limited by
Python's recursion limit.  The structure maps write and read the degree word
a tree stores (``tree.word``), and subdigons compare and hash by the word of
their tree image, computed from their own slots on first use and kept;
enumeration and face deletion stay independent of trees.

Text form mirrors trees: a face is "(" + slots + ")", a boundary slot is
"()", and the trivial subdigon is "*e*".  A subdigon and its tree image
therefore serialize identically except for the trivial case.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import attrgetter, sub as subtract
from typing import Iterator

from .hypercatalan import hyper_catalan
from .reports import CheckGroup, Mismatch, VerificationReport
from .series import TypeVector, _trimmed, _Value, enumerate_types
from .trees import (
    OrderedTree,
    Path,
    Word,
    _degree_counts,
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


def _slot_word(sub: Subdigon) -> Word:
    """Degree word of the tree image: slot counts of faces, 0 per boundary edge."""
    word: list[int] = []
    stack: list[Subdigon | None] = [sub]
    while stack:
        face = stack.pop()
        if face is None:
            word.append(0)
        else:
            word.append(len(face.slots))
            stack += face.slots[::-1]
    return tuple(word)


class Subdigon(_Value):
    """Either the trivial lone roofed edge (no slots) or a central face.

    Glued slots must themselves contain a face; a lone edge behind an arc
    would just be a boundary edge, which is written as None.  This keeps the
    representation canonical.  The degree word is computed from the slots on
    the first compare or hash and kept.
    """

    __slots__ = ("slots", "_word")
    slots: tuple[Subdigon | None, ...]

    def __init__(self, slots: tuple[Subdigon | None, ...] = ()) -> None:
        for slot in slots:
            if slot is not None and slot.is_trivial:
                raise ValueError("a glued slot must hold a face; boundary edges are None")
        _set_slots(self, slots)

    @property
    def _key(self) -> Word:
        word = getattr(self, "_word", None)  # an unset slot reads as the default
        if word is None:
            word = _slot_word(self)
            _set_word(self, word)
        return word

    @property
    def is_trivial(self) -> bool:
        return not self.slots

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
_set_slots = Subdigon.slots.__set__
_set_word = Subdigon._word.__set__


def _subdigon(slots: tuple[Subdigon | None, ...]) -> Subdigon:
    """Trusted constructor: wrap slots that are canonical by construction."""
    sub = _new(Subdigon)
    _set_slots(sub, slots)
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


def subdigon_type(sub: Subdigon) -> TypeVector:
    """Face-size counts: entry n is the number of faces with n + 1 edges."""
    return TypeVector(_face_counts(sub))


def _face_counts(sub: Subdigon) -> tuple[int, ...]:
    """The entries of a subdigon's type, counted over its faces."""
    if sub.is_trivial:
        return ()
    sizes: list[int] = []
    stack = [sub]
    while stack:
        slots = stack.pop().slots
        sizes.append(len(slots))
        stack += filter(None, slots)  # the glued slots; None is a boundary edge
    return tuple(map(sizes.count, range(1, max(sizes) + 1)))


def subdigon_to_tree(sub: Subdigon) -> OrderedTree:
    """Structure map: the roof becomes the root, slots become children.

    Boundary edges turn into leaves and glued subdigons into subtrees, so
    types are preserved.
    """
    return _tree(sub._key)


def tree_to_subdigon(tree: OrderedTree) -> Subdigon:
    """Inverse structure map: glue a face of size n + 1 per n-child node."""
    # the word read right to left as Polish notation; a 0 is a boundary edge
    stack: list[Subdigon | None] = []  # finished slots, the leftmost on top
    for degree in reversed(tree.word):
        if degree:
            slots = stack[-degree:]
            del stack[-degree:]
            slots.reverse()
            stack.append(_subdigon(tuple(slots)))
        else:
            stack.append(None)
    return stack[0] or TRIVIAL


def _walk(sub: Subdigon) -> Iterator[tuple[Path, Subdigon | None]]:
    """(path, slot) for the root and every slot below it, in preorder."""
    stack: list[tuple[Path, Subdigon | None]] = [((), sub)]
    while stack:
        path, face = stack.pop()
        yield path, face
        if face is not None:
            stack += [(path + (i,), slot) for i, slot in enumerate(face.slots)][::-1]


def external_faces(sub: Subdigon) -> list[tuple[Path, Subdigon]]:
    """Faces whose every non-roof edge is a boundary edge.

    Listed in the order their boundary walks complete when travelling
    counterclockwise from the roof, and identified by slot paths.  The
    trivial subdigon has no face, hence no external face.
    """
    # external faces never nest, so preorder lists them in completion order
    return [
        (path, face)
        for path, face in _walk(sub)
        if face and face.slots and all(slot is None for slot in face.slots)
    ]


def external_edges_ccw(sub: Subdigon) -> list[Path]:
    """Boundary edges in counterclockwise order starting beside the roof.

    Edges are identified by slot paths; the list matches the post-order leaf
    sequence of the tree image path-for-path.  The trivial subdigon's lone
    edge is represented by the empty path.
    """
    if sub.is_trivial:
        return [()]
    return [path for path, slot in _walk(sub) if slot is None]


def count_initial_external_edges(sub: Subdigon) -> int:
    """Markable edges: those met at or before the first external face.

    Walking counterclockwise from the roof, the first face whose boundary
    walk completes is external; its own edges still count.  The trivial
    subdigon's lone edge is markable by convention, matching the single
    markable leaf of the one-node tree.
    """
    if sub.is_trivial:
        return 1
    path, face = _first_external_face(sub)
    return sum(path) + len(face.slots)


def _first_external_face(face: Subdigon) -> tuple[list[int], Subdigon]:
    """Slot path and face of the first external face met from the roof.

    Each descent enters a face's first glued slot, so the slots passed are
    boundary edges: sum(path) of them precede the face counterclockwise.
    """
    path: list[int] = []
    while True:
        for i, slot in enumerate(face.slots):
            if slot is not None:
                path.append(i)
                face = slot
                break
        else:
            return path, face


def enumerate_subdigons(m: TypeVector) -> list[Subdigon]:
    """Every subdigon of type m, exactly once, in a fixed order.

    Generated by choosing the central face size n + 1 (ascending n) and then
    distributing the remaining faces behind its n non-roof edges over all
    ordered type compositions.  Independent of the tree enumerator.
    """
    # build the smaller types first, so every nested lookup is a cache hit:
    # a part of a type precedes it in _subvectors' lexicographic order
    for part in _subvectors(m.entries):
        _enumerate_subdigons_cached(_trimmed(part))
    return list(_enumerate_subdigons_cached(m.entries))


@lru_cache(maxsize=None)
def _enumerate_subdigons_cached(entries: tuple[int, ...]) -> tuple[Subdigon, ...]:
    """The subdigons of the type with these trimmed entries, as a tuple."""
    if not entries:
        return (TRIVIAL,)
    out: list[Subdigon] = []
    for n, count in enumerate(entries, 1):
        if not count:
            continue
        rest = (*entries[: n - 1], count - 1, *entries[n:])
        for parts in _type_compositions(rest, n):
            slot_choices = [
                _enumerate_subdigons_cached(part) if part else (None,)
                for part in parts
            ]
            out += map(_subdigon, product(*slot_choices))
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
    if sub.is_trivial:
        raise ValueError("the trivial subdigon has no face to delete")
    path, face = _first_external_face(sub)
    stripped = _replace_slot(sub, tuple(path), None) or TRIVIAL
    # the face's former roof is met at or before it: a markable edge by construction
    return len(face.slots), _marked_subdigon(stripped, sum(path))


def _replace_slot(
    sub: Subdigon, path: Path, replacement: Subdigon | None
) -> Subdigon | None:
    """Copy of sub with the slot at path replaced; the empty path replaces sub."""
    faces = [sub]  # the faces down the path, each holding the next
    for i in path[:-1]:
        faces.append(faces[-1].slots[i])
    for face, i in zip(reversed(faces), reversed(path)):
        slots = list(face.slots)
        slots[i] = replacement
        replacement = _subdigon(tuple(slots))
    return replacement


def compose_subdigon(n: int, marked: MarkedSubdigon) -> Subdigon:
    """Glue a face with n + 1 edges onto the marked boundary edge.

    Inverse of decompose_subdigon; gluing onto the trivial subdigon yields
    the bare (n + 2)-gon with a single face.
    """
    if n < 1:
        raise ValueError(f"a face needs at least one non-roof edge, got n={n}")
    # a markable edge lies on the descent to the first external face: it is
    # one of the path[d] boundary slots of some face before its first glued one
    path, face = _first_external_face(marked.subdigon)
    mark = marked.mark
    for d, boundary in enumerate(path):
        if mark < boundary:
            path[d:] = [mark]
            break
        mark -= boundary
    else:
        if face.slots:  # a slot of the external face; the trivial subdigon keeps ()
            path.append(mark)
    return _replace_slot(marked.subdigon, tuple(path), _subdigon((None,) * n))


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
    roundtrip = _Tally("structure maps invert each other and preserve type")
    counts = _Tally("direct enumeration counts match the closed form")
    strip = _Tally("deletion/attachment round trips")
    coverage = _Tally("deletion bijects onto marked structures")
    square = _Tally("deletion commutes with the structure map")

    # each map runs once per object: the subdigon side reuses the tree side's
    # images and decompositions by tree, and each reduced type's marked lists
    # are enumerated once for every heavier type.  Objects are kept as their
    # words (a subdigon's is its equality key), so sets and dicts hash tuples.
    marked_lists: dict[TypeVector, tuple[list[tuple[Word, int]], list[tuple[Word, int]]]] = {}

    for m in enumerate_types(bound):
        entries = m.entries  # the types are compared as these count tuples
        trees = enumerate_trees(m)
        subs = enumerate_subdigons(m)
        counts.add(m, 2 * hyper_catalan(m), len(trees) + len(subs))

        images: dict[Word, Word] = {}
        decompositions: dict[Word, tuple[int, Word, int]] = {}
        got_tree: set[tuple[int, Word, int]] = set()
        got_sub: set[tuple[int, Word, int]] = set()
        mapped = restored = commuting = 0
        for t in trees:
            word = t.word
            s = tree_to_subdigon(t)
            if subdigon_to_tree(s).word == word and _face_counts(s) == entries:
                mapped += 1
            images[word] = s._key
            if entries:  # the one-node tree has nothing to delete
                n, marked = decompose_tree(t)
                if compose_tree(n, marked).word == word:
                    restored += 1
                decompositions[word] = got = (n, marked.tree.word, marked.mark)
                got_tree.add(got)
        for s in subs:
            key = s._key
            t = subdigon_to_tree(s)
            word = t.word
            # under a corrupted map, t may be a tree the tree side never reached
            image = images.get(word) or tree_to_subdigon(t)._key
            if image == key and _degree_counts(word) == entries:
                mapped += 1
            if entries:
                n, marked = decompose_subdigon(s)
                if compose_subdigon(n, marked)._key == key:
                    restored += 1
                got_sub.add((n, marked.subdigon._key, marked.mark))
                if word not in decompositions:
                    n_tree, marked_tree = decompose_tree(t)
                    decompositions[word] = (n_tree, marked_tree.tree.word, marked_tree.mark)
                induced = n, subdigon_to_tree(marked.subdigon).word, marked.mark
                if decompositions[word] == induced:
                    commuting += 1
        roundtrip.add(m, len(trees) + len(subs), mapped)
        if not entries:
            continue
        strip.add(m, len(trees) + len(subs), restored)

        reduced = [
            (n, m - TypeVector.unit(n))
            for n in range(1, len(entries) + 1)
            if m.multiplicity(n)
        ]
        for _, k in reduced:
            if k not in marked_lists:
                marked_lists[k] = (
                    [(x.tree.word, x.mark) for x in enumerate_marked_trees(k)],
                    [(x.subdigon._key, x.mark) for x in enumerate_marked_subdigons(k)],
                )
        want_tree = {(n, *pair) for n, k in reduced for pair in marked_lists[k][0]}
        want_sub = {(n, *pair) for n, k in reduced for pair in marked_lists[k][1]}
        coverage.add(
            m,
            len(want_tree) + len(want_sub),
            len(want_tree & got_tree) + len(want_sub & got_sub)
            if len(got_tree) == len(trees) and len(got_sub) == len(subs)
            else -1,
        )
        square.add(m, len(subs), commuting)

    groups = tuple(
        tally.group() for tally in (roundtrip, counts, strip, coverage, square)
    )
    return VerificationReport("bijections", bound, groups)


class _Tally:
    """Accumulates per-monomial expected/observed counts into a CheckGroup."""

    def __init__(self, label: str):
        self.label = label
        self.checked = 0
        self.mismatches: list[Mismatch] = []

    def add(self, m: TypeVector, expected: int, observed: int) -> None:
        self.checked += expected
        if expected != observed:
            self.mismatches.append(Mismatch(m.text, expected, observed))

    def group(self) -> CheckGroup:
        return CheckGroup(self.label, self.checked, tuple(self.mismatches))
