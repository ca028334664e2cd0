"""Exponent vectors and exact truncated power series in t_1, t_2, ...

Everything is graded by *edge weight*: the monomial
t^m = t_1^{m_1} t_2^{m_2} ... carries weight 1*m_1 + 2*m_2 + 3*m_3 + ...,
so the single variable t_n has weight n.  Under this grading every slice of
bounded weight holds finitely many monomials even though the variable supply
is infinite, which is what makes exact truncated arithmetic possible.

The weight of t^m equals the number of edges of an ordered tree of type m,
hence the name.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, count, zip_longest
from operator import add, attrgetter, itemgetter, mul
from typing import Iterable, Iterator, Mapping

_Grades = dict[int, dict[tuple[int, ...], int]]  # weight -> {entries: coefficient}


class _Value:
    """Immutable value: setting any attribute raises, equality and hash go by
    ``_key``, and copy and pickle restore the slots through ``_restore``.

    A subclass keeps its fields in ``__slots__``, sets them with
    ``object.__setattr__`` or through its slots' member descriptors, and names
    its ``_key``; values of different classes never compare equal.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        # the default would restore the slots through __setattr__; an unset slot stays unset
        cls = type(self)
        return _restore, (cls, {n: getattr(self, n) for n in cls.__slots__ if hasattr(self, n)})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


def _restore(cls: type[_Value], fields: dict[str, object]) -> _Value:
    """The value of class ``cls`` with these slot fields, set past ``__setattr__``."""
    value = object.__new__(cls)
    for name, field in fields.items():
        object.__setattr__(value, name, field)
    return value


class TypeVector(_Value):
    """Exponent vector m = (m_1, m_2, ..., m_k), stored without trailing zeros.

    The same object serves as the *type* of an ordered tree (m_n = number of
    nodes with n children) and of a subdigon (m_n = number of faces with
    n + 1 edges).  The canonical text form is comma-separated entries with
    the empty string denoting the zero vector, e.g. "2,3,2,1".
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int] = ()) -> None:
        entries = tuple(entries)
        if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in entries):
            raise ValueError(f"entries must be nonnegative integers, got {entries!r}")
        object.__setattr__(self, "entries", _trimmed(entries))

    _key = property(attrgetter("entries"))

    @classmethod
    def zero(cls) -> TypeVector:
        return cls(())

    @classmethod
    def unit(cls, n: int) -> TypeVector:
        """The vector with a single 1 in position n (1-based)."""
        if n < 1:
            raise ValueError(f"variable index must be >= 1, got {n}")
        return cls((0,) * (n - 1) + (1,))

    @classmethod
    def parse(cls, text: str) -> TypeVector:
        """Inverse of ``text``; accepts non-canonical input like "0,1,0".

        Each entry is ASCII decimal digits, optionally padded with whitespace;
        ``int`` alone would also take "1_0", "+1", "-0" and non-ASCII digits.
        """
        stripped = text.strip()
        if not stripped:
            return cls.zero()
        parts = [part.strip() for part in stripped.split(",")]
        try:
            if all(part.isascii() and part.isdigit() for part in parts):
                return cls(tuple(map(int, parts)))
        except ValueError:  # more digits than int() converts
            pass
        raise ValueError(f"not a comma-separated integer vector: {text!r}")

    @property
    def text(self) -> str:
        return ",".join(map(str, self.entries))

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"TypeVector({self.text!r})"

    def __bool__(self) -> bool:
        return bool(self.entries)

    @property
    def edge_weight(self) -> int:
        """Sum of n * m_n; the number of edges of a tree of this type."""
        return sum(map(mul, self.entries, count(1)))

    @property
    def leaf_count(self) -> int:
        """1 + sum of (n - 1) * m_n; the number of leaves of a tree of this type."""
        return 1 + sum(i * e for i, e in enumerate(self.entries))

    @property
    def node_count(self) -> int:
        return 1 + self.edge_weight

    def __add__(self, other: TypeVector) -> TypeVector:
        if not isinstance(other, TypeVector):
            return NotImplemented
        return TypeVector(
            tuple(a + b for a, b in zip_longest(self.entries, other.entries, fillvalue=0))
        )

    def __sub__(self, other: TypeVector) -> TypeVector:
        if not isinstance(other, TypeVector):
            return NotImplemented
        diff = tuple(a - b for a, b in zip_longest(self.entries, other.entries, fillvalue=0))
        if any(d < 0 for d in diff):
            raise ValueError(f"{self!r} - {other!r} has a negative entry")
        return TypeVector(diff)


def _trimmed(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Entries without their trailing zeros, the form a ``TypeVector`` stores."""
    end = len(entries)
    while end and not entries[end - 1]:
        end -= 1
    return entries[:end]


def enumerate_types(bound: int) -> list[TypeVector]:
    """All vectors with edge weight <= bound, each once, in graded order.

    The graded order, used everywhere in this package, sorts by edge weight;
    within one grade the tie-break is descending lexicographic on the entries,
    so t_1^2 precedes t_2 and t_1 t_2 precedes t_3.  The grade of weight w is
    in bijection with the integer partitions of w
    (m_n = multiplicity of the part n), so the list grows by p(w) entries per
    grade; ``_graded_layout`` lists them in this order, built on ``_graded_tails``.
    """
    return list(map(TypeVector, _graded_layout(bound)[0]))


def _require_bound(bound: int) -> None:
    """Reject a bound that is not a nonnegative int, a bool or a float included."""
    if type(bound) is not int:
        raise TypeError(f"bound must be an int, got {bound!r}")
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")


def _require_type(m: TypeVector) -> None:
    """Reject a type that is not a ``TypeVector``, such as its text or its entries."""
    if not isinstance(m, TypeVector):
        raise TypeError(f"a type must be a TypeVector, got {m!r}")


@lru_cache(maxsize=None, typed=True)  # typed: True or 2.0 misses, and the check below rejects it
def _graded_tails(bound: int) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], tuple]:
    """Two tables by weight r <= bound: every trimmed tail t = (m_2, m_3, ...) of weight r,
    m_2 descending first, and the text ",m_2,m_3,..." of each, built in one loop from the
    largest part down: each part n puts m_n before the tails of the rest, ",m_n" before theirs.
    """
    _require_bound(bound)
    tails, texts = [((),)] + [()] * bound, [("",)] + [()] * bound  # no part left: weight 0 only
    marks = [f",{m}" for m in range(bound + 1)]
    for n in range(bound, 1, -1):
        # tails[0] stays the empty tail, so m_n = 0 leads only nonempty ones: all trimmed
        shorter, shorter_texts, tails, texts = tails, texts, [((),)], [("",)]
        for r in range(1, bound + 1):
            parts = range(r // n, -1, -1)
            tails.append(tuple((m, *t) for m in parts for t in shorter[r - m * n]))
            texts.append(tuple(marks[m] + s for m in parts for s in shorter_texts[r - m * n]))
    return tuple(tails), tuple(texts)


@lru_cache(maxsize=None, typed=True)
def _graded_layout(bound: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Entry tuples of every vector of weight <= bound, in graded order, and the
    bound + 2 starts of their grades: grade w is ``entries[starts[w]:starts[w + 1]]``,
    (w - r, *t) for r = 0, ..., w and t in ``_graded_tails(bound)[0][r]``.

    >>> _graded_layout(4)[0][7:]
    ((4,), (2, 1), (1, 0, 1), (0, 2), (0, 0, 0, 1))
    """
    tails = _graded_tails(bound)[0]
    grades = [((),)] + [  # grade 0's one vector has no m_1 = 0 to lead it
        tuple((w - r, *t) for r in range(w + 1) for t in tails[r]) for w in range(1, bound + 1)
    ]
    return tuple(chain.from_iterable(grades)), (0, *accumulate(map(len, grades)))


def _blocks(table: list[list[list[int]]]) -> Iterator[tuple[int, int, Iterator[int]]]:
    """(w, r, the values of (w - r, *t) for the tails t of weight r) for each r <= w, graded."""
    blocks = ((w, r) for w in range(len(table)) for r in range(w + 1))
    return ((w, r, map(itemgetter(w - r), table[r])) for w, r in blocks)


def _graded(table: list[list[list[int]]]) -> Iterator[int]:
    """The values of a table of one list over m_1 per tail, tails by weight, in graded order."""
    return chain.from_iterable(values for _, _, values in _blocks(table))


class TruncatedSeries(_Value):
    """Formal power series with integer coefficients, truncated at a fixed weight.

    Monomials of weight above the bound are discarded by every operation.
    Coefficients are plain Python ints and therefore exact at any size.
    Instances are immutable; all operations return new series.  A series is
    stored by grade, weight -> {entry tuple: coefficient}, with no zero
    coefficient and no empty grade.  Arithmetic stays on those tuples, and a
    product visits only the grade pairs whose weights sum to at most the
    bound; ``TypeVector`` objects appear only where monomials enter or leave.

    >>> t1 = TruncatedSeries.variable(1, bound=2)
    >>> print((TruncatedSeries.one(2) + t1) * (TruncatedSeries.one(2) + t1))
    1 + 2*t1 + t1^2
    """

    __slots__ = ("bound", "_grades")

    def __init__(self, bound: int, coeffs: Mapping[TypeVector, int] | None = None):
        _require_bound(bound)
        grades: _Grades = {}
        for m, value in (coeffs or {}).items():
            _require_type(m)
            if type(value) is not int:
                raise TypeError(f"a coefficient must be an int, got {value!r}")
            if value != 0 and m.edge_weight <= bound:
                grades.setdefault(m.edge_weight, {})[m.entries] = value
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "_grades", grades)

    @classmethod
    def _from_grades(cls, bound: int, grades: _Grades) -> TruncatedSeries:
        """A series from trusted grades, less zeros, empty grades and grades above bound."""
        series = cls(bound)
        nonzero = ((w, {e: c for e, c in t.items() if c}) for w, t in grades.items())
        object.__setattr__(series, "_grades", {w: t for w, t in nonzero if t and w <= bound})
        return series

    @classmethod
    def _from_table(cls, bound: int, values: Iterable[int]) -> TruncatedSeries:
        """A series from trusted coefficients aligned with ``_graded_layout(bound)``'s entries."""
        (entries, starts), values = _graded_layout(bound), iter(values)
        # zip draws on the entries first, so each grade takes exactly its own values
        grades = {w: dict(zip(entries[starts[w]:starts[w + 1]], values)) for w in range(bound + 1)}
        return cls._from_grades(bound, grades)

    @classmethod
    def zero(cls, bound: int) -> TruncatedSeries:
        return cls(bound)

    @classmethod
    def one(cls, bound: int) -> TruncatedSeries:
        return cls(bound, {TypeVector.zero(): 1})

    @classmethod
    def variable(cls, n: int, bound: int) -> TruncatedSeries:
        """The series t_n (which is zero if n exceeds the bound)."""
        return cls(bound, {TypeVector.unit(n): 1})

    def coefficient(self, monomial: TypeVector) -> int:
        _require_type(monomial)
        return self._grades.get(monomial.edge_weight, {}).get(monomial.entries, 0)

    def items(self) -> list[tuple[TypeVector, int]]:
        """Nonzero (monomial, coefficient) pairs in graded order."""
        # trimmed tuples of one weight are never prefixes: reverse order is the graded order
        return [
            (TypeVector(e), c)
            for w in sorted(self._grades)
            for e, c in sorted(self._grades[w].items(), reverse=True)
        ]

    def support(self) -> list[TypeVector]:
        return [m for m, _ in self.items()]

    def __len__(self) -> int:
        return sum(map(len, self._grades.values()))

    @property
    def _key(self) -> tuple[int, frozenset[tuple[tuple[int, ...], int]]]:
        # an entry tuple has exactly one weight, so the terms need no grade
        terms = (term for grade in self._grades.values() for term in grade.items())
        return self.bound, frozenset(terms)

    def _check_bound(self, other: TruncatedSeries) -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"operand must be a TruncatedSeries, got {other!r}")
        if self.bound != other.bound:
            raise ValueError(f"bound mismatch: {self.bound} vs {other.bound}")

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self._combine(other, 1)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self._combine(other, -1)

    def _combine(self, other: TruncatedSeries, sign: int) -> TruncatedSeries:
        """self + sign * other, grade by grade."""
        self._check_bound(other)
        total = {w: dict(terms) for w, terms in self._grades.items()}
        for w, terms in other._grades.items():
            grade = total.setdefault(w, {})
            for e, c in terms.items():
                grade[e] = grade.get(e, 0) + sign * c
        return TruncatedSeries._from_grades(self.bound, total)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_bound(other)
        bound = self.bound
        product: _Grades = {}
        for wa, terms_a in self._grades.items():
            for wb, terms_b in other._grades.items():
                if wa + wb > bound:
                    continue
                grade = product.setdefault(wa + wb, {})
                for ea, ca in terms_a.items():
                    for eb, cb in terms_b.items():
                        # entrywise sum; one of the two tails is empty
                        key = tuple(map(add, ea, eb)) + (ea[len(eb):] or eb[len(ea):])
                        grade[key] = grade.get(key, 0) + ca * cb
        return TruncatedSeries._from_grades(bound, product)

    def with_bound(self, bound: int) -> TruncatedSeries:
        """The same coefficients under another bound; monomials above it are dropped."""
        return TruncatedSeries._from_grades(bound, self._grades)

    def __str__(self) -> str:
        return " + ".join(_format_term(m, c) for m, c in self.items()) or "0"

    def __repr__(self) -> str:
        return f"<TruncatedSeries bound={self.bound}: {self}>"


def sum_of_variables(bound: int) -> TruncatedSeries:
    """t_1 + t_2 + ... + t_bound, the cofactor of the Geode in S - 1."""
    return TruncatedSeries(bound, {TypeVector.unit(n): 1 for n in range(1, bound + 1)})


def _coefficient_rows(a: TruncatedSeries, b: TruncatedSeries) -> Iterator[tuple]:
    """(entries, a-value, b-value) for every monomial up to the series' common bound, in
    graded order and zeros included: each row is one comparison."""
    a._check_bound(b)
    # an entry tuple has exactly one weight, so one dict holds all of a series' terms
    terms_a, terms_b = ({e: c for t in s._grades.values() for e, c in t.items()} for s in (a, b))
    return ((e, terms_a.get(e, 0), terms_b.get(e, 0)) for e in _graded_layout(a.bound)[0])


def _format_term(monomial: TypeVector, value: int) -> str:
    if not monomial:
        return str(value)
    factors = []
    for i, e in enumerate(monomial.entries):
        if e == 1:
            factors.append(f"t{i + 1}")
        elif e > 1:
            factors.append(f"t{i + 1}^{e}")
    body = "*".join(factors)
    return body if value == 1 else f"{value}*{body}"
