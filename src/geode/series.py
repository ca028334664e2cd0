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
from itertools import chain, count, takewhile, zip_longest
from math import prod
from operator import add, attrgetter, itemgetter, lshift, mul
from typing import Iterable, Iterator, Mapping, Sequence


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
        if type(n) is not int:
            raise TypeError(f"variable index must be an int, got {n!r}")
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
    return list(map(TypeVector, _graded_layout(bound)))


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
def _graded_tails(bound: int) -> tuple[tuple[tuple, ...], ...]:
    """Three tables by weight r <= bound: every trimmed tail t = (m_2, m_3, ...) of weight r,
    m_2 descending first, its ``_code`` and its text ",m_2,m_3,...", built in one loop from the
    largest part down: each part n puts m_n and ",m_n" before the rest's, p(n)^m_n times theirs.
    """
    _require_bound(bound)
    empty = ((),), (1,), ("",)  # the empty tail, its code and its text
    tails, codes, texts = ([e] + [()] * bound for e in empty)  # no part left: weight 0 only
    marks, primes = [f",{m}" for m in range(bound + 1)], _primes(bound.bit_length())
    for n in range(bound, 1, -1):
        # tails[0] stays the empty tail, so m_n = 0 leads only nonempty ones: all trimmed
        shorter, shorter_codes, shorter_texts = tails, codes, texts
        tails, codes, texts = ([e] for e in empty)
        powers = [primes[n - 2] ** m for m in range(bound // n + 1)]
        for r in range(1, bound + 1):
            parts = range(r // n, -1, -1)
            tails.append(tuple((m, *t) for m in parts for t in shorter[r - m * n]))
            codes.append(tuple(powers[m] * c for m in parts for c in shorter_codes[r - m * n]))
            texts.append(tuple(marks[m] + s for m in parts for s in shorter_texts[r - m * n]))
    return tuple(tails), tuple(codes), tuple(texts)


@lru_cache(maxsize=None, typed=True)
def _graded_layout(bound: int) -> tuple[tuple[int, ...], ...]:
    """Entry tuples of every vector of weight <= bound, in graded order: grade w is
    (w - r, *t) for r = 0, ..., w and t in ``_graded_tails(bound)[0][r]``.

    >>> _graded_layout(4)[7:]
    ((4,), (2, 1), (1, 0, 1), (0, 2), (0, 0, 0, 1))
    """
    tails = _graded_tails(bound)[0]
    return ((),) + tuple(  # grade 0's one vector has no m_1 = 0 to lead it
        (w - r, *t) for w in range(1, bound + 1) for r in range(w + 1) for t in tails[r]
    )


def _blocks(*tables: list[list[list[int]]]) -> Iterator[tuple]:
    """(w, r, then per table the values of (w - r, *t) for the tails t of weight r), graded."""
    blocks = ((w, r) for w in range(len(tables[0])) for r in range(w + 1))
    return ((w, r, *[map(itemgetter(w - r), table[r]) for table in tables]) for w, r in blocks)


def _rows(*tables: list[list[list[int]]]) -> Iterator[tuple]:
    """(entries, then per table its value) of every vector up to the bound, graded, zeros
    included: one row per comparison, and a table short of a tail or a slot raises."""
    graded = [chain.from_iterable(v for _, _, v in _blocks(table)) for table in tables]
    return zip(_graded_layout(len(tables[0]) - 1), *graded, strict=True)


@lru_cache(maxsize=None)
def _primes(k: int) -> tuple[int, ...]:
    """The first 2^k primes, each found by trial division by the primes up to its square root."""
    primes, candidate = [2], 2
    while len(primes) < 1 << k:
        candidate += 1
        if all(candidate % p for p in takewhile(lambda p: p * p <= candidate, primes)):
            primes.append(candidate)
    return tuple(primes)


def _code(tail: Sequence[int]) -> int:
    """The code 2^m_2 3^m_3 5^m_4 ... of a tail (m_2, m_3, ...): the product of p(n)^m_n, with
    p(n) the (n - 1)-th prime."""
    return prod(p**m for p, m in zip(_primes(len(tail).bit_length()), tail) if m)


def _decoded(code: int, primes: Sequence[int]) -> tuple[int, ...]:
    """The tail (m_2, m_3, ...) of the code 2^m_2 3^m_3 5^m_4 ..., by trial division."""
    tail = []
    for p in primes:
        if code == 1:
            break
        tail.append(0)
        while code % p == 0:
            code //= p
            tail[-1] += 1
    return tuple(tail)


def _unpack(column: int, width: int, length: int) -> list[int]:
    """The values in a column's low ``length`` balanced slots, slot j from bit j * width."""
    half, values = 1 << (width - 1), []
    for _ in range(length):
        column += half  # the slot now holds its value plus half, from 0 to 2 half - 1: no borrow
        values.append((column & 2 * half - 1) - half)
        column >>= width
    return values


def _pack(bound: int, columns: Iterable[tuple], width: int = 1) -> TruncatedSeries:
    """The series that sums these (r, code, values over m_1 = 0, 1, ...) columns, its slots at
    least this wide and wide enough for each grade's sum of |value|."""
    columns, sums, tails = list(columns), [0] * (bound + 1), {}
    for r, _, values in columns:
        sums[r : r + len(values)] = map(add, sums[r : r + len(values)], map(abs, values))
    width = max(width, max(sums).bit_length() + 1)
    for r, code, values in columns:
        group, shifts = tails.setdefault(r, {}), range(0, width * len(values), width)
        group[code] = group.get(code, 0) + sum(map(lshift, values, shifts))
    return TruncatedSeries._of(bound, width, tails, sums)


class TruncatedSeries(_Value):
    """Formal power series with integer coefficients, truncated at a fixed weight.

    Monomials of weight above the bound are discarded by every operation.
    Coefficients are plain Python ints and therefore exact at any size.
    Instances are immutable; all operations return new series.  A series is a
    tail table: ``_tails`` maps the weight r of a tail (m_2, m_3, ...) to {code:
    column}.  The code 2^m_2 3^m_3 5^m_4 ... is the product of p(n)^m_n, p(n) the
    (n - 1)-th prime, so a product's code is the product of its factors' codes.
    The column is one int whose balanced slot j of ``_width`` bits holds the
    coefficient of t_1^j times the tail, for j <= bound - r (higher bits are
    never read), so the t_1 convolution of two columns is one big-int product.
    ``_sums`` bounds each grade's sum of |coefficient|, and so each coefficient.

    >>> t1 = TruncatedSeries.variable(1, bound=2)
    >>> print((TruncatedSeries.one(2) + t1) * (TruncatedSeries.one(2) + t1))
    1 + 2*t1 + t1^2
    """

    __slots__ = ("bound", "_width", "_tails", "_sums")

    def __new__(cls, bound: int, coeffs: Mapping[TypeVector, int] | None = None) -> TruncatedSeries:
        _require_bound(bound)
        columns = []  # each term as a column, zeros below its m_1
        for m, value in (coeffs or {}).items():
            _require_type(m)
            if type(value) is not int:
                raise TypeError(f"a coefficient must be an int, got {value!r}")
            if value != 0 and m.edge_weight <= bound:
                m1, *tail = m.entries or (0,)
                columns.append((m.edge_weight - m1, _code(tail), [0] * m1 + [value]))
        return _pack(bound, columns)

    @classmethod
    def _of(cls, bound: int, width: int, tails: dict, sums: list) -> TruncatedSeries:
        """A series from trusted fields, less the tails and grade sums past the bound."""
        kept = {r: group for r, group in tails.items() if r <= bound}
        fields = bound, width, kept, sums[: bound + 1]
        return _restore(cls, dict(zip(cls.__slots__, fields)))

    @classmethod
    def _packed(cls, bound: int, table: list) -> TruncatedSeries:
        """A series from a table of one list over m_1 per tail of ``_graded_tails(bound)``."""
        grades = enumerate(zip(_graded_tails(bound)[1], table, strict=True))
        return _pack(bound, ((r, *cv) for r, grade in grades for cv in zip(*grade, strict=True)))

    @classmethod
    def one(cls, bound: int) -> TruncatedSeries:
        return cls(bound, {TypeVector.zero(): 1})

    @classmethod
    def variable(cls, n: int, bound: int) -> TruncatedSeries:
        """The series t_n (which is zero if n exceeds the bound)."""
        return cls(bound, {TypeVector.unit(n): 1})

    def coefficient(self, monomial: TypeVector) -> int:
        _require_type(monomial)
        if monomial.edge_weight > self.bound:
            return 0
        m_1, *tail = monomial.entries or (0,)  # one column, unpacked up to slot m_1
        column = self._tails.get(monomial.edge_weight - m_1, {}).get(_code(tail), 0)
        return _unpack(column, self._width, m_1 + 1)[m_1]

    def _terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(entries, coefficient) of every nonzero term, in graded order, from the stored
        columns alone: grade by grade, the entries descending."""
        grades, primes = [[] for _ in range(self.bound + 1)], _primes(self.bound.bit_length())
        for r, group in self._tails.items():
            for code, column in group.items():
                tail = _decoded(code, primes)
                for j, v in enumerate(_unpack(column, self._width, self.bound + 1 - r)):
                    if v:
                        grades[j + r].append((_trimmed((j, *tail)), v))
        return [term for grade in grades for term in sorted(grade, reverse=True)]

    def items(self) -> list[tuple[TypeVector, int]]:
        """Nonzero (monomial, coefficient) pairs in graded order."""
        return [(TypeVector(e), v) for e, v in self._terms()]

    def support(self) -> list[TypeVector]:
        return [m for m, _ in self.items()]

    def __len__(self) -> int:
        return len(self._terms())

    @property
    def _key(self) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
        return self.bound, tuple(self._terms())

    def _table(self) -> list[list[list[int]]]:
        """The table of ``_packed``: every coefficient up to the bound, zeros included."""
        width, bound = self._width, self.bound
        return [
            [_unpack(self._tails.get(r, {}).get(c, 0), width, bound + 1 - r) for c in codes]
            for r, codes in enumerate(_graded_tails(bound)[1])
        ]

    def _in(self, bound: int, width: int) -> TruncatedSeries:
        """This series under another bound, its slots at least this wide: its tails as they are
        if neither grows, else packed anew slot by slot (bits above a column's slots are not 0)."""
        if bound <= self.bound and width == self._width:
            return TruncatedSeries._of(bound, width, self._tails, self._sums)
        columns = (
            (r, c, _unpack(p, self._width, self.bound - r + 1))
            for r, group in self._tails.items() for c, p in group.items()
        )
        return _pack(bound, columns, width)

    def _checked(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"operand must be a TruncatedSeries, got {other!r}")
        if self.bound != other.bound:
            raise ValueError(f"bound mismatch: {self.bound} vs {other.bound}")
        return other

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self._lifted_sum(self.bound, [(0, self), (0, self._checked(other))])

    @classmethod
    def _lifted_sum(cls, bound: int, terms: list[tuple]) -> TruncatedSeries:
        """The sum of t_n * s over the (n, s) terms, t_0 = 1 and each s bounded at bound - n or
        above: t_1 moves a column up a slot, t_n for n >= 2 multiplies its code by p(n) and adds
        n to its tail's weight."""
        sums = [0] * (bound + 1)
        for n, s in terms:
            sums[n:] = map(add, sums[n:], s._sums)
        width, tails = max(max(sums).bit_length() + 1, *(s._width for _, s in terms)), {}
        for n, s in terms:
            p, lift, shift = (_code((0,) * (n - 2) + (1,)), n, 0) if n > 1 else (1, 0, n * width)
            for r, group in s._in(s.bound, width)._tails.items():
                out = tails.setdefault(r + lift, {})
                for code, column in group.items():
                    out[code * p] = out.get(code * p, 0) + (column << shift)
        return cls._of(bound, width, tails, sums)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        bound, a, b = self.bound, self._sums, self._checked(other)._sums
        sums = [sum(map(mul, a[: w + 1], b[w::-1])) for w in range(bound + 1)]
        width = max(self._width, other._width, max(sums).bit_length() + 1)
        tails_b, product = other._in(bound, width)._tails, {}
        for ra, group_a in self._in(bound, width)._tails.items():
            for rb, group_b in tails_b.items():
                if ra + rb <= bound:  # the slots that the product's tails of weight ra + rb keep
                    out = product.setdefault(ra + rb, {})
                    mask = (1 << width * (bound - ra - rb + 1)) - 1
                    for ca, pa in group_a.items():
                        pa &= mask
                        for cb, pb in group_b.items():
                            out[ca * cb] = out.get(ca * cb, 0) + pa * (pb & mask)
        return TruncatedSeries._of(bound, width, product, sums)

    def with_bound(self, bound: int) -> TruncatedSeries:
        """The same coefficients under another bound; monomials above it are dropped."""
        _require_bound(bound)
        return self._in(bound, self._width)

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
    a._checked(b)
    return _rows(a._table(), b._table())


def _format_term(monomial: TypeVector, value: int) -> str:
    factors = [f"t{n}^{e}" if e > 1 else f"t{n}" for n, e in enumerate(monomial.entries, 1) if e]
    body = "*".join(factors)
    return str(value) if not factors else body if value == 1 else f"{value}*{body}"
