"""The Geode: the series G with S = 1 + (t_1 + t_2 + ...) G.

Comparing the coefficient of t^(k + e_1) on both sides of the factorization
gives, for every k,

    C(k + e_1) = sum over n with (k + e_1)_n >= 1 of G(k + e_1 - e_n).

The n = 1 term on the right is G(k) itself and every other term has edge
weight at most weight(k) - 1, so solving for G(k) yields a recurrence that
is well founded under the edge-weight grading:

    G(k) = C(k + e_1) - sum over n >= 2 with k_n >= 1 of G(k + e_1 - e_n).

Only the monomials containing t_1 are consumed by the recurrence.  The
factorization also constrains every t_1-free monomial, and those equations
are genuinely overdetermined: verify_factorization checks them separately.

The coefficients of G count marked trees (and marked subdigons); the
verify_marked_* routines check this against exhaustive enumeration.

Setting every t_n to a single t sums each grade: S becomes the Catalan
series sum C_w t^w and t_1 + t_2 + ... becomes t/(1 - t), so G_0 = 1 and
G_w = C_(w+1) - C_w.  verify_grade_sums checks both sides against Catalan
numbers from the classical convolution recurrence, not the hyper-Catalan formula.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .hypercatalan import _hyper_catalan_graded, hyper_catalan_series
from .reports import CheckGroup, Mismatch, VerificationReport
from .series import (
    TruncatedSeries,
    TypeVector,
    _graded_layout,
    mismatches_between,
    sum_of_variables,
)


class NegativeGeodeCoefficientError(ArithmeticError):
    """Raised if the factorization recurrence produces a negative value.

    Every Geode coefficient counts marked trees, so a negative intermediate
    can only mean corrupted target values or an implementation bug; it is a
    hard failure rather than a reportable mismatch.
    """


def geode_series(bound: int) -> TruncatedSeries:
    """G truncated at the given edge weight, solved from the factorization."""
    return TruncatedSeries._from_table(bound, _geode_coefficients(bound).values())


def _geode_coefficients(bound: int) -> dict[tuple[int, ...], int]:
    """G(k) keyed by the entry tuple of k, for every k of weight <= bound, in graded order."""
    return _solve(zip(_graded_layout(bound)[0], _lifted_targets(bound)))


def _lifted_targets(bound: int) -> Iterator[int]:
    """C(k + e_1) for each k in ``_graded_layout(bound)``'s entries: with one more edge and
    one more m_1 than k, and as many leaves, C(k + e_1) = C(k) * (w + 1) / (k_1 + 1) in grade w."""
    (entries, starts), table = _graded_layout(bound), _hyper_catalan_graded(bound)
    yield 1  # k = 0: C(e_1)
    for w in range(1, bound + 1):
        grade = slice(starts[w], starts[w + 1])
        yield from (c * (w + 1) // (k[0] + 1) for k, c in zip(entries[grade], table[grade]))


def solve_factorization(
    bound: int, targets: Mapping[TypeVector, int], order: Iterable[TypeVector]
) -> TruncatedSeries:
    """Run the recurrence with explicit targets C(k + e_1) and processing order.

    Any order that never visits a vector before all vectors of strictly
    smaller edge weight is valid; the solution cannot depend on the choice.
    Exposed separately so that reorderings and corrupted targets can be
    exercised directly; an order that breaks the rule raises ``ValueError``.
    """
    order = list(order)
    solved = _solve((m.entries, targets[m]) for m in order)
    return TruncatedSeries(bound, {m: solved[m.entries] for m in order})


def _solve(pairs: Iterable[tuple[tuple[int, ...], int]]) -> dict[tuple[int, ...], int]:
    """G(k) for each (entries of k, C(k + e_1)) pair, keyed by entries in the order given.

    Every term k + e_1 - e_(i+1) is lighter than k, so it must already be solved.
    """
    solved: dict[tuple[int, ...], int] = {}
    for k, value in pairs:
        last = len(k) - 1
        if last > 0:
            term = [k[0] + 1, *k[1:]]  # k + e_1; each term lowers one later entry of it
            try:
                for i in range(1, last):
                    if k[i]:
                        term[i] -= 1
                        value -= solved[tuple(term)]
                        term[i] += 1
                # k is trimmed, so k_last >= 1; lowering it may leave zeros to trim
                term[last] -= 1
                while not term[-1]:
                    term.pop()
                value -= solved[tuple(term)]
            except KeyError:
                text = TypeVector(k).text
                raise ValueError(f"order visits t^[{text}] before a lighter monomial") from None
        if value < 0:
            text = TypeVector(k).text
            raise NegativeGeodeCoefficientError(f"coefficient of t^[{text}] came out {value}")
        solved[k] = value
    return solved


def verify_factorization(bound: int) -> VerificationReport:
    """Check S = 1 + (t_1 + ... + t_bound) G at every monomial up to the bound.

    The recurrence only ever used the monomials containing t_1, so the
    t_1-free monomials are reported as their own group of consistency
    equations; the constant term is listed separately as well.
    """
    s = hyper_catalan_series(bound)
    recomposed = TruncatedSeries.one(bound) + sum_of_variables(bound) * geode_series(bound)
    defining: list[Mismatch] = []
    consistency: list[Mismatch] = []
    for m, expected, actual in mismatches_between(s, recomposed):
        bucket = defining if m.multiplicity(1) else consistency
        bucket.append(Mismatch(m.text, expected, actual))
    entries = _graded_layout(bound)[0]
    n_defining = sum(1 for e in entries if e and e[0])
    n_consistency = len(entries) - 1 - n_defining  # less the constant term
    groups = (
        CheckGroup("constant term", 1),
        CheckGroup("defining equations (t_1 present)", n_defining, tuple(defining)),
        CheckGroup(
            "consistency equations (t_1 absent)", n_consistency, tuple(consistency)
        ),
    )
    return VerificationReport("factorization", bound, groups)


def verify_grade_sums(bound: int) -> VerificationReport:
    """Check each grade sum of S against C_w and of G against C_(w+1) - C_w.

    A mismatch is keyed by its grade, e.g. "weight 3", not by a monomial.
    """
    s, g = hyper_catalan_series(bound), geode_series(bound)  # first, as they check the bound
    catalan = [1]
    for n in range(1, bound + 2):
        catalan.append(sum(catalan[i] * catalan[n - 1 - i] for i in range(n)))
    differences = [1] + [catalan[w + 1] - catalan[w] for w in range(1, bound + 1)]
    groups = []
    for label, series, wanted in (
        ("S grade sums vs Catalan numbers", s, catalan),
        ("G grade sums vs Catalan differences", g, differences),
    ):
        sums = [sum(series._grades.get(w, {}).values()) for w in range(bound + 1)]
        mismatches = tuple(
            Mismatch(f"weight {w}", wanted[w], got)
            for w, got in enumerate(sums)
            if got != wanted[w]
        )
        groups.append(CheckGroup(label, bound + 1, mismatches))
    return VerificationReport("grade-sums", bound, tuple(groups))


def verify_marked_trees(bound: int) -> VerificationReport:
    """Compare every Geode coefficient with the exhaustive marked-tree count.

    The two sides share nothing beyond the series plumbing: the left comes
    from the algebraic recurrence, the right from enumerating trees and
    counting initial leaves.  Exponential in the bound.
    """
    from .trees import count_marked_trees  # loaded by this check alone

    return _verify_counts("marked-trees", "marked-tree", count_marked_trees, bound)


def verify_marked_subdigons(bound: int) -> VerificationReport:
    """Compare every Geode coefficient with the marked-subdigon count.

    Marks count external edges up to the completion of the first external
    face, the polygon-side mirror of initial leaves.  Exponential in the
    bound.
    """
    from .subdigons import count_marked_subdigons  # loaded by this check alone

    return _verify_counts(
        "marked-subdigons", "marked-subdigon", count_marked_subdigons, bound
    )


def _verify_counts(
    name: str, label: str, count: Callable[[TypeVector], int], bound: int
) -> VerificationReport:
    rows = _counted(bound, (count,))
    mismatches = tuple(Mismatch(m.text, g, c) for m, g, c in rows if g != c)
    group = CheckGroup(f"coefficients vs {label} counts", len(rows), mismatches)
    return VerificationReport(name, bound, (group,))


def _counted(bound: int, counts: Sequence[Callable[[TypeVector], int]]) -> list[tuple]:
    """(m, G(m), *[count(m) for count in counts]) for every type m up to the bound, graded."""
    g = _geode_coefficients(bound)
    return [
        (m, value, *[count(m) for count in counts])
        for m, value in zip(map(TypeVector, g), g.values())
    ]
