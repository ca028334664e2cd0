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
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .hypercatalan import _hyper_catalan_entries, hyper_catalan_series
from .reports import CheckGroup, Mismatch, VerificationReport
from .series import (
    TruncatedSeries,
    TypeVector,
    enumerate_types,
    mismatches_between,
    sum_of_variables,
)
from .subdigons import count_marked_subdigons
from .trees import count_marked_trees


class NegativeGeodeCoefficientError(ArithmeticError):
    """Raised if the factorization recurrence produces a negative value.

    Every Geode coefficient counts marked trees, so a negative intermediate
    can only mean corrupted target values or an implementation bug; it is a
    hard failure rather than a reportable mismatch.
    """


def geode_series(bound: int) -> TruncatedSeries:
    """G truncated at the given edge weight, solved from the factorization."""
    order = enumerate_types(bound)
    lifted = ((k, (k.multiplicity(1) + 1, *k.entries[1:])) for k in order)
    targets = {k: _hyper_catalan_entries(e) for k, e in lifted}  # C(k + e_1)
    return solve_factorization(bound, targets, order)


def solve_factorization(
    bound: int, targets: Mapping[TypeVector, int], order: Iterable[TypeVector]
) -> TruncatedSeries:
    """Run the recurrence with explicit targets C(k + e_1) and processing order.

    Any order that never visits a vector before all vectors of strictly
    smaller edge weight is valid; the solution cannot depend on the choice.
    Exposed separately so that reorderings and corrupted targets can be
    exercised directly; an order that breaks the rule raises ``ValueError``.
    The solution is filled grade by grade on entry tuples: the term
    k + e_1 - e_(i+1) has weight weight(k) - i, so it is read from that grade.
    """
    grades: dict[int, dict[tuple[int, ...], int]] = {}
    for m in order:
        k, weight, value = m.entries, m.edge_weight, targets[m]
        try:
            for i in range(1, len(k)):
                if k[i]:
                    # k + e_1 - e_(i+1) without trailing zeros; its first entry is >= 1
                    term = (k[0] + 1, *k[1:i], k[i] - 1, *k[i + 1 :])
                    while not term[-1]:
                        term = term[:-1]
                    value -= grades[weight - i][term]
        except KeyError:
            raise ValueError(f"order visits t^[{m.text}] before a lighter monomial") from None
        if value < 0:
            raise NegativeGeodeCoefficientError(f"coefficient of t^[{m.text}] came out {value}")
        grades.setdefault(weight, {})[k] = value
    return TruncatedSeries._from_grades(bound, grades)


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
    types = enumerate_types(bound)
    n_defining = sum(1 for m in types if m.multiplicity(1))
    n_consistency = sum(1 for m in types if m and not m.multiplicity(1))
    groups = (
        CheckGroup("constant term", 1),
        CheckGroup("defining equations (t_1 present)", n_defining, tuple(defining)),
        CheckGroup(
            "consistency equations (t_1 absent)", n_consistency, tuple(consistency)
        ),
    )
    return VerificationReport("factorization", bound, groups)


def verify_marked_trees(bound: int) -> VerificationReport:
    """Compare every Geode coefficient with the exhaustive marked-tree count.

    The two sides share nothing beyond the series plumbing: the left comes
    from the algebraic recurrence, the right from enumerating trees and
    counting initial leaves.  Exponential in the bound.
    """
    return _verify_counts("marked-trees", "marked-tree", count_marked_trees, bound)


def verify_marked_subdigons(bound: int) -> VerificationReport:
    """Compare every Geode coefficient with the marked-subdigon count.

    Marks count external edges up to the completion of the first external
    face, the polygon-side mirror of initial leaves.  Exponential in the
    bound.
    """
    return _verify_counts(
        "marked-subdigons", "marked-subdigon", count_marked_subdigons, bound
    )


def _verify_counts(
    name: str, label: str, count: Callable[[TypeVector], int], bound: int
) -> VerificationReport:
    g = geode_series(bound)
    mismatches = []
    types = enumerate_types(bound)
    for m in types:
        expected = g.coefficient(m)
        actual = count(m)
        if expected != actual:
            mismatches.append(Mismatch(m.text, expected, actual))
    group = CheckGroup(f"coefficients vs {label} counts", len(types), tuple(mismatches))
    return VerificationReport(name, bound, (group,))
