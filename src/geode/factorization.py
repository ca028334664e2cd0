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

from operator import sub
from typing import Callable, Sequence

from .hypercatalan import _hyper_catalan_tails, hyper_catalan_series
from .reports import VerificationReport, compare
from .series import (
    TruncatedSeries, TypeVector, _blocks, _coefficient_rows, _graded, _graded_layout,
    _graded_tails, _trimmed, sum_of_variables,
)


class NegativeGeodeCoefficientError(ArithmeticError):
    """Raised if the factorization recurrence produces a negative value.

    Every Geode coefficient counts marked trees, so a negative intermediate
    can only mean corrupted target values or an implementation bug; it is a
    hard failure rather than a reportable mismatch.
    """


def geode_series(bound: int) -> TruncatedSeries:
    """G truncated at the given edge weight, solved from the factorization."""
    return TruncatedSeries._packed(bound, _solve(bound))


def _geode_coefficients(bound: int) -> dict[tuple[int, ...], int]:
    """G(k) keyed by the entry tuple of k, for every k of weight <= bound, in graded order."""
    return dict(zip(_graded_layout(bound), _graded(_solve(bound))))


def _solve(bound: int) -> list[list[list[int]]]:
    """G((j, *t)) for j = 0, ..., bound - r, one list per tail t of weight r, by weight: the
    recurrence as a list operation over m_1, G_t = C((j + 1, *t)) less G_(t - e_n)[1:] for each
    n >= 2 with t_n >= 1, every such tail lighter than t and so already solved."""
    tails, solved = _graded_tails(bound)[0], {}  # tail -> its G values over m_1
    for ts, targets in zip(tails, _hyper_catalan_tails(bound, 1)):
        for t, g in zip(ts, targets):
            for i, m in enumerate(t):
                if m:  # G_(t - e_(i + 2))
                    g = map(sub, g, solved[_trimmed(t[:i] + (m - 1,) + t[i + 1:])][1:])
            solved[t] = list(g)
    table = [[solved[t] for t in ts] for ts in tails]
    if min(map(min, solved.values())) < 0:  # name the first negative value in graded order
        k, value = next(kv for kv in zip(_graded_layout(bound), _graded(table)) if kv[1] < 0)
        raise NegativeGeodeCoefficientError(f"coefficient of t^[{TypeVector(k)}] came out {value}")
    return table


def verify_factorization(bound: int) -> VerificationReport:
    """Check S = 1 + (t_1 + ... + t_bound) G at every monomial up to the bound.

    The constant term is its own group.  The recurrence only ever used the
    monomials containing t_1, so the t_1-free monomials are reported as their
    own group of consistency equations.  Each group counts the comparisons it
    makes.  T = t_1 + t_2 + ... has no constant term, so G's grade B times T
    lands past the bound B: this check pins G only below B, and leaves G's top
    grade to grade-sums and marked-*.
    """
    s = hyper_catalan_series(bound)
    recomposed = TruncatedSeries.one(bound) + sum_of_variables(bound) * geode_series(bound)
    constant, *rest = _coefficient_rows(s, recomposed)  # graded: the empty entries come first
    groups = (
        compare("constant term", [constant]),
        compare("defining equations (t_1 present)", [r for r in rest if r[0][0]]),
        compare("consistency equations (t_1 absent)", [r for r in rest if not r[0][0]]),
    )
    return VerificationReport("factorization", bound, groups)


def verify_grade_sums(bound: int) -> VerificationReport:
    """Check each grade sum of S against C_w and of G against C_(w+1) - C_w.

    A mismatch is keyed by its grade, e.g. "weight 3", not by a monomial,
    and a group that compares fewer grades than its series holds fails on a
    "grades compared" row.
    """
    s, g = hyper_catalan_series(bound), geode_series(bound)  # first, as they check the bound
    catalan = [1]
    for n in range(1, bound + 2):
        catalan.append(sum(catalan[i] * catalan[n - 1 - i] for i in range(n)))

    def rows(series: TruncatedSeries, wanted: Callable[[int], int]) -> list[tuple]:
        # one row per grade, each value computed or indexed at w: a short table raises
        sums = [0] * (series.bound + 1)
        for w, _, values in _blocks(series._table()):
            sums[w] += sum(values)
        out = [(f"weight {w}", wanted(w), sums[w]) for w in range(bound + 1)]
        if len(out) != series.bound + 1:  # fewer grades is a mismatch, not a smaller PASS
            out.append(("grades compared", series.bound + 1, len(out)))
        return out

    groups = (
        compare("S grade sums vs Catalan numbers", rows(s, catalan.__getitem__)),
        compare(
            "G grade sums vs Catalan differences",
            rows(g, lambda w: catalan[w + 1] - catalan[w] if w else 1),
        ),
    )
    return VerificationReport("grade-sums", bound, groups)


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
    rows = ((m.entries, g, c) for m, g, c in _counted(bound, (count,)))
    return VerificationReport(name, bound, (compare(f"coefficients vs {label} counts", rows),))


def _counted(bound: int, counts: Sequence[Callable[[TypeVector], int]]) -> list[tuple]:
    """(m, G(m), *[count(m) for count in counts]) for every type m up to the bound, graded."""
    g = _geode_coefficients(bound)
    return [
        (m, value, *[count(m) for count in counts])
        for m, value in zip(map(TypeVector, g), g.values())
    ]
