"""Hyper-Catalan numbers and their generating series.

The hyper-Catalan number of an exponent vector m counts the ordered trees of
type m (equivalently, the subdigons with m_n faces of n + 1 edges):

    C(m) = (m_1 + 2 m_2 + 3 m_3 + ...)! / ((1 + m_2 + 2 m_3 + ...)! m_1! m_2! ...)

that is, edge_weight! / (leaf_count! * product of m_n!).  The division is
always exact.  Specializing m = (0, k) gives the classical Catalan numbers.

The generating series S = sum_m C(m) t^m is the unique formal power series
satisfying S = 1 + sum_{n >= 1} t_n S^n.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial, prod
from operator import mul

from .reports import CheckGroup, Mismatch, VerificationReport
from .series import TruncatedSeries, TypeVector, _graded_layout, mismatches_between


def hyper_catalan(m: TypeVector) -> int:
    """The exact hyper-Catalan number C(m); grows factorially with the weight."""
    return factorial(m.edge_weight) // (factorial(m.leaf_count) * prod(map(factorial, m.entries)))


def _hyper_catalan_graded(bound: int) -> tuple[int, ...]:
    """C(m) for every m of weight <= bound, aligned with ``_graded_layout(bound)``'s entries.

    Every vector of grade w has w edges, so one factorial table serves the
    whole grade: C(m) = w! / ((1 + w - sum of m_n)! * product of m_n!).
    """
    entries, starts = _graded_layout(bound)  # first, as it checks the bound
    fact = list(accumulate(range(1, bound + 2), mul, initial=1))  # fact[n] = n!
    get = fact.__getitem__
    return tuple(
        fact[w] // (fact[1 + w - sum(e)] * prod(map(get, e)))
        for w in range(bound + 1)
        for e in entries[starts[w]:starts[w + 1]]
    )


def hyper_catalan_series(bound: int) -> TruncatedSeries:
    """S truncated at the given edge weight: coefficient of t^m is C(m)."""
    return TruncatedSeries._from_table(bound, _hyper_catalan_graded(bound))


def verify_functional_equation(bound: int) -> VerificationReport:
    """Check S = 1 + sum_{n>=1} t_n S^n coefficient-by-coefficient up to the bound.

    The right-hand side is recomposed with generic series arithmetic, so this
    pits the closed-form table against truncated multiplication; the equation
    determines S, so any wrong coefficient shows.  Any mismatched monomials are
    listed in the report; a correct implementation produces none.
    """
    closed_form = hyper_catalan_series(bound)
    rhs = TruncatedSeries.one(bound)
    power = TruncatedSeries.one(bound)
    for n in range(1, bound + 1):
        # S^n is needed only up to weight bound - n: t_n lifts the rest past the bound
        cut = bound - n
        power = power.with_bound(cut) * closed_form.with_bound(cut)
        rhs = rhs + TruncatedSeries.variable(n, bound) * power.with_bound(bound)
    mismatches = tuple(
        Mismatch(m.text, expected, actual)
        for m, expected, actual in mismatches_between(closed_form, rhs)
    )
    group = CheckGroup("monomials", len(_graded_layout(bound)[0]), mismatches)
    return VerificationReport("functional-equation", bound, (group,))
