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

from .reports import VerificationReport, compare
from .series import (
    TruncatedSeries, TypeVector, _coefficient_rows, _graded_tails, _require_type
)


def hyper_catalan(m: TypeVector) -> int:
    """The exact hyper-Catalan number C(m); grows factorially with the weight."""
    _require_type(m)
    return factorial(m.edge_weight) // (factorial(m.leaf_count) * prod(map(factorial, m.entries)))


def _hyper_catalan_tails(bound: int, lift: int = 0, bigons: bool = True) -> list[list[list[int]]]:
    """C((j + lift, *t)) for j = 0, ..., bound - r, or j = 0 alone without bigons, one list
    per tail t of weight r, by weight:
    one divisor per tail, d(t) = leaf_count! * m_2! * m_3! * ..., as neither depends on m_1,
    and one division per value, C((m_1, *t)) = ((m_1 + r)! / m_1!) // d(t)."""
    tails = _graded_tails(bound)[0]  # first, as it checks the bound
    fact = list(accumulate(range(1, bound + lift + 2), mul, initial=1))  # fact[n] = n!
    get, table = fact.__getitem__, []
    for r, ts in enumerate(tails):
        top = lift + (bound - r if bigons else 0)  # the largest m_1
        rising = [fact[m + r] // fact[m] for m in range(lift, top + 1)]
        d = [get(1 + r - sum(t)) * prod(map(get, t)) for t in ts]
        table.append([list(map(divisor.__rfloordiv__, rising)) for divisor in d])
    return table


def hyper_catalan_series(bound: int) -> TruncatedSeries:
    """S truncated at the given edge weight: coefficient of t^m is C(m)."""
    return TruncatedSeries._packed(bound, _hyper_catalan_tails(bound))


def verify_functional_equation(bound: int) -> VerificationReport:
    """Check S = 1 + sum_{n>=1} t_n S^n coefficient-by-coefficient up to the bound.

    The right-hand side is recomposed with generic series arithmetic, so this
    pits the closed-form table against truncated multiplication; the equation
    determines S, so any wrong coefficient shows.  Any mismatched monomials are
    listed in the report; a correct implementation produces none.
    """
    closed_form = hyper_catalan_series(bound)
    power = TruncatedSeries.one(bound)
    terms = [(0, power)]  # (n, S^n): the right side is their sum of t_n S^n
    for n in range(1, bound + 1):
        # S^n is needed only up to weight bound - n: t_n lifts the rest past the bound
        power = power.with_bound(bound - n) * closed_form.with_bound(bound - n)
        terms.append((n, power))
    rhs = TruncatedSeries._lifted_sum(bound, terms)
    group = compare("monomials", _coefficient_rows(closed_form, rhs))
    return VerificationReport("functional-equation", bound, (group,))
