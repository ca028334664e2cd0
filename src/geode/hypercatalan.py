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

from itertools import accumulate, chain
from math import factorial, prod
from operator import mul

from .reports import VerificationReport, compare
from .series import TruncatedSeries, TypeVector, _coefficient_rows, _graded_tails, _require_type


def hyper_catalan(m: TypeVector) -> int:
    """The exact hyper-Catalan number C(m); grows factorially with the weight."""
    _require_type(m)
    return factorial(m.edge_weight) // (factorial(m.leaf_count) * prod(map(factorial, m.entries)))


def _hyper_catalan_graded(bound: int, lift: int = 0) -> tuple[int, ...]:
    """C(m + lift * e_1) for every m of weight <= bound, aligned with ``_graded_layout(bound)``.

    With m = (w - r, *t), t = (m_2, m_3, ...) of weight r, the leaf count does not
    depend on m_1, nor does d(t) = leaf_count! * m_2! * m_3! * ...: one divisor per tail
    and one division per value, C(m + lift * e_1) = ((w + lift)! / (w + lift - r)!) // d(t).
    """
    tails = _graded_tails(bound)  # first, as it checks the bound
    fact = list(accumulate(range(1, bound + lift + 2), mul, initial=1))  # fact[n] = n!
    get = fact.__getitem__
    d = [[get(1 + r - sum(t)) * prod(map(get, t)) for t in ts] for r, ts in enumerate(tails)]
    return tuple(chain.from_iterable(
        map((fact[w + lift] // fact[w + lift - r]).__floordiv__, d[r])
        for w in range(bound + 1) for r in range(w + 1)  # m_1 = w - r descending, as in the layout
    ))


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
    group = compare("monomials", _coefficient_rows(closed_form, rhs))
    return VerificationReport("functional-equation", bound, (group,))
