"""Each identity is checked by two routes that share nothing but plumbing.

Every side of a check runs alone under ``sys.setprofile``, which records the
``module.qualname`` of each geode function it calls.  A side that reached
into the other route would make its check compare a route with itself, so
each side has a forbidden set; the plumbing every side may share is
``series._graded_layout``, ``series._graded_tails``, ``series._primes``,
``series._trimmed``, the tail-table readers ``series._blocks`` and
``series._rows``, ``TypeVector``, ``_Value`` with ``_restore``, and the
report records.
Loosening a forbidden set is a change of spec.
"""

import sys
from unittest.mock import patch

import pytest

from geode import count_marked_subdigons, count_marked_trees, enumerate_types, hypercatalan
from geode.factorization import _solve
from geode.hypercatalan import _hyper_catalan_tails
from geode.series import _graded_layout, _graded_tails
from geode.subdigons import _enumerate_subdigons_cached, _slot_groups

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11"
)

BOUND = 6
TYPES = enumerate_types(BOUND)
CLOSED_FORM = hypercatalan.hyper_catalan_series(BOUND)


def recomposed_side():
    # functional-eq with its closed form handed in: only the recomposition and the compare run
    with patch.object(hypercatalan, "hyper_catalan_series", lambda bound: CLOSED_FORM):
        return hypercatalan.verify_functional_equation(BOUND)


MUL = "series.TruncatedSeries.__mul__"
ENUMERATORS = ("trees", "subdigons")

# side: (run it, a function it must reach, what it must not reach: a module or a function)
SIDES = {
    "closed form of S": (
        lambda: _hyper_catalan_tails(BOUND),
        "hypercatalan._hyper_catalan_tails",
        ("factorization", *ENUMERATORS, MUL),
    ),
    "recomposed S": (
        recomposed_side,
        MUL,
        ("factorization", *ENUMERATORS, "hypercatalan._hyper_catalan_tails"),
    ),
    "G": (
        lambda: _solve(BOUND),
        "factorization._solve",
        (*ENUMERATORS, MUL),
    ),
    "marked-tree counts": (
        lambda: [count_marked_trees(m) for m in TYPES],
        "trees._words",
        ("hypercatalan", "factorization"),
    ),
    "marked-subdigon counts": (
        lambda: [count_marked_subdigons(m) for m in TYPES],
        "subdigons._enumerate_subdigons_cached",
        ("hypercatalan", "factorization", "trees"),
    ),
}


def reached(side) -> set[str]:
    """The ``module.qualname`` of every geode function that ``side()`` calls, from cold caches."""
    _enumerate_subdigons_cached.cache_clear()
    _slot_groups.cache_clear()
    _graded_layout.cache_clear()
    _graded_tails.cache_clear()
    names = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("geode."):
            names.add(f"{module.removeprefix('geode.')}.{frame.f_code.co_qualname}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(previous)
    return names


@pytest.mark.parametrize("name", SIDES)
def test_each_side_reaches_none_of_the_other_route(name):
    side, needed, forbidden = SIDES[name]
    names = reached(side)
    assert needed in names  # the trace saw the side's own work
    crossed = {n for n in names for f in forbidden if n == f or n.startswith(f + ".")}
    assert crossed == set()
