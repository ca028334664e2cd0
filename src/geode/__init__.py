"""Exact combinatorics of the hyper-Catalan series and the Geode.

The package computes the multivariate series S = sum_m C(m) t^m whose
coefficients count ordered trees and roofed polygon dissections (subdigons)
by type, solves the factorization S = 1 + (t_1 + t_2 + ...) G for the Geode
series G, and machine-verifies the identities and bijections relating them,
all in exact integer arithmetic.

``import geode`` loads no submodule: each public name below, and each
submodule, is imported on first use (PEP 562), so a command loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "factorization": "NegativeGeodeCoefficientError geode_series verify_factorization "
    "verify_grade_sums verify_marked_subdigons verify_marked_trees",
    "hypercatalan": "hyper_catalan hyper_catalan_series verify_functional_equation",
    "reports": "CheckGroup Mismatch VerificationReport",
    "series": "TruncatedSeries TypeVector enumerate_types sum_of_variables",
    "subdigons": "TRIVIAL MarkedSubdigon Subdigon compose_subdigon count_initial_external_edges "
    "count_marked_subdigons decompose_subdigon enumerate_subdigons subdigon_to_tree "
    "tree_to_subdigon verify_bijections",
    "trees": "LEAF MarkedTree OrderedTree compose_tree count_initial_leaves count_marked_trees "
    "decompose_tree enumerate_trees",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:  # importing a submodule binds it in this namespace
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
