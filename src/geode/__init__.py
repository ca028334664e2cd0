"""Exact combinatorics of the hyper-Catalan series and the Geode.

The package computes the multivariate series S = sum_m C(m) t^m whose
coefficients count ordered trees and roofed polygon dissections (subdigons)
by type, solves the factorization S = 1 + (t_1 + t_2 + ...) G for the Geode
series G, and machine-verifies the identities and bijections relating them,
all in exact integer arithmetic.
"""

from .factorization import (
    NegativeGeodeCoefficientError,
    geode_series,
    solve_factorization,
    verify_factorization,
    verify_grade_sums,
    verify_marked_subdigons,
    verify_marked_trees,
)
from .hypercatalan import (
    hyper_catalan,
    hyper_catalan_series,
    verify_functional_equation,
)
from .reports import CheckGroup, Mismatch, VerificationReport
from .series import (
    TruncatedSeries,
    TypeVector,
    enumerate_types,
    grading_key,
    mismatches_between,
    sum_of_variables,
)
from .subdigons import (
    TRIVIAL,
    MarkedSubdigon,
    Subdigon,
    compose_subdigon,
    count_initial_external_edges,
    count_marked_subdigons,
    decompose_subdigon,
    enumerate_marked_subdigons,
    enumerate_subdigons,
    external_edges_ccw,
    external_faces,
    subdigon_to_tree,
    subdigon_type,
    tree_to_subdigon,
    verify_bijections,
)
from .trees import (
    LEAF,
    MarkedTree,
    OrderedTree,
    clawed_nodes,
    compose_tree,
    count_initial_leaves,
    count_marked_trees,
    decompose_tree,
    enumerate_marked_trees,
    enumerate_trees,
    post_order,
    root_decompose,
    tree_type,
)

__version__ = "0.1.0"

__all__ = [
    "CheckGroup",
    "LEAF",
    "MarkedSubdigon",
    "MarkedTree",
    "Mismatch",
    "NegativeGeodeCoefficientError",
    "OrderedTree",
    "Subdigon",
    "TRIVIAL",
    "TruncatedSeries",
    "TypeVector",
    "VerificationReport",
    "clawed_nodes",
    "compose_subdigon",
    "compose_tree",
    "count_initial_external_edges",
    "count_initial_leaves",
    "count_marked_subdigons",
    "count_marked_trees",
    "decompose_subdigon",
    "decompose_tree",
    "enumerate_marked_subdigons",
    "enumerate_marked_trees",
    "enumerate_subdigons",
    "enumerate_trees",
    "enumerate_types",
    "external_edges_ccw",
    "external_faces",
    "geode_series",
    "grading_key",
    "hyper_catalan",
    "hyper_catalan_series",
    "mismatches_between",
    "post_order",
    "root_decompose",
    "solve_factorization",
    "subdigon_to_tree",
    "subdigon_type",
    "sum_of_variables",
    "tree_to_subdigon",
    "tree_type",
    "verify_bijections",
    "verify_factorization",
    "verify_functional_equation",
    "verify_grade_sums",
    "verify_marked_subdigons",
    "verify_marked_trees",
]
