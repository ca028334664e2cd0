"""The benchmark's metrics: BENCHMARK.json's lists, and what each one feeds.

BENCHMARK.json holds every metric's name, unit, direction and bound.
``FEEDS`` adds what its fixed keys cannot hold: for an end-to-end metric what
it measures, and for a layer metric which end-to-end metric it should move
and on which workload, so a later change can state its prediction before it
is measured.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END: list[dict] = SPEC["end_to_end"]
PER_LAYER: list[dict] = SPEC["per_layer"]

FEEDS = {
    # Measured with tracing off, from fresh child processes.  A pass is one
    # run of the workload's invocations; each metric is the median over the
    # run's passes (set-up times over the run's set-up samples).  The speed
    # of this shared host drifts by up to 40 % within minutes, so pass times
    # are divided by the median time of a fixed calibration job
    # (run.CALIBRATION_CODE) that the run interleaves with the invocations:
    # the unit "calib" is that job's duration in the same run.  The raw
    # seconds are printed beside them.  Set-up time stays in seconds: when
    # the host slows down, set-up and the calibration job slow by different
    # factors (about 1.35 and 1.55), so the ratio drifted as much as the
    # raw time did.
    "setup_s": "a fresh interpreter up to geode.cli imported and its parser "
    "built; every invocation pays it",
    "wall_calib": "wall time of one pass",
    "cpu_calib": "user + sys time of the pass's children, from each child's "
    "own rusage, over the calibration job's; a process pool that cuts "
    "wall_calib shows here as a rise",
    "items_per_calib": "the workload's items per pass (rows, checked "
    "equalities or listed trees) over wall time",
    "peak_rss_mb": "largest child maximum RSS in a pass",
    # From the traced in-process run.  "_self_s" is a span minus its child
    # spans; any other "_s" is the whole span, counted once where a span
    # nests in one of its own name.  A layer a workload never calls reads
    # exactly 0; a metric whose patch point or cache no longer exists reads
    # -1 (unobserved).
    "series.enumerate_types_s": "wall_calib on tables",
    "series.types_enumerated": "wall_calib on tables",
    "series.mul_s": "wall_calib and items_per_calib on algebra; 0 elsewhere",
    "series.mul_calls": "wall_calib on algebra",
    "series.mul_pairs_total": "wall_calib on algebra: sum of |A|*|B| over "
    "products (computed)",
    "series.mul_pairs_in_bound": "wall_calib on algebra: grade pairs with "
    "w_a + w_b <= bound, from the operands' grade histograms (computed)",
    "series.mul_pair_yield": "wall_calib on algebra: mul_pairs_in_bound over "
    "the base mul_pairs_total",
    "series.mul_ns_per_in_bound_pair": "wall_calib on algebra",
    "hypercatalan.hyper_catalan_s": "wall_calib on tables",
    "hypercatalan.hyper_catalan_calls": "wall_calib on tables",
    "hypercatalan.series_s": "wall_calib on algebra",
    "hypercatalan.verify_functional_equation_self_s": "wall_calib on algebra",
    "factorization.geode_series_self_s": "wall_calib on tables",
    "factorization.recurrence_terms": "wall_calib on tables: subtractions the "
    "recurrence makes (computed)",
    "factorization.verify_factorization_self_s": "wall_calib on algebra",
    "factorization.verify_marked_trees_self_s": "wall_calib on enumeration",
    "factorization.verify_marked_subdigons_self_s": "wall_calib on enumeration",
    "trees.count_marked_trees_s": "wall_calib on enumeration",
    "trees.trees_counted": "wall_calib on enumeration: trees enumerated "
    "inside count_marked_trees",
    "trees.ns_per_tree": "wall_calib on enumeration: count_marked_trees_s "
    "over trees_counted",
    "trees.enumerate_trees_s": "wall_calib on enumeration and listing",
    "trees.enumerate_marked_trees_s": "wall_calib on listing",
    "trees.marked_trees_listed": "wall_calib on listing",
    "trees.serialize_s": "wall_calib on listing",
    "subdigons.verify_bijections_self_s": "wall_calib on enumeration",
    "subdigons.count_marked_subdigons_s": "wall_calib on enumeration",
    "subdigons.subdigons_counted": "wall_calib on enumeration: subdigons "
    "enumerated inside count_marked_subdigons",
    "subdigons.enumerate_cold_s": "wall_calib on enumeration: "
    "enumerate_subdigons calls that missed the cache",
    "subdigons.enumerate_warm_s": "wall_calib on enumeration: "
    "enumerate_subdigons calls served from the cache",
    "subdigons.cache_hits": "wall_calib on enumeration",
    "subdigons.cache_misses": "wall_calib on enumeration",
    "subdigons.cache_hit_ratio": "wall_calib on enumeration: hits over the "
    "base hits + misses",
    "reports.render_s": "wall_calib on algebra and enumeration",
    "cli.self_s": "wall_calib on tables and listing: argparse, row building, "
    "job mapping and emission",
    "cli.rows_out": "items_per_calib on tables and listing: lines written to "
    "stdout",
    "cli.bytes_out": "wall_calib on tables and listing",
    "trace.overhead_s": "none: traced minus untraced in-process wall time of "
    "the same pass",
}
