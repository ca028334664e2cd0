"""In-process traced run: spans around geode's public functions.

The spans come from this file alone; no geode source changes.  Each wrapped
function is replaced in every ``geode.*`` module that imported it by name, so
``geode.cli.geode_series`` and ``geode.factorization.geode_series`` report to
the same span.  Very hot per-item calls (``hyper_catalan``, ``serialize``)
are aggregated into a call count and a total instead of one span each.
Spans are kept in memory and reduced to metrics when the pass ends.  A patch
point that a later refactor removed is reported as unobserved, never as a
crash.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from statistics import median

import check

perf_counter = time.perf_counter


@dataclass
class Span:
    name: str
    parent: int | None
    nested: bool
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.totals: dict[str, list[float]] = {}
        self.running: set[str] = set()
        self.installed: set[str] = {"cli.main"}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_observed = True

    def open(self, name: str) -> int:
        nested = any(self.spans[i].name == name for i in self.stack)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, parent, nested, perf_counter()))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def exclude(self, seconds: float) -> None:
        """Charge time spent inside a span to a child: aggregates and bookkeeping."""
        if self.stack:
            self.spans[self.stack[-1]].child_s += seconds

    def add_total(self, name: str, seconds: float) -> None:
        entry = self.totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        self.exclude(seconds)

    # reductions

    def of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def inclusive_s(self, name: str) -> float | None:
        if name not in self.installed:
            return None
        return sum(s.end - s.start for s in self.of(name) if not s.nested)

    def self_s(self, name: str) -> float | None:
        if name not in self.installed:
            return None
        return sum(s.end - s.start - s.child_s for s in self.of(name))

    def attr_sum(self, name: str, key: str, parent: str | None = None) -> float | None:
        if name not in self.installed or (parent and parent not in self.installed):
            return None
        total = 0
        for s in self.of(name):
            if key not in s.attrs:
                return None
            if parent is None or (s.parent is not None and self.spans[s.parent].name == parent):
                total += s.attrs[key]
        return total

    def calls(self, name: str) -> int | None:
        return self.totals.get(name, [0, 0.0])[0] if name in self.installed else None

    def seconds(self, name: str) -> float | None:
        return self.totals.get(name, [0, 0.0])[1] if name in self.installed else None


# ---------------------------------------------------------------- hooks
# A hook pair (before, after) records attributes of one call.  Their time is
# charged to tracing, not to the span that called the wrapped function.  A
# hook that raises leaves its attribute unset, so the metric reads unobserved.


def _after_len(span: Span, args: tuple, result, state) -> None:
    span.attrs["items"] = len(result)


def _grade_histogram(series) -> dict[int, int]:
    monomials = series._coeffs if hasattr(series, "_coeffs") else series.support()
    hist: dict[int, int] = {}
    for m in monomials:
        hist[m.edge_weight] = hist.get(m.edge_weight, 0) + 1
    return hist


def _after_mul(span: Span, args: tuple, result, state) -> None:
    a, b = args[0], args[1]
    ha, hb, bound = _grade_histogram(a), _grade_histogram(b), a.bound
    span.attrs["pairs_total"] = len(a) * len(b)
    span.attrs["pairs_in_bound"] = sum(
        na * nb for wa, na in ha.items() for wb, nb in hb.items() if wa + wb <= bound
    )


_recurrence_terms = lru_cache(maxsize=None)(check.recurrence_terms)


def _after_geode(span: Span, args: tuple, result, state) -> None:
    span.attrs["terms"] = _recurrence_terms(args[0])


def _subdigon_cache():
    module = sys.modules.get("geode.subdigons")
    cache = getattr(module, "_enumerate_subdigons_cached", None)
    return cache if hasattr(cache, "cache_info") else None


def _before_subdigons(args: tuple):
    cache = _subdigon_cache()
    return cache.cache_info().misses if cache else None


def _after_subdigons(span: Span, args: tuple, result, state) -> None:
    span.attrs["items"] = len(result)
    cache = _subdigon_cache()
    if cache is not None and state is not None:
        span.attrs["cold"] = cache.cache_info().misses > state


# (module, attribute or Class.method, span name, aggregate?, before, after)
PATCHES = (
    ("geode.series", "enumerate_types", "series.enumerate_types", False, None, _after_len),
    ("geode.series", "TruncatedSeries.__mul__", "series.mul", False, None, _after_mul),
    ("geode.hypercatalan", "hyper_catalan", "hypercatalan.hyper_catalan", True, None, None),
    ("geode.hypercatalan", "hyper_catalan_series", "hypercatalan.hyper_catalan_series", False, None, None),
    ("geode.hypercatalan", "verify_functional_equation", "hypercatalan.verify_functional_equation", False, None, None),
    ("geode.factorization", "geode_series", "factorization.geode_series", False, None, _after_geode),
    ("geode.factorization", "verify_factorization", "factorization.verify_factorization", False, None, None),
    ("geode.factorization", "verify_marked_trees", "factorization.verify_marked_trees", False, None, None),
    ("geode.factorization", "verify_marked_subdigons", "factorization.verify_marked_subdigons", False, None, None),
    ("geode.trees", "count_marked_trees", "trees.count_marked_trees", False, None, None),
    ("geode.trees", "enumerate_trees", "trees.enumerate_trees", False, None, _after_len),
    ("geode.trees", "enumerate_marked_trees", "trees.enumerate_marked_trees", False, None, _after_len),
    ("geode.trees", "OrderedTree.serialize", "trees.serialize", True, None, None),
    ("geode.trees", "MarkedTree.serialize", "trees.serialize", True, None, None),
    ("geode.subdigons", "verify_bijections", "subdigons.verify_bijections", False, None, None),
    ("geode.subdigons", "count_marked_subdigons", "subdigons.count_marked_subdigons", False, None, None),
    ("geode.subdigons", "enumerate_subdigons", "subdigons.enumerate_subdigons", False, _before_subdigons, _after_subdigons),
    ("geode.reports", "VerificationReport.to_dict", "reports.render", True, None, None),
    ("geode.reports", "VerificationReport.lines", "reports.render", True, None, None),
)


def _span_wrapper(tracer: Tracer, name: str, fn, before, after):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            state = before(args) if before else None
        except Exception:  # a changed API leaves the hook's metrics unobserved
            state = None
        tracer.exclude(perf_counter() - t0)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after:
            t0 = perf_counter()
            try:
                after(tracer.spans[idx], args, result, state)
            except Exception:
                pass
            tracer.exclude(perf_counter() - t0)
        return result

    return wrapper


def _aggregate_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        if name in tracer.running:  # a recursive call inside the same total
            return fn(*args, **kwargs)
        tracer.running.add(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_total(name, perf_counter() - t0)
            tracer.running.discard(name)

    return wrapper


def install(tracer: Tracer) -> list:
    """Patch every available point; returns undo actions for ``uninstall``."""
    undo = []
    modules = [m for n, m in sys.modules.items() if n == "geode" or n.startswith("geode.")]
    for module_name, attr, name, aggregate, before, after in PATCHES:
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            continue
        if aggregate:
            wrapper = _aggregate_wrapper(tracer, name, original)
        else:
            wrapper = _span_wrapper(tracer, name, original, before, after)
        tracer.installed.add(name)
        if owner_name:
            undo.append((owner, method, original))
            setattr(owner, method, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# ---------------------------------------------------------------- runs


def _clear_caches() -> None:
    """Empty every memo a geode module keeps, as a fresh process would have it."""
    for name, module in list(sys.modules.items()):
        if name == "geode" or name.startswith("geode."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _run_pass(cli, argvs, tracer: Tracer | None):
    """Run every argv through geode.cli.main; returns wall, stdouts, exit codes."""
    wall = 0.0
    outs, codes = [], []
    for argv in argvs:
        _clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            idx = tracer.open("cli.main") if tracer else None
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported as a failed invocation
                code = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.close(idx)
            wall += perf_counter() - t0
        if tracer:
            cache = _subdigon_cache()
            if cache is None:
                tracer.cache_observed = False
            else:
                info = cache.cache_info()
                tracer.cache_hits += info.hits
                tracer.cache_misses += info.misses
        outs.append(out.getvalue())
        codes.append(code)
    return wall, outs, codes


def _ratio(num, den, scale=1.0):
    if num is None or den is None:
        return None
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, outs: list[str], traced_s: float, untraced_s: float) -> dict:
    t = tracer
    mul_s = t.inclusive_s("series.mul")
    in_bound = t.attr_sum("series.mul", "pairs_in_bound")
    pairs = t.attr_sum("series.mul", "pairs_total")
    counted = t.inclusive_s("trees.count_marked_trees")
    trees_counted = t.attr_sum("trees.enumerate_trees", "items", "trees.count_marked_trees")
    subs = t.of("subdigons.enumerate_subdigons")
    cache_seen = "subdigons.enumerate_subdigons" in t.installed and all("cold" in s.attrs for s in subs)

    def by_temperature(cold: bool):
        if not cache_seen:
            return None
        return sum(s.end - s.start for s in subs if s.attrs["cold"] is cold and not s.nested)

    hits = t.cache_hits if t.cache_observed else None
    misses = t.cache_misses if t.cache_observed else None
    subs_counted = t.attr_sum("subdigons.enumerate_subdigons", "items", "subdigons.count_marked_subdigons")
    return {
        "series.enumerate_types_s": t.inclusive_s("series.enumerate_types"),
        "series.types_enumerated": t.attr_sum("series.enumerate_types", "items"),
        "series.mul_s": mul_s,
        "series.mul_calls": len(t.of("series.mul")) if "series.mul" in t.installed else None,
        "series.mul_pairs_total": pairs,
        "series.mul_pairs_in_bound": in_bound,
        "series.mul_pair_yield": _ratio(in_bound, pairs),
        "series.mul_ns_per_in_bound_pair": _ratio(mul_s, in_bound, 1e9),
        "hypercatalan.hyper_catalan_s": t.seconds("hypercatalan.hyper_catalan"),
        "hypercatalan.hyper_catalan_calls": t.calls("hypercatalan.hyper_catalan"),
        "hypercatalan.series_s": t.inclusive_s("hypercatalan.hyper_catalan_series"),
        "hypercatalan.verify_functional_equation_self_s": t.self_s("hypercatalan.verify_functional_equation"),
        "factorization.geode_series_self_s": t.self_s("factorization.geode_series"),
        "factorization.recurrence_terms": t.attr_sum("factorization.geode_series", "terms"),
        "factorization.verify_factorization_self_s": t.self_s("factorization.verify_factorization"),
        "factorization.verify_marked_trees_self_s": t.self_s("factorization.verify_marked_trees"),
        "factorization.verify_marked_subdigons_self_s": t.self_s("factorization.verify_marked_subdigons"),
        "trees.count_marked_trees_s": counted,
        "trees.trees_counted": trees_counted,
        "trees.ns_per_tree": _ratio(counted, trees_counted, 1e9),
        "trees.enumerate_trees_s": t.inclusive_s("trees.enumerate_trees"),
        "trees.enumerate_marked_trees_s": t.inclusive_s("trees.enumerate_marked_trees"),
        "trees.marked_trees_listed": t.attr_sum("trees.enumerate_marked_trees", "items"),
        "trees.serialize_s": t.seconds("trees.serialize"),
        "subdigons.verify_bijections_self_s": t.self_s("subdigons.verify_bijections"),
        "subdigons.count_marked_subdigons_s": t.inclusive_s("subdigons.count_marked_subdigons"),
        "subdigons.subdigons_counted": subs_counted,
        "subdigons.enumerate_cold_s": by_temperature(True),
        "subdigons.enumerate_warm_s": by_temperature(False),
        "subdigons.cache_hits": hits,
        "subdigons.cache_misses": misses,
        "subdigons.cache_hit_ratio": _ratio(hits, None if hits is None else hits + misses),
        "reports.render_s": t.seconds("reports.render"),
        "cli.self_s": t.self_s("cli.main"),
        "cli.rows_out": sum(out.count("\n") for out in outs),
        "cli.bytes_out": sum(len(out.encode()) for out in outs),
        "trace.overhead_s": traced_s - untraced_s,
    }


def traced_run(argvs, seconds: float, src: Path):
    """Alternate untraced and traced in-process passes for ``seconds``.

    Returns (median metrics, ledger, spans of the last traced pass).  The
    outputs of both kinds of pass go through the same checks as the
    end-to-end run.
    """
    sys.path.insert(0, str(src))
    cli = importlib.import_module("geode.cli")
    geode = importlib.import_module("geode")
    ledger = check.Ledger(argvs)
    if Path(geode.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"imported geode from {geode.__file__}, not from {src}")
    start = perf_counter()
    _run_pass(cli, argvs, None)  # warm-up: the first pass in a process runs slow
    samples: list[dict] = []
    tracer = Tracer()
    while not samples or perf_counter() - start < seconds:
        untraced_s, plain_outs, plain_codes = _run_pass(cli, argvs, None)
        tracer = Tracer()
        undo = install(tracer)
        try:
            traced_s, outs, codes = _run_pass(cli, argvs, tracer)
        finally:
            uninstall(undo)
        ledger.record(outs, codes)
        ledger.record(plain_outs, plain_codes)
        samples.append(layer_metrics(tracer, outs, traced_s, untraced_s))
    metrics = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        metrics[name] = -1 if None in values else median(values)
    spans = [
        {"name": s.name, "parent": s.parent, "start_s": s.start - start, "end_s": s.end - start}
        for s in tracer.spans
    ]
    return metrics, ledger, spans
