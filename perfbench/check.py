"""Output checker for the benchmark, sharing no code with the geode package.

Every expectation is derived here from first principles: partition counts,
Catalan numbers by their own recurrence, the hyper-Catalan closed form, and a
bracket scanner for tree text.  ``check_pass`` takes the argv lists of one
pass and their captured stdout, and returns the items each invocation
produced together with the problems found in it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from functools import lru_cache
from math import factorial


# ---------------------------------------------------------------- arithmetic


@lru_cache(maxsize=None)
def partition_counts(bound: int) -> tuple[int, ...]:
    """p(0), ..., p(bound): the number of types in each grade."""
    p = [1] + [0] * bound
    for part in range(1, bound + 1):
        for total in range(part, bound + 1):
            p[total] += p[total - part]
    return tuple(p)


@lru_cache(maxsize=None)
def catalan_numbers(bound: int) -> tuple[int, ...]:
    """C_0, ..., C_bound from C_{k+1} = C_k * 2(2k + 1) / (k + 2)."""
    out = [1]
    for k in range(bound):
        out.append(out[-1] * 2 * (2 * k + 1) // (k + 2))
    return tuple(out)


def s_grade_sum(w: int) -> int:
    """Setting every t_n = x^n turns S into the Catalan series."""
    return catalan_numbers(w)[w]


def g_grade_sum(w: int) -> int:
    """From S = 1 + x/(1 - x) G: G_0 = 1 and G_w = C_{w+1} - C_w."""
    if w == 0:
        return 1
    c = catalan_numbers(w + 1)
    return c[w + 1] - c[w]


def partitions(weight: int) -> list[tuple[int, ...]]:
    """Multiplicity vectors (no trailing zeros) of the partitions of weight."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, counts: list[int]) -> None:
        if remaining == 0:
            vector = list(counts)
            while vector and vector[-1] == 0:
                vector.pop()
            out.append(tuple(vector))
            return
        for part in range(min(remaining, largest), 0, -1):
            counts[part - 1] += 1
            rec(remaining - part, part, counts)
            counts[part - 1] -= 1

    rec(weight, weight, [0] * weight)
    return out


def edge_weight(m: tuple[int, ...]) -> int:
    return sum((i + 1) * e for i, e in enumerate(m))


def tree_count(m: tuple[int, ...]) -> int:
    """Ordered trees of type m: w! / (leaves! * prod m_n!)."""
    leaves = 1 + sum(i * e for i, e in enumerate(m))
    denominator = factorial(leaves)
    for e in m:
        denominator *= factorial(e)
    return factorial(edge_weight(m)) // denominator


@lru_cache(maxsize=None)
def marked_tree_count(m: tuple[int, ...]) -> int:
    """Marked trees of type m, from S = 1 + (t_1 + t_2 + ...) G.

    Comparing coefficients of t^(m + e_1) gives
    C(m + e_1) = sum over n with (m + e_1)_n >= 1 of G(m + e_1 - e_n),
    whose n = 1 term is G(m) and whose other terms have smaller weight.
    """
    lifted = list(m) or [0]
    lifted[0] += 1
    value = tree_count(tuple(lifted))
    for n in range(2, len(lifted) + 1):
        if lifted[n - 1]:
            smaller = list(lifted)
            smaller[n - 1] -= 1
            while smaller and smaller[-1] == 0:
                smaller.pop()
            value -= marked_tree_count(tuple(smaller))
    return value


def recurrence_terms(bound: int) -> int:
    """Subtractions the Geode recurrence makes up to a bound: one per part n >= 2."""
    return sum(
        sum(1 for e in m[1:] if e)
        for w in range(bound + 1)
        for m in partitions(w)
    )


# ---------------------------------------------------------------- text forms


def parse_monomial(text: str) -> tuple[int, ...]:
    if text == "":
        return ()
    entries = tuple(int(part) for part in text.split(","))
    if any(e < 0 for e in entries) or entries[-1] == 0:
        raise ValueError(f"non-canonical monomial {text!r}")
    return entries


def monomial_key(m: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded order: by edge weight, then descending lexicographic entries."""
    return (edge_weight(m), tuple(-e for e in m))


def scan_tree(text: str) -> tuple[tuple[int, ...], int]:
    """(type, initial leaves) of one bracket tree; '*' is a leaf.

    Closing brackets arrive in post-order, so the initial leaves are the
    leaves closed before the first internal node closes.
    """
    stack: list[int] = []
    degrees: dict[int, int] = {}
    initial = 0
    internal_seen = False
    for i, ch in enumerate(text):
        if stack == [] and i:
            raise ValueError(f"text after the root closes in {text!r}")
        if ch == "(":
            if stack:
                stack[-1] += 1
            stack.append(0)
        elif ch == ")":
            if not stack:
                raise ValueError(f"unbalanced ')' in {text!r}")
            degree = stack.pop()
            if degree:
                degrees[degree] = degrees.get(degree, 0) + 1
                internal_seen = True
            else:
                initial += not internal_seen
        elif ch == "*":
            if not stack:
                raise ValueError(f"'*' outside the root in {text!r}")
            stack[-1] += 1
            initial += not internal_seen
        else:
            raise ValueError(f"unexpected {ch!r} in {text!r}")
    if stack or not text:
        raise ValueError(f"unbalanced tree {text!r}")
    top = max(degrees, default=0)
    return tuple(degrees.get(n, 0) for n in range(1, top + 1)), initial


# ---------------------------------------------------------------- argv


def parse_argv(argv: list[str]) -> dict:
    """The few CLI flags the workloads use, with the CLI's defaults."""
    opts = {
        "command": argv[0],
        "max_weight": 8,
        "format": "text" if argv[0] == "verify" else "csv",
        "with_counts": False,
        "marked": False,
        "checks": "all",
        "type": None,
    }
    it = iter(argv[1:])
    for flag in it:
        if flag in ("--with-counts", "--marked"):
            opts[flag[2:].replace("-", "_")] = True
        elif flag in ("--max-weight", "--max-enum-weight"):
            value = int(next(it))
            if flag == "--max-weight":
                opts["max_weight"] = value
        elif flag in ("--format", "--checks", "--type"):
            opts[flag[2:]] = next(it)
        else:
            raise ValueError(f"flag {flag!r} is not one the checker knows")
    return opts


# ---------------------------------------------------------------- checks


class CheckError(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_pass(
    argvs: list[list[str]], outputs: list[str]
) -> list[tuple[int, str | None]]:
    """(items, problem or None) per invocation of one pass."""
    results: list[tuple[int, str | None]] = []
    for argv, out in zip(argvs, outputs):
        try:
            opts = parse_argv(argv)
            if opts["command"] in ("s-table", "g-table"):
                items = _check_table(opts, out)
            elif opts["command"] == "verify":
                items = _check_verify(opts, out)
            elif opts["command"] == "trees":
                items = _check_trees(opts, out)
            else:
                raise CheckError(f"no check for command {opts['command']!r}")
            results.append((items, None))
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            results.append((0, f"{' '.join(argv)}: {exc}"))
    return results


def _check_table(opts: dict, out: str) -> int:
    """Each row's coefficient is C(m) for S and G(m) for G; the grade sums
    check the same table against the Catalan numbers."""
    series = "S" if opts["command"] == "s-table" else "G"
    bound = opts["max_weight"]
    columns = ["monomial", "coefficient"]
    if opts["with_counts"]:
        columns += ["marked_trees", "marked_subdigons"]
    if opts["format"] == "json":
        rows = json.loads(out)
        _expect(isinstance(rows, list), "JSON table is not a list")
        for row in rows:
            _expect(
                isinstance(row, dict) and list(row) == columns,
                f"JSON row {row!r} does not have keys {columns}",
            )
            _expect(isinstance(row["monomial"], str), f"monomial in {row!r} is not text")
            for col in columns[1:]:
                _expect(
                    type(row[col]) is int, f"{col} in {row!r} is not an integer"
                )
        records = [[row[c] for c in columns] for row in rows]
    else:
        reader = csv.reader(io.StringIO(out, newline=""))
        header = next(reader, None)
        _expect(header == columns, f"CSV header {header!r}, expected {columns}")
        records = []
        for record in reader:
            _expect(len(record) == len(columns), f"CSV row {record!r} has wrong width")
            records.append([record[0]] + [int(v) for v in record[1:]])

    p = partition_counts(bound)
    _expect(
        len(records) == sum(p),
        f"{len(records)} rows, expected sum of p(w) for w <= {bound} = {sum(p)}",
    )
    grade_rows = [0] * (bound + 1)
    grade_sums = [0] * (bound + 1)
    previous = None
    for record in records:
        m = parse_monomial(record[0])
        key = monomial_key(m)
        _expect(previous is None or previous < key, f"row [{record[0]}] out of graded order or repeated")
        previous = key
        w = key[0]
        _expect(w <= bound, f"row [{record[0]}] has weight {w} above {bound}")
        want = tree_count(m) if series == "S" else marked_tree_count(m)
        _expect(record[1] == want, f"row [{record[0]}] has coefficient {record[1]}, expected {want}")
        if opts["with_counts"]:
            _expect(
                record[1] == record[2] == record[3],
                f"row [{record[0]}] counts {record[1:]} disagree",
            )
        grade_rows[w] += 1
        grade_sums[w] += record[1]
    for w in range(bound + 1):
        _expect(grade_rows[w] == p[w], f"grade {w} has {grade_rows[w]} rows, expected p({w}) = {p[w]}")
        want = s_grade_sum(w) if series == "S" else g_grade_sum(w)
        _expect(
            grade_sums[w] == want,
            f"{series} grade {w} sums to {grade_sums[w]}, expected {want}",
        )
    return len(records)


_VERIFY_CHECKS = (
    "functional-eq",
    "factorization",
    "marked-trees",
    "marked-subdigons",
    "bijections",
)


def expected_reports(checks: list[str], bound: int) -> list[dict]:
    """The reports a correct verify run produces, as (name, groups) dicts."""
    p = partition_counts(bound)
    types = sum(p)
    with_t1 = sum(p[w - 1] for w in range(1, bound + 1))
    trees = sum(catalan_numbers(bound))
    reports = {
        "functional-eq": ("functional-equation", [("monomials", types)]),
        "factorization": (
            "factorization",
            [
                ("constant term", 1),
                ("defining equations (t_1 present)", with_t1),
                ("consistency equations (t_1 absent)", types - 1 - with_t1),
            ],
        ),
        "marked-trees": (
            "marked-trees",
            [("coefficients vs marked-tree counts", types)],
        ),
        "marked-subdigons": (
            "marked-subdigons",
            [("coefficients vs marked-subdigon counts", types)],
        ),
        # Summed over all types of the grade, C(m) adds up to the Catalan
        # number, and each deletion check covers every object but the
        # single-node one on both the tree and the subdigon side.
        "bijections": (
            "bijections",
            [
                ("structure maps invert each other and preserve type", 2 * trees),
                ("direct enumeration counts match the closed form", 2 * trees),
                ("deletion/attachment round trips", 2 * (trees - 1)),
                ("deletion bijects onto marked structures", 2 * (trees - 1)),
                ("deletion commutes with the structure map", trees - 1),
            ],
        ),
    }
    out = []
    for check in checks:
        name, groups = reports[check]
        out.append(
            {
                "name": name,
                "bound": bound,
                "passed": True,
                "checked": sum(n for _, n in groups),
                "groups": [
                    {"label": label, "checked": n, "mismatches": []}
                    for label, n in groups
                ],
            }
        )
    return out


def _check_verify(opts: dict, out: str) -> int:
    bound = opts["max_weight"]
    checks = (
        list(_VERIFY_CHECKS)
        if opts["checks"] == "all"
        else [c.strip() for c in opts["checks"].split(",") if c.strip()]
    )
    reports = expected_reports(checks, bound)
    if opts["format"] == "json":
        want = {"bound": bound, "passed": True, "checks": reports}
        _expect(json.loads(out) == want, "JSON report differs from a passing one with the expected counts")
    else:
        lines = []
        for r in reports:
            lines.append(f"{r['name']} (weight <= {bound}): PASS")
            lines += [f"  {g['label']}: {g['checked']} checked" for g in r["groups"]]
        got_lines = out.splitlines()
        for i, (g, w) in enumerate(zip(got_lines, lines)):
            _expect(g == w, f"report line {i + 1} reads {g!r}, expected {w!r}")
        _expect(
            len(got_lines) == len(lines),
            f"report has {len(got_lines)} lines, expected {len(lines)}",
        )
    return sum(r["checked"] for r in reports)


def _check_trees(opts: dict, out: str) -> int:
    """Plain listings hold every tree of type m once: C(m) lines.

    Marked listings hold every (tree of type m, initial leaf) pair once:
    G(m) lines, from the benchmark's own recurrence.  The plain listing's
    initial leaves must sum to the same G(m).
    """
    m = parse_monomial(opts["type"])
    lines = out.splitlines()
    _expect(out.endswith("\n") or not out, "listing does not end with a newline")
    _expect(len(set(lines)) == len(lines), "listing repeats a line")
    want = marked_tree_count(m) if opts["marked"] else tree_count(m)
    _expect(len(lines) == want, f"{len(lines)} lines listed, expected {want}")
    initial_total = 0
    for line in lines:
        star = line.find("*")
        if opts["marked"]:
            _expect(star >= 0 and line.count("*") == 1, f"{line!r} lacks exactly one '*'")
            got, initial = scan_tree(line.replace("*", "()"))
            leaf = line.count("()", 0, star)
            _expect(leaf < initial, f"{line!r} marks leaf {leaf}, not an initial leaf")
        else:
            _expect(star < 0, f"{line!r} is marked in a plain listing")
            got, initial = scan_tree(line)
            initial_total += initial
        _expect(got == m, f"{line!r} has type {got}, expected {m}")
    if not opts["marked"]:
        _expect(
            initial_total == marked_tree_count(m),
            f"listed trees have {initial_total} initial leaves, expected G(m) = "
            f"{marked_tree_count(m)}",
        )
    return len(lines)


class Ledger:
    """Checks every pass of a run: the first in full, the rest by digest.

    An invocation fails if it exits non-zero, if its output differs from the
    first pass, or if the first pass's output for it failed the full check.
    """

    def __init__(self, argvs: list[list[str]]):
        self.argvs = argvs
        self.digests: list[str] | None = None
        self.items: list[int] = []
        self.bad: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outputs: list[str], codes: list) -> None:
        if self.digests is None:
            self.digests = [_digest(out) for out in outputs]
            results = check_pass(self.argvs, outputs)
            self.items = [items for items, _ in results]
            for i, (_, problem) in enumerate(results):
                if problem:
                    self.bad.add(i)
                    self.problems.append(problem)
        for i, (argv, out, code) in enumerate(zip(self.argvs, outputs, codes)):
            self.attempted += 1
            problem = None
            if code != 0:
                problem = f"{' '.join(argv)}: exit status {code}"
            elif _digest(out) != self.digests[i]:
                problem = f"{' '.join(argv)}: output differs from the first pass"
            if problem:
                self.problems.append(problem)
            if problem or i in self.bad:
                self.failed += 1


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
