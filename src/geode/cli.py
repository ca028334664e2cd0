"""Command-line interface: coefficient tables, verifications, enumerations.

Exit status: 0 if everything passed, 1 on a verification mismatch, 2 on a
usage error, 3 on an internal error.  Table output is deterministic
byte-for-byte for fixed flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Iterable, Sequence

from .factorization import (
    geode_series,
    verify_factorization,
    verify_grade_sums,
    verify_marked_subdigons,
    verify_marked_trees,
)
from .hypercatalan import _hyper_catalan_entries, verify_functional_equation
from .reports import VerificationReport
from .series import TypeVector, _graded_entries, enumerate_types
from .subdigons import count_marked_subdigons, verify_bijections
from .trees import count_marked_trees, enumerate_marked_trees, enumerate_trees

DEFAULT_MAX_WEIGHT = 8
DEFAULT_MAX_ENUM_WEIGHT = 10

VERIFY_CHECKS = (
    "functional-eq",
    "factorization",
    "marked-trees",
    "marked-subdigons",
    "bijections",
)  # what 'all' runs
KNOWN_CHECKS = (*VERIFY_CHECKS, "grade-sums")  # grade-sums runs only when named
ENUMERATION_CHECKS = {"marked-trees", "marked-subdigons", "bijections"}


class _UsageError(Exception):
    pass


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _require_nonnegative(args.max_enum_weight, "--max-enum-weight")
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # keep the traceback, but never let a crash exit 1 like a mismatch
        import traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geode",
        description="Exact hyper-Catalan and Geode coefficient tables, "
        "enumerations, and identity verifications.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("s-table", help="hyper-Catalan coefficient table")
    _add_common_flags(p)
    p.add_argument(
        "--no-bigons",
        action="store_true",
        help="restrict to monomials without t_1 (no bigon faces / unary nodes)",
    )
    p.set_defaults(handler=_cmd_s_table)

    p = sub.add_parser("g-table", help="Geode coefficient table")
    _add_common_flags(p)
    p.add_argument(
        "--with-counts",
        action="store_true",
        help="add independently computed marked-tree and marked-subdigon "
        "columns (exhaustive; gated by --max-enum-weight)",
    )
    p.set_defaults(handler=_cmd_g_table)

    p = sub.add_parser("trees", help="list the ordered trees of one type")
    p.add_argument(
        "--type",
        dest="type_text",
        required=True,
        metavar="VECTOR",
        help='comma-separated type vector, e.g. "0,2"; empty string for the '
        "single-node tree",
    )
    p.add_argument(
        "--marked",
        action="store_true",
        help="list marked trees instead, rendering the marked leaf as *",
    )
    p.add_argument(
        "--max-enum-weight",
        type=int,
        default=DEFAULT_MAX_ENUM_WEIGHT,
        metavar="N",
        help="refuse enumeration above this edge weight (default %(default)s)",
    )
    p.set_defaults(handler=_cmd_trees)

    p = sub.add_parser("verify", help="machine-verify the series identities")
    p.add_argument(
        "--max-weight",
        type=int,
        default=DEFAULT_MAX_WEIGHT,
        metavar="N",
        help="verify monomials up to this edge weight (default %(default)s)",
    )
    p.add_argument(
        "--checks",
        default="all",
        metavar="LIST",
        help="comma-separated subset of {%s}, or 'all' (default) "
        "for every check but grade-sums" % ",".join(KNOWN_CHECKS),
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default %(default)s)",
    )
    p.add_argument(
        "--max-enum-weight",
        type=int,
        default=DEFAULT_MAX_ENUM_WEIGHT,
        metavar="N",
        help="refuse enumeration-backed checks above this edge weight "
        "(default %(default)s)",
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-weight",
        type=int,
        default=DEFAULT_MAX_WEIGHT,
        metavar="N",
        help="include monomials up to this edge weight (default %(default)s)",
    )
    p.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default %(default)s)",
    )
    p.add_argument(
        "--max-enum-weight",
        type=int,
        default=DEFAULT_MAX_ENUM_WEIGHT,
        metavar="N",
        help="refuse exhaustive enumeration above this edge weight "
        "(default %(default)s)",
    )


def _cmd_s_table(args: argparse.Namespace) -> int:
    _require_nonnegative(args.max_weight, "--max-weight")
    entries = _graded_entries(args.max_weight)
    if args.no_bigons:
        entries = [e for e in entries if not e or not e[0]]
    # no entry exceeds the bound, so each entry's text is made once
    text_of = [str(i) for i in range(args.max_weight + 1)].__getitem__
    rows = ((",".join(map(text_of, e)), _hyper_catalan_entries(e)) for e in entries)
    _emit_table(rows, ["monomial", "coefficient"], args.format)
    return 0


def _cmd_g_table(args: argparse.Namespace) -> int:
    _require_nonnegative(args.max_weight, "--max-weight")
    if args.with_counts and args.max_weight > args.max_enum_weight:
        raise _UsageError(
            f"--with-counts enumerates every tree and subdigon, refusing above "
            f"edge weight {args.max_enum_weight}; raise --max-enum-weight to force"
        )
    g = geode_series(args.max_weight)
    types = enumerate_types(args.max_weight)
    rows = [(m.text, g.coefficient(m)) for m in types]
    columns = ["monomial", "coefficient"]
    if not args.with_counts:
        _emit_table(rows, columns, args.format)
        return 0
    columns += ["marked_trees", "marked_subdigons"]
    counted, bad = [], []
    for (text, value), m in zip(rows, types):
        mt, ms = count_marked_trees(m), count_marked_subdigons(m)
        counted.append((text, value, mt, ms))
        if not value == mt == ms:
            bad.append(text)
    _emit_table(counted, columns, args.format)
    if bad:
        print(
            "count mismatch at monomials: " + ", ".join(f"[{b}]" for b in bad),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trees(args: argparse.Namespace) -> int:
    try:
        m = TypeVector.parse(args.type_text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if m.edge_weight > args.max_enum_weight:
        raise _UsageError(
            f"type [{m.text}] has edge weight {m.edge_weight}, refusing above "
            f"{args.max_enum_weight}; raise --max-enum-weight to force"
        )
    if args.marked:
        for marked in enumerate_marked_trees(m):
            print(marked.serialize())
    else:
        for tree in enumerate_trees(m):
            print(tree.serialize())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _require_nonnegative(args.max_weight, "--max-weight")
    if args.checks.strip() == "all":
        selected = list(VERIFY_CHECKS)
    else:
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not selected:
            raise _UsageError("no checks selected")
        unknown = [c for c in selected if c not in KNOWN_CHECKS]
        if unknown:
            raise _UsageError(
                f"unknown checks {unknown}; valid: {', '.join(KNOWN_CHECKS)}, "
                "or 'all' for every check but grade-sums"
            )
    needs_enum = [c for c in selected if c in ENUMERATION_CHECKS]
    if needs_enum and args.max_weight > args.max_enum_weight:
        raise _UsageError(
            f"{', '.join(needs_enum)} enumerate exhaustively, refusing above "
            f"edge weight {args.max_enum_weight}; raise --max-enum-weight to force"
        )

    runners: dict[str, Callable[[int], VerificationReport]] = {
        "functional-eq": verify_functional_equation,
        "factorization": verify_factorization,
        "marked-trees": verify_marked_trees,
        "marked-subdigons": verify_marked_subdigons,
        "bijections": verify_bijections,
        "grade-sums": verify_grade_sums,
    }
    reports = [runners[name](args.max_weight) for name in selected]
    if args.format == "json":
        import json
        payload = {
            "bound": args.max_weight,
            "passed": all(r.passed for r in reports),
            "checks": [r.to_dict() for r in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            for line in report.lines():
                print(line)
    return 0 if all(r.passed for r in reports) else 1


def _require_nonnegative(value: int, flag: str) -> None:
    if value < 0:
        raise _UsageError(f"{flag} must be nonnegative, got {value}")


def _emit_table(rows: Iterable[tuple], columns: list[str], fmt: str) -> None:
    if fmt == "json":
        import json
        print(json.dumps([dict(zip(columns, row)) for row in rows], indent=2))
        return
    import csv
    import io
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


if __name__ == "__main__":
    sys.exit(main())
