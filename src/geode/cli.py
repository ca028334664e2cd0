"""Command-line interface: coefficient tables, verifications, enumerations.

Exit status: 0 if everything passed, 1 on a verification mismatch, 2 on a
usage error, 3 on an internal error, 141 when stdout's reader has gone
(128 + SIGPIPE, as a shell reports a command killed by a closed pipe).
A closed stderr costs its message, never the status.
Table output is deterministic byte-for-byte for fixed flags, and each
command writes its stdout in one piece.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from importlib import import_module
from typing import Iterable, Sequence, TextIO

DEFAULT_MAX_WEIGHT = 8
DEFAULT_MAX_ENUM_WEIGHT = 10


# Each check: name -> (module, runner, enumerates exhaustively, run by 'all').  The runner is
# looked up on its module when the check runs, so the parser loads no check module and a
# runner patched onto its module is the one that runs.
_CHECKS = {
    "functional-eq": ("hypercatalan", "verify_functional_equation", False, True),
    "factorization": ("factorization", "verify_factorization", False, True),
    "marked-trees": ("factorization", "verify_marked_trees", True, True),
    "marked-subdigons": ("factorization", "verify_marked_subdigons", True, True),
    "bijections": ("subdigons", "verify_bijections", True, True),
    "grade-sums": ("factorization", "verify_grade_sums", False, False),
}


def _all_text() -> str:
    """What 'all' covers, for the help and the unknown-check message."""
    outside = [name for name, (*_, in_all) in _CHECKS.items() if not in_all]
    return "for every check but " + ", ".join(outside)


class _UsageError(Exception):
    pass


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for dest in ("max_enum_weight", "max_weight"):  # each bound the command has
            value = getattr(args, dest, 0)
            if value < 0:
                raise _UsageError(f"--{dest.replace('_', '-')} must be nonnegative, got {value}")
        code = args.handler(args)
        sys.stdout.flush()  # a buffered stdout meets a closed pipe here, not at exit
        return code
    except _UsageError as exc:
        _warn(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        return 141
    except Exception as exc:
        # keep the traceback, but never let a crash exit 1 like a mismatch
        import traceback
        _warn(traceback.format_exc() + f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


def _warn(text: str) -> None:
    # every stderr write goes through here: a reader that has gone loses the text only
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _to_devnull(stream: TextIO) -> None:
    # the reader has gone; point the descriptor at /dev/null so the flush at exit cannot fail
    with contextlib.suppress(OSError, ValueError):  # an in-memory stream has no fd
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        # argparse drops a failed write and exits 0 or 2 regardless: here --help's
        # closed stdout reaches main, and usage errors go through _warn
        if file is sys.stdout:
            file.write(message)
            file.flush()
        else:
            _warn(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    _add_bound(
        p, "--max-enum-weight", DEFAULT_MAX_ENUM_WEIGHT, "refuse exhaustive enumeration above"
    )
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
    _add_bound(p, "--max-enum-weight", DEFAULT_MAX_ENUM_WEIGHT, "refuse enumeration above")
    p.set_defaults(handler=_cmd_trees)

    p = sub.add_parser("verify", help="machine-verify the series identities")
    _add_bound(p, "--max-weight", DEFAULT_MAX_WEIGHT, "verify monomials up to")
    p.add_argument(
        "--checks",
        default="all",
        metavar="LIST",
        help=f"comma-separated subset of {{{','.join(_CHECKS)}}}, or 'all' (default) "
        + _all_text(),
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default %(default)s)",
    )
    _add_bound(
        p, "--max-enum-weight", DEFAULT_MAX_ENUM_WEIGHT, "refuse enumeration-backed checks above"
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    _add_bound(p, "--max-weight", DEFAULT_MAX_WEIGHT, "include monomials up to")
    p.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default %(default)s)",
    )


def _add_bound(p: argparse.ArgumentParser, flag: str, default: int, what: str) -> None:
    p.add_argument(
        flag, type=int, default=default, metavar="N",
        help=what + " this edge weight (default %(default)s)",
    )


def _cmd_s_table(args: argparse.Namespace) -> int:
    from .hypercatalan import _hyper_catalan_graded
    from .series import _graded_layout

    pairs = zip(_graded_layout(args.max_weight)[0], _hyper_catalan_graded(args.max_weight))
    if args.no_bigons:
        pairs = ((e, c) for e, c in pairs if not e or not e[0])
    _emit_table(_rows(pairs, args.max_weight), ["monomial", "coefficient"], args.format)
    return 0


def _cmd_g_table(args: argparse.Namespace) -> int:
    from .factorization import _counted, _geode_coefficients

    columns = ["monomial", "coefficient"]
    if not args.with_counts:
        g = _geode_coefficients(args.max_weight)
        _emit_table(_rows(g.items(), args.max_weight), columns, args.format)
        return 0
    _refuse_enumeration(args, args.max_weight, "--with-counts enumerates every tree and subdigon")
    # past the gate, so only --with-counts loads trees and subdigons
    from .subdigons import count_marked_subdigons
    from .trees import count_marked_trees

    counted = _counted(args.max_weight, (count_marked_trees, count_marked_subdigons))
    rows = [(m.text, *values) for m, *values in counted]
    _emit_table(rows, columns + ["marked_trees", "marked_subdigons"], args.format)
    bad = [f"[{text}]" for text, g, mt, ms in rows if not g == mt == ms]
    if bad:
        _warn("count mismatch at monomials: " + ", ".join(bad) + "\n")
        return 1
    return 0


def _rows(pairs: Iterable[tuple[tuple[int, ...], int]], bound: int) -> Iterable[tuple]:
    """(monomial text, value) table rows from (entries, value) pairs of weight <= bound."""
    # no entry exceeds the bound, so each entry's text is made once
    text_of = [str(i) for i in range(bound + 1)].__getitem__
    return ((",".join(map(text_of, e)), value) for e, value in pairs)


def _cmd_trees(args: argparse.Namespace) -> int:
    from .series import TypeVector
    from .trees import _mark_text, count_initial_leaves, enumerate_trees

    try:
        m = TypeVector.parse(args.type_text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _refuse_enumeration(args, m.edge_weight, f"type [{m.text}] has edge weight {m.edge_weight}")
    lines = []
    for tree in enumerate_trees(m):
        text = tree.serialize()
        if args.marked:
            # each markable leaf in turn, all from the tree's one text
            lines += [_mark_text(text, mark) for mark in range(count_initial_leaves(tree))]
        else:
            lines.append(text)
    _write_lines(lines)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    every = [name for name, (*_, in_all) in _CHECKS.items() if in_all]
    named = (c.strip() for c in args.checks.split(","))
    # each 'all' stands for its checks; each check runs once, in the order it is first named
    selected = list(dict.fromkeys(n for c in named if c for n in (every if c == "all" else [c])))
    if not selected:
        raise _UsageError("no checks selected")
    unknown = [c for c in selected if c not in _CHECKS]
    if unknown:
        raise _UsageError(
            f"unknown checks {unknown}; valid: {', '.join(_CHECKS)}, or 'all' " + _all_text()
        )
    needs_enum = [c for c in selected if _CHECKS[c][2]]
    if needs_enum:
        what = f"{', '.join(needs_enum)} enumerate exhaustively"
        _refuse_enumeration(args, args.max_weight, what)
    reports = []
    for module, runner, *_ in map(_CHECKS.get, selected):
        reports.append(getattr(import_module(f".{module}", __package__), runner)(args.max_weight))
    if args.format == "json":
        import json
        payload = {
            "bound": args.max_weight,
            "passed": all(r.passed for r in reports),
            "checks": [r.to_dict() for r in reports],
        }
        _write_lines([json.dumps(payload, indent=2)])
    else:
        _write_lines([line for report in reports for line in report.lines()])
    return 0 if all(r.passed for r in reports) else 1


def _refuse_enumeration(args: argparse.Namespace, weight: int, what: str) -> None:
    """The one --max-enum-weight gate: no exhaustive enumeration above the limit."""
    limit = args.max_enum_weight
    if weight > limit:
        raise _UsageError(
            f"{what}, refusing above edge weight {limit}; raise --max-enum-weight to force"
        )


def _emit_table(rows: Iterable[tuple], columns: list[str], fmt: str) -> None:
    # the bytes of csv.writer(lineterminator="\n") or json.dumps(indent=2): the monomial is
    # the one text cell, digits and commas, quoted in CSV when it has a comma, never escaped
    if fmt == "json":
        cells = [f'    "{columns[0]}": "{{}}"'] + [f'    "{c}": {{}}' for c in columns[1:]]
        record = ("  {{\n" + ",\n".join(cells) + "\n  }}").format
        body = ",\n".join([record(*row) for row in rows])
        sys.stdout.write(f"[\n{body}\n]\n" if body else "[]\n")
        return
    cells = ",{}" * (len(columns) - 1) + "\n"
    quoted, plain = ('"{}"' + cells).format, ("{}" + cells).format
    lines = [(quoted if "," in row[0] else plain)(*row) for row in rows]
    sys.stdout.write(",".join(columns) + "\n" + "".join(lines))


def _write_lines(lines: list[str]) -> None:
    # one write, where a print per line costs system calls per line on an unbuffered stdout
    sys.stdout.write("".join([line + "\n" for line in lines]))


if __name__ == "__main__":
    sys.exit(main())
