"""Command-line interface: coefficient tables, verifications, enumerations.

Exit status: 0 if everything passed, 1 on a verification mismatch, 2 on a
usage error, 3 on an internal error, 141 when stdout's reader has gone
(128 + SIGPIPE, as a shell reports a command killed by a closed pipe).
A closed stderr costs its message, never the status.  ``geode`` and ``python -m geode.cli``
end once main has flushed stdout, with no interpreter teardown, so exit handlers registered
by others (a site hook, a coverage tool) do not run; main() called in-process is unchanged.
Table output is deterministic byte-for-byte for fixed flags, and each
command writes its stdout in one piece.

Each command and its flags are declared once, in _COMMANDS.  _read takes a well-formed command
line from that table without argparse; help, abbreviations, '=' forms, '--' and usage errors
go through argparse, built from the same table by _build_parser.
"""

from __future__ import annotations

import contextlib
import os
import sys
from importlib import import_module
from itertools import starmap
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, NoReturn, Sequence, TextIO

if TYPE_CHECKING:
    import argparse

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
        args = _read(sys.argv[1:] if argv is None else argv)
        if args is None:  # help, abbreviations, '=' forms and usage errors: argparse's own words
            args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
        for dest in ("max_enum_weight", "max_weight"):  # each bound the command has
            value = getattr(args, dest, 0)
            if value < 0:
                raise _UsageError(f"--{dest.replace('_', '-')} must be nonnegative, got {value}")
        code = args.handler(args)
    except _UsageError as exc:
        _warn(f"error: {exc}\n")
        code = 2
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        code = 141
    except Exception as exc:
        # keep the traceback, but never let a crash exit 1 like a mismatch
        import traceback
        _warn(traceback.format_exc() + f"internal error: {type(exc).__name__}: {exc}\n")
        code = 3
    try:
        sys.stdout.flush()  # every path: a buffered stdout meets a closed pipe here, not at exit
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        code = code if code in (2, 3) else 141  # an error keeps its status; a lost result is 141
    return code


def run() -> NoReturn:
    """`geode` and `python -m geode.cli`: end the process once main has flushed stdout."""
    os._exit(main())  # argparse's SystemExit (help, usage errors) still exits the usual way


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


def _cmd_s_table(args: SimpleNamespace) -> int:
    from .hypercatalan import _hyper_catalan_tails
    from .series import _blocks

    blocks = _blocks(_hyper_catalan_tails(args.max_weight, bigons=not args.no_bigons))
    if args.no_bigons:  # the blocks with m_1 = w - r = 0, each tail's one value
        blocks = (block for block in blocks if block[0] == block[1])
    _emit_table(args.max_weight, blocks, ["monomial", "coefficient"], args.format)
    return 0


def _cmd_g_table(args: SimpleNamespace) -> int:
    from .factorization import _count_table, _solve
    from .series import _blocks, _rows

    bound, columns = args.max_weight, ["monomial", "coefficient"]
    if not args.with_counts:
        _emit_table(bound, _blocks(_solve(bound)), columns, args.format)
        return 0
    _refuse_enumeration(args, bound, "--with-counts enumerates every tree and subdigon")
    # past the gate, so only --with-counts loads trees and subdigons
    from .subdigons import count_marked_subdigons
    from .trees import count_marked_trees

    counts = count_marked_trees, count_marked_subdigons
    tables = [_solve(bound), *(_count_table(bound, count) for count in counts)]
    columns += ["marked_trees", "marked_subdigons"]
    _emit_table(bound, _blocks(*tables), columns, args.format)
    bad = [f"[{','.join(map(str, k))}]" for k, g, mt, ms in _rows(*tables) if not g == mt == ms]
    if bad:
        _warn("count mismatch at monomials: " + ", ".join(bad) + "\n")
        return 1
    return 0


def _cmd_trees(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
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
        from .reports import json_report
        _write_lines([json_report(args.max_weight, reports)])
    else:
        _write_lines([line for report in reports for line in report.lines()])
    return 0 if all(r.passed for r in reports) else 1


def _refuse_enumeration(args: SimpleNamespace, weight: int, what: str) -> None:
    """The one --max-enum-weight gate: no exhaustive enumeration above the limit."""
    limit = args.max_enum_weight
    if weight > limit:
        raise _UsageError(
            f"{what}, refusing above edge weight {limit}; raise --max-enum-weight to force"
        )


def _emit_table(bound: int, blocks: Iterable[tuple], columns: list[str], fmt: str) -> None:
    # block (w, r, *columns) is the rows (w - r, *t), t a tail of weight r, each from its text
    # and one value per column; one format a block, in the bytes of csv.writer(lineterminator=
    # "\n") or json.dumps(indent=2): monomials are quoted in CSV when r > 0, never escaped
    from .series import _graded_tails

    if fmt == "json":
        cells = [f'    "{columns[0]}": "%s{{}}"'] + [f'    "{c}": {{}}' for c in columns[1:]]
        plain = quoted = ",\n  {{\n" + ",\n".join(cells) + "\n  }}"
    else:
        cells = ",{}" * (len(columns) - 1) + "\n"
        plain, quoted = "%s{}" + cells, '"%s{}"' + cells
    texts, rows = _graded_tails(bound)[2], []
    for w, r, *values in blocks:  # strict: a column short of a tail raises before any write
        form = ((quoted if r else plain) % (w - r if w else "")).format
        rows += starmap(form, zip(texts[r], *values, strict=True))
    body = "".join(rows)
    if fmt == "json":
        sys.stdout.write(f"[{body[1:]}\n]\n" if body else "[]\n")  # less the first ","
    else:
        sys.stdout.write(",".join(columns) + "\n" + body)


def _write_lines(lines: list[str]) -> None:
    # one write, where a print per line costs system calls per line on an unbuffered stdout
    sys.stdout.write("".join([line + "\n" for line in lines]))


def _bound(dest: str, default: int, what: str) -> tuple:
    return dest, int, default, what + " this edge weight (default %(default)s)", "N"


# Each command: name -> (help, handler, flags); each flag: spelling -> (dest, kind, default, help,
# metavar).  A kind is int for a bound, a tuple of the choices, str for free text (required
# where its default is None) or bool for a switch, which takes no value.
_TABLE_FLAGS = {
    "--max-weight": _bound("max_weight", DEFAULT_MAX_WEIGHT, "include monomials up to"),
    "--format": ("format", ("csv", "json"), "csv", "output format (default %(default)s)", None),
}
_COMMANDS = {
    "s-table": ("hyper-Catalan coefficient table", _cmd_s_table, {
        **_TABLE_FLAGS,
        "--no-bigons": ("no_bigons", bool, False,
                        "restrict to monomials without t_1 (no bigon faces / unary nodes)", None),
    }),
    "g-table": ("Geode coefficient table", _cmd_g_table, {
        **_TABLE_FLAGS,
        "--max-enum-weight": _bound(
            "max_enum_weight", DEFAULT_MAX_ENUM_WEIGHT, "refuse exhaustive enumeration above"),
        "--with-counts": ("with_counts", bool, False,
                          "add independently computed marked-tree and marked-subdigon "
                          "columns (exhaustive; gated by --max-enum-weight)", None),
    }),
    "trees": ("list the ordered trees of one type", _cmd_trees, {
        "--type": ("type_text", str, None, 'comma-separated type vector, e.g. "0,2"; empty '
                   "string for the single-node tree", "VECTOR"),
        "--marked": ("marked", bool, False,
                     "list marked trees instead, rendering the marked leaf as *", None),
        "--max-enum-weight": _bound(
            "max_enum_weight", DEFAULT_MAX_ENUM_WEIGHT, "refuse enumeration above"),
    }),
    "verify": ("machine-verify the series identities", _cmd_verify, {
        "--max-weight": _bound("max_weight", DEFAULT_MAX_WEIGHT, "verify monomials up to"),
        "--checks": ("checks", str, "all", f"comma-separated subset of {{{','.join(_CHECKS)}}}, "
                     "or 'all' (default) " + _all_text(), "LIST"),
        "--format": ("format", ("text", "json"), "text", "report format (default %(default)s)",
                     None),
        "--max-enum-weight": _bound(
            "max_enum_weight", DEFAULT_MAX_ENUM_WEIGHT, "refuse enumeration-backed checks above"),
    }),
}


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for argv, read from _COMMANDS alone; None for
    anything else: help, abbreviations, '=' forms, '--', a value that starts with '-', a bound
    that is not plain ASCII digits, and every usage error.  Then argparse reads argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, flags = _COMMANDS[argv[0]]
    values = {dest: default for dest, _, default, *_ in flags.values()}
    words = iter(argv[1:])
    for word in words:
        if word not in flags:
            return None
        dest, kind, *_ = flags[word]
        if kind is bool:
            values[dest] = True
            continue
        value = next(words, "-")  # a missing value reads as a flag
        if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
            return None
        if kind is int:
            if not (value.isascii() and value.isdigit()):  # argparse's int() also takes "+3"
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() converts: argparse's "invalid int value"
                return None
        values[dest] = value
    if None in values.values():  # a required flag is missing
        return None
    return SimpleNamespace(**values, handler=handler)


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # loaded only for a command line that _read leaves to it

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message: str, file: TextIO | None = None) -> None:
            # argparse drops a failed write and exits 0 or 2 regardless: here --help's
            # closed stdout reaches main, and usage errors go through _warn
            if file is sys.stdout:
                file.write(message)
                file.flush()
            else:
                _warn(message)

    parser = Parser(
        prog="geode",
        description="Exact hyper-Catalan and Geode coefficient tables, "
        "enumerations, and identity verifications.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")
    for name, (text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, (dest, kind, default, text, metavar) in flags.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
                continue
            p.add_argument(
                flag, dest=dest, type=kind if kind is int else None, default=default,
                choices=kind if isinstance(kind, tuple) else None, required=default is None,
                metavar=metavar, help=text,
            )
        p.set_defaults(handler=handler)
    return parser


if __name__ == "__main__":
    run()
