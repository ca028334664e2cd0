import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geode
import geode.subdigons
import geode.trees
from geode import (
    cli,
    count_marked_subdigons,
    count_marked_trees,
    enumerate_marked_trees,
    enumerate_trees,
    enumerate_types,
    factorization,
    geode_series,
    hyper_catalan_series,
)
from geode.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_s_table_csv(capsys):
    code, out, _ = run(capsys, "s-table", "--max-weight", "2")
    assert code == 0
    assert out == 'monomial,coefficient\n,1\n1,1\n2,1\n"0,1",1\n'


def test_s_table_weight_zero(capsys):
    code, out, _ = run(capsys, "s-table", "--max-weight", "0")
    assert code == 0
    assert out == "monomial,coefficient\n,1\n"


def test_s_table_json_deterministic(capsys):
    code, first, _ = run(capsys, "s-table", "--max-weight", "4", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "s-table", "--max-weight", "4", "--format", "json")
    assert code == 0
    assert first == second
    rows = json.loads(first)
    assert rows[0] == {"monomial": "", "coefficient": 1}
    assert {"monomial": "1,1", "coefficient": 3} in rows


def test_s_table_no_bigons_filter(capsys):
    code, out, _ = run(capsys, "s-table", "--max-weight", "4", "--no-bigons")
    assert code == 0
    monomials = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert all(not m or m.strip('"').split(",")[0] == "0" for m in monomials)
    assert '"0,2",2' in out


def test_g_table_values(capsys):
    code, out, _ = run(capsys, "g-table", "--max-weight", "2")
    assert code == 0
    assert out == 'monomial,coefficient\n,1\n1,1\n2,1\n"0,1",2\n'


def test_g_table_with_counts_all_columns_agree(capsys):
    code, out, err = run(capsys, "g-table", "--max-weight", "6", "--with-counts")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "monomial,coefficient,marked_trees,marked_subdigons"
    for line in lines[1:]:
        cells = line.rsplit(",", 3)
        assert cells[1] == cells[2] == cells[3]


def test_g_table_mismatch_injection_fails(capsys, monkeypatch):
    count = geode.trees.count_marked_trees
    monkeypatch.setattr(geode.trees, "count_marked_trees", lambda m: count(m) + 1)
    code, out, err = run(capsys, "g-table", "--max-weight", "3", "--with-counts")
    assert code == 1
    assert "mismatch" in err


def test_g_table_with_counts_refuses_beyond_enum_bound(capsys):
    code, _, err = run(capsys, "g-table", "--max-weight", "11", "--with-counts")
    assert code == 2
    assert "refusing" in err
    code, _, _ = run(
        capsys,
        "g-table",
        "--max-weight",
        "4",
        "--with-counts",
        "--max-enum-weight",
        "3",
    )
    assert code == 2


def test_g_table_refuses_counts_before_building_g(capsys, monkeypatch):
    def unreachable(bound):
        raise AssertionError("the Geode recurrence ran before the --with-counts gate")

    # the plain table and the counted rows both solve G through factorization's name
    monkeypatch.setattr(factorization, "_geode_coefficients", unreachable)
    code, out, err = run(capsys, "g-table", "--max-weight", "34", "--with-counts")
    assert code == 2
    assert out == ""
    assert "refusing" in err


def test_a_corrupted_geode_reaches_every_counted_route(capsys, monkeypatch):
    solve = factorization._geode_coefficients

    def corrupted(bound):
        g = dict(solve(bound))
        g[(1, 1)] += 1  # G(1,1) = 5 becomes 6
        return g

    monkeypatch.setattr(factorization, "_geode_coefficients", corrupted)
    for check in ("marked-trees", "marked-subdigons"):
        code, out, _ = run(capsys, "verify", "--checks", check, "--max-weight", "4")
        assert code == 1
        assert "    [1,1]: expected 6, got 5" in out.splitlines()
        assert out.count("expected") == 1
    code, _, err = run(capsys, "g-table", "--max-weight", "4", "--with-counts")
    assert code == 1
    assert err == "count mismatch at monomials: [1,1]\n"

    monkeypatch.setattr(factorization, "_geode_coefficients", solve)
    count = geode.subdigons.count_marked_subdigons
    monkeypatch.setattr(geode.subdigons, "count_marked_subdigons", lambda m: count(m) + 1)
    argv = ["verify", "--checks", "marked-trees,marked-subdigons", "--max-weight", "4"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    passed = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert passed == {"marked-trees": True, "marked-subdigons": False}


@pytest.mark.parametrize(
    "argv, what",
    [
        ("g-table --max-weight 11 --with-counts",
         "--with-counts enumerates every tree and subdigon"),
        ("trees --type 0,0,0,0,0,0,0,0,0,0,1",
         "type [0,0,0,0,0,0,0,0,0,0,1] has edge weight 11"),
        ("verify --checks marked-trees --max-weight 12",
         "marked-trees enumerate exhaustively"),
    ],
)
def test_one_gate_refuses_every_enumeration(capsys, argv, what):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == (
        f"error: {what}, refusing above edge weight 10; raise --max-enum-weight to force\n"
    )


def test_trees_listing(capsys):
    code, out, _ = run(capsys, "trees", "--type", "0,1")
    assert code == 0
    assert out == "(()())\n"

    code, out, _ = run(capsys, "trees", "--type", "0,1", "--marked")
    assert code == 0
    assert out == "(*())\n(()*)\n"

    code, out, _ = run(capsys, "trees", "--type", "1,1")
    assert code == 0
    assert len(out.splitlines()) == 3

    # a unary chain deeper than the recursion limit: one line of 2402 characters
    deep = ["trees", "--type", "1200", "--max-enum-weight", "2000"]
    code, out, _ = run(capsys, *deep)
    assert code == 0
    assert out == "(" * 1201 + ")" * 1201 + "\n"

    code, out, _ = run(capsys, *deep, "--marked")
    assert code == 0
    assert out == "(" * 1200 + "*" + ")" * 1200 + "\n"


def test_trees_listing_matches_the_library_renderers(capsys):
    for m in enumerate_types(7):
        code, out, _ = run(capsys, "trees", "--type", m.text)
        assert code == 0
        assert out == "\n".join(t.serialize() for t in enumerate_trees(m)) + "\n"
        code, out, _ = run(capsys, "trees", "--type", m.text, "--marked")
        assert code == 0
        assert out == "\n".join(t.serialize() for t in enumerate_marked_trees(m)) + "\n"


def test_trees_single_node_type(capsys):
    code, out, _ = run(capsys, "trees", "--type", "")
    assert code == 0
    assert out == "()\n"


def test_trees_type_with_many_trailing_zeros(capsys):
    code, out, _ = run(
        capsys, "trees", "--type", "1," + "0," * 99_999 + "0", "--max-enum-weight", "2"
    )
    assert code == 0
    assert out == "(())\n"


def test_trees_usage_errors(capsys):
    code, _, err = run(capsys, "trees", "--type", "1,x")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "trees", "--type", "0,0,0,0,0,3")
    assert code == 2  # weight 18 exceeds the enumeration bound
    for text in ["1_0", "+1", "-0", "\u0663"]:  # int() alone takes each of these
        code, out, err = run(capsys, "trees", "--type", text)
        assert (code, out) == (2, "")
        assert "not a comma-separated integer vector" in err


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--max-weight", "8", "--checks", "all")
    assert code == 0
    assert out.count("PASS") == 5

    code, out, _ = run(
        capsys, "verify", "--max-weight", "10", "--checks", "functional-eq"
    )
    assert code == 0


def test_verify_bijections_reports_roundtrip_counts(capsys):
    code, out, _ = run(capsys, "verify", "--max-weight", "8", "--checks", "bijections")
    assert code == 0
    assert "round trips" in out
    counts = [
        int(line.split(":")[1].split("checked")[0])
        for line in out.splitlines()
        if "checked" in line
    ]
    assert counts and all(c > 0 for c in counts)


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--max-weight",
        "4",
        "--checks",
        "factorization,bijections",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [check["name"] for check in payload["checks"]] == [
        "factorization",
        "bijections",
    ]


def test_verify_runs_a_repeated_check_once(capsys):
    once = run(capsys, "verify", "--max-weight", "4", "--checks", "marked-trees")
    assert once[0] == 0 and once[1].count("PASS") == 1
    assert run(
        capsys, "verify", "--max-weight", "4", "--checks", "marked-trees, marked-trees"
    ) == once
    code, out, _ = run(
        capsys,
        "verify",
        "--max-weight",
        "4",
        "--checks",
        "bijections,marked-trees,bijections,marked-trees",
        "--format",
        "json",
    )
    assert code == 0
    assert [check["name"] for check in json.loads(out)["checks"]] == [
        "bijections",
        "marked-trees",
    ]


def test_verify_expands_all_among_other_checks(capsys):
    def out(checks):
        code, text, _ = run(capsys, "verify", "--max-weight", "4", "--checks", checks)
        assert code == 0
        return text

    every, sums = out("all"), out("grade-sums")
    assert "grade-sums" not in every
    assert out("all,grade-sums") == every + sums
    assert out("grade-sums,all") == sums + every
    assert out("all,all") == every


def test_verify_grade_sums(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "grade-sums", "--max-weight", "6")
    assert code == 0
    assert out.splitlines() == [
        "grade-sums (weight <= 6): PASS",
        "  S grade sums vs Catalan numbers: 7 checked",
        "  G grade sums vs Catalan differences: 7 checked",
    ]
    code, out, err = run(capsys, "verify", "--checks", "grade-sums", "--max-weight", "-1")
    assert (code, out) == (2, "")
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "name, group, mismatch",
    [  # C_2 = 2 and C_3 - C_2 = 3, each one too high
        ("hyper_catalan_series", "S grade sums vs Catalan numbers", "expected 2, got 3"),
        ("geode_series", "G grade sums vs Catalan differences", "expected 3, got 4"),
    ],
)
def test_verify_grade_sums_names_the_corrupted_grade(
    capsys, monkeypatch, name, group, mismatch
):
    real = getattr(geode.factorization, name)

    def corrupted(bound):
        coeffs = dict(real(bound).items())
        coeffs[geode.TypeVector((0, 1))] += 1
        return geode.TruncatedSeries(bound, coeffs)

    monkeypatch.setattr(geode.factorization, name, corrupted)
    code, out, _ = run(capsys, "verify", "--checks", "grade-sums", "--max-weight", "6")
    assert code == 1
    assert [line for line in out.splitlines() if "mismatch" in line] == [
        f"  {group}: 7 checked, 1 mismatches"
    ]
    assert [line for line in out.splitlines() if "expected" in line] == [
        f"    [weight 2]: {mismatch}"
    ]
    code, out, _ = run(
        capsys, "verify", "--checks", "grade-sums", "--max-weight", "6", "--format", "json"
    )
    assert code == 1
    expected, actual = mismatch.removeprefix("expected ").split(", got ")
    mismatches = [m for g in json.loads(out)["checks"][0]["groups"] for m in g["mismatches"]]
    # the JSON report keeps each mismatch's fields in this order
    assert json.dumps(mismatches) == (
        f'[{{"monomial": "weight 2", "expected": {expected}, "actual": {actual}}}]'
    )


def test_verify_rejects_unknown_checks(capsys):
    code, _, err = run(capsys, "verify", "--checks", "nonsense")
    assert code == 2
    assert "unknown checks" in err
    for empty in [",", "", " , "]:
        code, out, err = run(capsys, "verify", "--checks", empty)
        assert (code, out) == (2, "")
        assert "no checks selected" in err


def test_verify_gates_enumeration_checks(capsys):
    code, _, err = run(
        capsys, "verify", "--max-weight", "12", "--checks", "marked-trees"
    )
    assert code == 2
    assert "refusing" in err
    # algebraic checks are not gated
    code, _, _ = run(
        capsys, "verify", "--max-weight", "12", "--checks", "functional-eq"
    )
    assert code == 0


def test_bad_flags_exit_2(capsys):
    for argv in [
        ["s-table", "--bogus"],
        ["s-table", "--max-weight", "notanint"],
        ["s-table", "--max-enum-weight", "3"],  # s-table enumerates nothing
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    for argv in [
        ("s-table", "--max-weight", "-1"),
        ("trees", "--type", "1", "--max-enum-weight", "-1"),
        ("g-table", "--max-enum-weight", "-1"),
        ("verify", "--max-enum-weight", "-1"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "nonnegative" in err


def fresh_child(code, *args):
    """Stdout of ``code`` in a fresh child, with -S so that site's .pth imports stay out of
    sys.modules."""
    src = str(Path(geode.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return child.stdout


def test_import_loads_only_what_every_command_needs():
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'geode'))"
    assert fresh_child(f"import geode, sys; {loaded}") == "['geode']\n"
    code = (
        "import geode.cli, sys; geode.cli._build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'json', 'csv', 'traceback'} & set(sys.modules)))"
        f"; {loaded}"
    )
    assert fresh_child(code) == "[]\n['geode', 'geode.cli']\n"


TABLES = ["series", "reports", "hypercatalan", "factorization"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        ("trees --type 0,2", ["series", "trees"]),
        ("trees --type 0,2 --marked", ["series", "trees"]),
        ("s-table --max-weight 4", TABLES[:3]),
        ("g-table --max-weight 4", TABLES),
        ("g-table --max-weight 4 --format json", TABLES),
        ("verify --checks functional-eq,factorization --max-weight 4", TABLES),
        ("g-table --max-weight 4 --with-counts", TABLES + ["subdigons", "trees"]),
        ("verify --checks all --max-weight 4", TABLES + ["subdigons", "trees"]),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    code = (
        "import contextlib, io, sys, geode.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert geode.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'geode'))\n"
    )
    want = sorted(["geode", "geode.cli"] + [f"geode.{m}" for m in modules])
    assert fresh_child(code, *argv.split()) == f"{want}\n"


PUBLIC_NAMES = [
    "CheckGroup", "LEAF", "MarkedSubdigon", "MarkedTree", "Mismatch",
    "NegativeGeodeCoefficientError", "OrderedTree", "Subdigon", "TRIVIAL", "TruncatedSeries",
    "TypeVector", "VerificationReport", "clawed_nodes", "compose_subdigon", "compose_tree",
    "count_initial_external_edges", "count_initial_leaves", "count_marked_subdigons",
    "count_marked_trees", "decompose_subdigon", "decompose_tree", "enumerate_marked_subdigons",
    "enumerate_marked_trees", "enumerate_subdigons", "enumerate_trees", "enumerate_types",
    "external_edges_ccw", "external_faces", "geode_series", "grading_key", "hyper_catalan",
    "hyper_catalan_series", "mismatches_between", "post_order", "root_decompose",
    "solve_factorization", "subdigon_to_tree", "subdigon_type", "sum_of_variables",
    "tree_to_subdigon", "tree_type", "verify_bijections", "verify_factorization",
    "verify_functional_equation", "verify_grade_sums", "verify_marked_subdigons",
    "verify_marked_trees",
]


def test_the_lazy_namespace_binds_every_public_name():
    assert geode.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(geode, name)
        home = value.__module__  # a constant's is its class's: LEAF and TRIVIAL
        assert home.startswith("geode.")
        assert getattr(sys.modules[home], name) is value
    assert {"__all__", *PUBLIC_NAMES} <= set(dir(geode))
    with pytest.raises(AttributeError, match="^module 'geode' has no attribute 'nonsense'$"):
        geode.nonsense
    # a fresh child, where no submodule has loaded yet
    code = (
        "import sys\n"
        "names = {}\n"
        "exec('from geode import *', names)\n"
        "print(sorted(names.keys() - {'__builtins__'}))\n"
        "from geode import cli\n"
        "print(cli.__name__, cli is sys.modules['geode.cli'])\n"
    )
    assert fresh_child(code) == f"{PUBLIC_NAMES}\ngeode.cli True\n"


def test_verify_help_lists_every_check_and_loads_none():
    code = (
        "import sys, geode.cli\n"
        "try:\n"
        "    geode.cli.main(['verify', '--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'geode'))\n"
    )
    *help_lines, loaded = fresh_child(code).splitlines()
    assert loaded == "['geode', 'geode.cli']"
    # argparse wraps the help, after hyphens too, by rules that differ across Python versions
    text = "".join("".join(help_lines).split())
    checks = "functional-eq,factorization,marked-trees,marked-subdigons,bijections,grade-sums"
    assert "{" + checks + "}" in text
    assert "everycheckbutgrade-sums" in text


def stdlib_table(command, bound, fmt):
    """The table as the stdlib encoders write it, from rows built through the library API."""
    if command == "g-table --with-counts":
        columns = ["monomial", "coefficient", "marked_trees", "marked_subdigons"]
        rows = [
            (m.text, c, count_marked_trees(m), count_marked_subdigons(m))
            for m, c in geode_series(bound).items()
        ]
    else:
        columns = ["monomial", "coefficient"]
        series = geode_series if command == "g-table" else hyper_catalan_series
        no_bigons = command == "s-table --no-bigons"
        rows = [
            (m.text, c) for m, c in series(bound).items() if not (no_bigons and m.multiplicity(1))
        ]
    if fmt == "json":
        return json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command", ["s-table", "s-table --no-bigons", "g-table", "g-table --with-counts"]
)
def test_tables_match_the_stdlib_encoders(capsys, command, fmt):
    for bound in range(9):
        argv = [*command.split(), "--max-weight", str(bound), "--format", fmt]
        assert run(capsys, *argv) == (0, stdlib_table(command, bound, fmt), "")


@pytest.mark.parametrize("columns", [["monomial", "coefficient"], ["monomial", "a", "b"]])
def test_an_empty_table_matches_the_stdlib_encoders(capsys, columns):
    cli._emit_table([], columns, "json")
    assert capsys.readouterr().out == json.dumps([], indent=2) + "\n"
    cli._emit_table([], columns, "csv")
    assert capsys.readouterr().out == ",".join(columns) + "\n"


def test_tables_load_neither_csv_nor_json():
    # a fresh -S child runs each table command, then a JSON report, which does load json
    code = (
        "import sys, geode.cli\n"
        "for argv in sys.argv[1:]:\n"
        "    assert geode.cli.main(argv.split()) == 0\n"
        "    print(sorted({'csv', 'json'} & set(sys.modules)), file=sys.stderr)\n"
    )
    argvs = [
        "s-table --max-weight 4",
        "s-table --max-weight 4 --format json",
        "g-table --max-weight 4",
        "g-table --max-weight 4 --format json",
        "verify --max-weight 2 --format json",
    ]
    src = str(Path(geode.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, *argvs],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert child.stderr.splitlines() == ["[]"] * 4 + ["['json']"]


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [
        "s-table --max-weight 6",
        "s-table --max-weight 6 --format json",
        "g-table --max-weight 6",
        "g-table --max-weight 6 --format json",
        "trees --type 2,1,1",
        "trees --type 2,1,1 --marked",
        "verify --max-weight 6 --format text",
        "verify --max-weight 6 --format json",
    ],
)
def test_each_command_writes_stdout_once(monkeypatch, argv):
    # a print per line would cost system calls per line on unbuffered stdout
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv.split()) == 0
    assert stdout.writes == 1
    assert stdout.getvalue().count("\n") > 1


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_141_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["trees", "--type", "0,1", "--marked"]) == 141
    assert "internal error" not in capsys.readouterr().err


def run_with_a_closed_reader(argv, closed):
    """Run a fresh `geode` child whose `closed` stream ("stdout" or "stderr") is the
    write end of a pipe with its read end closed first; return the status and the
    bytes of the other stream."""
    src = str(Path(geode.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
    try:
        child = subprocess.run(
            [sys.executable, "-m", "geode.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
            **streams,
        )
    finally:
        os.close(write_end)
    return child.returncode, child.stderr if closed == "stdout" else child.stdout


def test_closed_pipe_in_a_fresh_child_exits_141_with_empty_stderr():
    assert run_with_a_closed_reader(["trees", "--type", "0,1", "--marked"], "stdout") == (141, b"")


@pytest.mark.parametrize(
    "argv, closed, code",
    [
        ("--help", "stdout", 141),
        ("verify --help", "stdout", 141),
        ("trees --type x", "stderr", 2),
        ("verify --checks nonsense", "stderr", 2),
        ("verify --max-weight -1", "stderr", 2),
        ("g-table --max-weight 12 --with-counts", "stderr", 2),
        ("nonsense", "stderr", 2),
    ],
)
def test_a_closed_pipe_in_a_fresh_child_keeps_the_exit_status(argv, closed, code):
    assert run_with_a_closed_reader(argv.split(), closed) == (code, b"")


def test_closed_stderr_keeps_the_mismatch_status(capsys, monkeypatch):
    count = geode.trees.count_marked_trees
    monkeypatch.setattr(geode.trees, "count_marked_trees", lambda m: count(m) + 1)
    monkeypatch.setattr(sys, "stderr", ClosedPipe())
    assert main(["g-table", "--max-weight", "3", "--with-counts"]) == 1


def test_internal_error_exits_3(capsys, monkeypatch):
    def crash(m):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(geode.trees, "enumerate_trees", crash)
    code, out, err = run(capsys, "trees", "--type", "0,1")
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback")
    assert err.endswith(
        "internal error: RecursionError: maximum recursion depth exceeded\n"
    )


@pytest.mark.parametrize(
    "bound, digest",
    [
        ("12", "320d53566f3c0948f597a585f82f1788f940e7064f06acfa6421314ec6d17611"),
        ("13", "7cb1f39c3f357cdde609087ccb7024e14bed963dc8bb18fcdd6a0ad672fc7b6c"),
        ("14", "cb69a02e7e7b1ddfb1d20fa81b9f0ac3016cf23b15125e8c7542442018054b37"),
    ],
)
def test_verify_algebraic_json_golden_bytes(capsys, bound, digest):
    code, out, _ = run(
        capsys, "verify", "--checks", "functional-eq,factorization",
        "--max-weight", bound, "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("s-table --max-weight 16",
         "32bcb59a653188cd1978447a73d311dabdc0f319dfcca0fcda8334a43ec8a955"),
        ("s-table --max-weight 16 --no-bigons",
         "945097378b9605e0dec6c36b791964c57d7805c931c713d523c9687d0f68f598"),
        ("g-table --max-weight 16",
         "041f4567666d309dc8e78b219aa6cafe2899328f95675521296b2c692b9a2910"),
        ("g-table --max-weight 14 --format json",
         "b4b8cbc33c6b161ab894f35eff597ae30c51ed492d736c2a66478bdf0e8e1eca"),
        ("s-table --max-weight 0 --format json",
         "bf82698b67d623b898652e5a6e13a85eb0ddf30635deee460413fd7507061293"),
        ("s-table --max-weight 30",
         "3fcc6fa4a3b843416b4fae6115bfc7c8395b1bcfa043a4decc1128c856cd27f5"),
        ("g-table --max-weight 24",
         "cc71c76ebfd2f9eecbc9529f33887923750873fc452694d03b066a5be1db1ef0"),
        ("g-table --max-weight 20 --format json",
         "1d64dbaed48d0bd69b3473d85d29a3b690d8bd2ecabb44aba0d7eee4ec3caa4f"),
    ],
)
def test_table_golden_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("trees --type 4,2,0,1 --max-enum-weight 12",
         "9f7cb582b25f1fc6d87d3cecd54996d4c1e7fc86c23b98cb3a2cf39fffb65805"),
        ("trees --type 4,2,0,1 --max-enum-weight 12 --marked",
         "f09423d1c7a6efe8b8d724420a4bb4b238505f12b9f7d5b0d5d2db98996de4dc"),
        ("trees --type 3,1,0,0,0,0,1 --max-enum-weight 12 --marked",
         "672d4a181d1ba50be3d4814b7ae61cdd11d952e709fd5c59b181182dbacdd0e6"),
        ("trees --type 1,1,0,1,1 --max-enum-weight 12 --marked",
         "5b2e66921aa1dfa01527778f7cf242a6bbb82e17aa0e763a7ada9258b5d2f7af"),
        ("verify --checks all --max-weight 8",
         "79a2cb2b0e4d5ee1a8c570aa3923c7ba438e6039c507ccc2d992b277361fadde"),
        ("g-table --max-weight 8 --with-counts",
         "e8e6caa98cae4085eaa4a5de4a467500193bea56e65365fd273073210f251812"),
        ("verify --checks bijections --max-weight 9 --max-enum-weight 9",
         "7f6d0f9c1450c3058b6e3ee4163aeaecb7f02debcb0f01bddf6dc973d2248d3c"),
    ],
)
def test_enumeration_golden_bytes(capsys, argv, digest):
    # listings, bijection checks and counted columns all go through tree words
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
