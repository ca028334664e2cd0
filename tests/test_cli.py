import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geode
from geode import cli
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
    count = cli.count_marked_trees
    monkeypatch.setattr(cli, "count_marked_trees", lambda m: count(m) + 1)
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
        raise AssertionError("geode_series ran before the --with-counts gate")

    monkeypatch.setattr(cli, "geode_series", unreachable)
    code, out, err = run(capsys, "g-table", "--max-weight", "34", "--with-counts")
    assert code == 2
    assert out == ""
    assert "refusing" in err


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
    with pytest.raises(SystemExit) as exc:
        main(["s-table", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["s-table", "--max-weight", "notanint"])
    assert exc.value.code == 2
    for argv in [
        ("s-table", "--max-weight", "-1"),
        ("trees", "--type", "1", "--max-enum-weight", "-1"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "nonnegative" in err


def test_import_loads_only_what_every_command_needs():
    # a fresh child, with -S so that site's .pth imports stay out of sys.modules
    code = (
        "import geode.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'csv', 'traceback'} & set(sys.modules)))"
    )
    src = str(Path(geode.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert child.stdout == "[]\n"


def test_internal_error_exits_3(capsys, monkeypatch):
    def crash(m):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "enumerate_trees", crash)
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
