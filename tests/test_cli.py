import json

import pytest

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


def test_trees_usage_errors(capsys):
    code, _, err = run(capsys, "trees", "--type", "1,x")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "trees", "--type", "0,0,0,0,0,3")
    assert code == 2  # weight 18 exceeds the enumeration bound


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
