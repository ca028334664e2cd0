"""Named engine faults that ``geode verify`` must catch.

Each mutant breaks one function of the engine; the full battery at weight 7
must then exit 1, a reported mismatch rather than a crash, and name exactly
the checks listed.  A mutant that every check passes would show a fault the
verifications cannot see.
"""

import inspect
import textwrap

import pytest

from geode import cli, factorization, hypercatalan, series, subdigons, trees
from geode.series import TruncatedSeries
from geode.subdigons import _marked_subdigon


def _edited(func, old: str, new: str):
    """``func`` rebuilt from its source with the one occurrence of ``old`` made ``new``."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} not found once in {func.__qualname__}"
    namespace = dict(vars(inspect.getmodule(func)))  # a copy: the module keeps its names
    exec(source.replace(old, new), namespace)
    return namespace[func.__name__]


def _raised(r, k, j):
    """A mutant of a table of one list over m_1 per tail: the value at m_1 = j of the k-th
    tail of weight r raised by 1."""
    def make(real):
        def mutant(*args):
            table = real(*args)
            table[r][k][j] += 1
            return table

        return mutant

    return make


def _next_claw(real):
    def mutant(word):
        i = real(word)
        j = None if i is None else real(word[i + 1 :])
        return i if j is None else i + 1 + j

    return mutant


def _decompose_marking_edge_0(real):
    def mutant(sub):
        n, marked = real(sub)
        return n, _marked_subdigon(marked.subdigon.boundary, 0)

    return mutant


# the product tail's code ca * cb less its power of 2, that is p(2)^m_2
DROPPED_M2 = "out[ca * cb // (ca * cb & -ca * cb)] = out.get(ca * cb // (ca * cb & -ca * cb), 0)"

MUTANTS = {
    "product drops the first tail entry of each key": (  # m_2, a tail code's power of 2
        TruncatedSeries, "__mul__",
        lambda real: _edited(real, "out[ca * cb] = out.get(ca * cb, 0)", DROPPED_M2),
        {"functional-equation", "factorization"},
    ),
    "hyper-Catalan value at index 5 raised by 1": (  # C(t_1 t_2), index 5 in graded order
        hypercatalan, "_hyper_catalan_tails", _raised(2, 0, 1),
        {"functional-equation", "factorization", "grade-sums"},
    ),
    "last lifted target raised by 1": (  # C(t_1 t_B): the last tail of weight B, m_1 = 0
        factorization, "_hyper_catalan_tails", _raised(-1, -1, -1),
        {"marked-trees", "marked-subdigons", "grade-sums"},
    ),
    "the recurrence finds G_(t - m e_n), not G_(t - e_n)": (  # a code over p(n)^m_n, not p(n)
        factorization, "_solve",
        lambda real: _edited(real, "solved[c // p]", "solved[c // p**m]"),
        {"factorization", "marked-trees", "marked-subdigons", "grade-sums"},
    ),
    "first claw returns the next claw": (
        trees, "_first_claw", _next_claw, {"marked-trees", "bijections"},
    ),
    "one more initial external edge": (
        subdigons, "_initial_external_edges",
        lambda real: lambda word: real(word) + 1,
        {"marked-subdigons", "bijections"},
    ),
    "retraversal swaps letters 1 and 2": (
        subdigons, "_retraverse",
        lambda real: lambda word: tuple({1: 2, 2: 1}.get(x, x) for x in real(word)),
        {"bijections"},
    ),
    "face deletion marks edge 0": (
        subdigons, "decompose_subdigon", _decompose_marking_edge_0, {"bijections"},
    ),
    "grade sums compare two grades fewer": (
        factorization, "verify_grade_sums",
        lambda real: _edited(real, "range(bound + 1)", "range(bound - 1)"),
        {"grade-sums"},
    ),
    "series keep only the grades below the bound": (  # each column read one slot short
        series, "_unpack",
        lambda real: lambda column, width, length: real(column, width, length - 1) + [0],
        {"grade-sums"},
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_verify_fails_on_each_mutant(capsys, monkeypatch, mutant):
    owner, name, make, failing = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    argv = ["verify", "--checks", "all,grade-sums", "--max-weight", "7", "--max-enum-weight", "7"]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 1
    assert {line.split(" (")[0] for line in out.splitlines() if line.endswith(": FAIL")} == failing


def test_a_short_catalan_table_cannot_pass(capsys, monkeypatch):
    # one Catalan number short, G's top grade has no C_(B+1) to read: each row reads its
    # grade's values by index, so no grade is dropped and the check cannot exit 0
    real = factorization.verify_grade_sums
    short = _edited(real, "range(1, bound + 2)", "range(1, bound + 1)")
    monkeypatch.setattr(factorization, "verify_grade_sums", short)
    code = cli.main(["verify", "--checks", "grade-sums", "--max-weight", "7"])
    capsys.readouterr()
    assert code != 0


@pytest.mark.parametrize("short", ["tail", "slot"])
def test_a_short_count_table_cannot_pass(capsys, monkeypatch, short):
    # the last tail of the top weight, the last row in graded order, or the empty tail's top
    # slot: the rows are read through zip(strict=True), so neither is a smaller PASS
    real = factorization._count_table

    def shortened(bound, count):
        table = real(bound, count)
        (table[-1] if short == "tail" else table[0][0]).pop()
        return table

    monkeypatch.setattr(factorization, "_count_table", shortened)
    code = cli.main(["verify", "--checks", "marked-trees", "--max-weight", "6"])
    capsys.readouterr()
    assert code != 0


def test_a_short_count_table_writes_no_table(capsys, monkeypatch):
    # the writer zips each block's tail texts and columns strictly, so the table missing its
    # last row is never written: the run crashes before its one write
    real = factorization._count_table

    def shortened(bound, count):
        table = real(bound, count)
        table[-1].pop()
        return table

    monkeypatch.setattr(factorization, "_count_table", shortened)
    code = cli.main(["g-table", "--max-weight", "4", "--with-counts"])
    assert (code, capsys.readouterr().out) == (3, "")
