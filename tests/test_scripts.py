"""The desk scripts run in-process through runpy, as `python scripts/<name>.py`."""

import runpy
import sys
from pathlib import Path

import pytest

import geode
from geode import TruncatedSeries, TypeVector

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def test_grade_sums_checks_the_g_column(monkeypatch, capsys):
    assert run_script(monkeypatch, "grade_sums.py", "--max-weight", "6") == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert out.splitlines()[-1].split() == ["6", "132", "132", "297"]

    real = geode.geode_series

    def corrupted(bound):
        coeffs = dict(real(bound).items())
        coeffs[TypeVector((0, 1))] += 1
        return TruncatedSeries(bound, coeffs)

    monkeypatch.setattr(geode, "geode_series", corrupted)
    assert run_script(monkeypatch, "grade_sums.py", "--max-weight", "4") == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.endswith("<- MISMATCH") for row in rows] == [
        False, False, True, False, False
    ]


@pytest.mark.parametrize(
    "name, flag",
    [
        ("grade_sums.py", "--max-weight"),
        ("run_desk_checks.py", "--series-bound"),
        ("run_desk_checks.py", "--tree-bound"),
        ("run_desk_checks.py", "--subdigon-bound"),
    ],
)
def test_negative_bound_is_a_usage_error(monkeypatch, capsys, name, flag):
    assert run_script(monkeypatch, name, flag, "-1") == 2
    assert "must be nonnegative" in capsys.readouterr().err
