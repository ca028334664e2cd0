"""The desk scripts run in-process through runpy, as `python scripts/<name>.py`."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


@pytest.mark.parametrize(
    "name, flag",
    [
        ("run_desk_checks.py", "--series-bound"),
        ("run_desk_checks.py", "--tree-bound"),
        ("run_desk_checks.py", "--subdigon-bound"),
    ],
)
def test_negative_bound_is_a_usage_error(monkeypatch, capsys, name, flag):
    assert run_script(monkeypatch, name, flag, "-1") == 2
    assert "must be nonnegative" in capsys.readouterr().err
