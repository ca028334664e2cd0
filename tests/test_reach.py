"""Every public function is run by some command.

The commands below run in-process under ``sys.setprofile`` (through
``test_routes.reached``), which records the ``module.qualname`` of each geode
function they call.  A function in ``geode.__all__`` that none of them calls
is a second API that only tests read: it belongs in the tests, or nowhere.
"""

import contextlib
import inspect
import io
import sys

import pytest

import geode
from geode.cli import main
from test_routes import reached

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11"
)

COMMANDS = [
    "s-table --max-weight 6",
    "s-table --max-weight 6 --no-bigons",
    "s-table --max-weight 6 --format json",
    "g-table --max-weight 6",
    "g-table --max-weight 6 --with-counts",
    "g-table --max-weight 6 --format json",
    "trees --type 1,1,1",
    "trees --type 1,1,1 --marked",
    "verify --checks all,grade-sums --max-weight 6",
    "verify --checks all,grade-sums --max-weight 6 --format json",
]


def run_commands():
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv.split()) == 0, argv


def test_every_public_function_is_run_by_a_command():
    called = reached(run_commands)
    functions = {
        name: f"{value.__module__.removeprefix('geode.')}.{value.__qualname__}"
        for name in geode.__all__
        if inspect.isfunction(value := getattr(geode, name))
    }
    assert sorted(name for name, key in functions.items() if key not in called) == []
