import doctest
from pathlib import Path

import geode.series

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_series_module_doctests():
    result = doctest.testmod(geode.series)
    assert result.attempted > 0
    assert result.failed == 0
