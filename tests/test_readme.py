import doctest
from pathlib import Path

import geode.series
import geode.subdigons
import geode.trees

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_series_module_doctests():
    for module in (geode.series, geode.trees, geode.subdigons):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__
