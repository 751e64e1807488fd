"""The library example in README.md runs as written."""

import doctest
from pathlib import Path


def test_readme_example_runs():
    result = doctest.testfile(str(Path(__file__).parents[1] / "README.md"),
                              module_relative=False)
    assert result.attempted and not result.failed
