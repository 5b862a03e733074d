"""The package keeps to the Python 3.10 grammar that pyproject.toml allows."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "diamondgf").glob("*.py"))


def test_the_package_source_parses_as_python_3_10():
    # Grammar only: this catches syntax such as except* or a type statement,
    # not a call to a library function that 3.10 lacks.
    assert len(SOURCES) >= 9
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
