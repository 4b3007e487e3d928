"""Properties of the library source itself."""

import ast
from pathlib import Path

import matchgates

SOURCES = sorted(Path(matchgates.__file__).parent.glob("*.py"))


def test_library_code_has_no_assert_statements():
    # `python -O` strips assert, so a library check written as one vanishes.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
