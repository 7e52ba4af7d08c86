"""No correctness guard in the package may disappear under ``python -O``,
which strips every ``assert`` statement: guards raise instead."""

import ast
from pathlib import Path

import fdlab

SOURCES = sorted(Path(fdlab.__file__).parent.rglob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
