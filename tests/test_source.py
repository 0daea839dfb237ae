"""Checks on the library's source text."""

import ast
from pathlib import Path

import tokfst


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check in the library raises
    paths = sorted(Path(tokfst.__file__).parent.rglob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
