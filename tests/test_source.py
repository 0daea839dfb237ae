"""Checks on the library's source text."""

import ast
import sys
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


def test_public_surface_matches_all():
    # a name deleted from a module must leave the package's surface too
    assert [name for name in tokfst.__all__ if not hasattr(tokfst, name)] == []
    tree = ast.parse(Path(tokfst.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public
    assert sorted(public - set(tokfst.__all__)) == []


def test_library_imports_only_the_standard_library():
    # tokfst has no runtime dependencies: every import is relative, from
    # __future__, or of a standard-library module
    paths = sorted(Path(tokfst.__file__).parent.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
