"""Checks on the package source itself."""

import ast
from pathlib import Path

import vortexlattice


def test_package_holds_no_assert():
    # an assert vanishes under python -O, so every check the package makes
    # raises a typed error instead
    paths = sorted(Path(vortexlattice.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
