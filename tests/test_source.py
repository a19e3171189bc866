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


# names with no reader outside the tests, each kept on purpose
UNREAD_ALLOWED = {
    "abrikosov.minimize_Eb_numeric":
        "criterion 10's shape minimizer; whether a command calls it is open",
    "lattice.ModularMap.apply": "the modular map's action on tau, read by the lattice tests",
}


def test_every_source_name_has_a_reader():
    # every function, class and method of the package is read somewhere in
    # the package or the benchmark outside its own definition: as a name, an
    # attribute, or a string holding it (the tracer patches by string)
    pkg = Path(vortexlattice.__file__).parent
    trees = {path: ast.parse(path.read_text())
             for path in [*sorted(pkg.glob("*.py")),
                          *sorted((pkg.parents[1] / "bench").glob("*.py"))]}
    reads = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                reads.append((node.attr, node))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads += [(part, node) for part in node.value.split(".")]

    def defs(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{node.name}", node
                yield from defs(node.body, f"{prefix}.{node.name}")

    unread = []
    for path, tree in trees.items():
        if path.parent != pkg:
            continue
        for qualname, node in defs(tree.body, path.stem):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and id(n) not in inside for name, n in reads):
                unread.append(qualname)
    assert sorted(unread) == sorted(UNREAD_ALLOWED)
