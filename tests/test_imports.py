"""Each module of the package uses every name it imports."""

import ast
import pathlib

import pytest

import vvcode

PACKAGE = pathlib.Path(vvcode.__file__).parent


def imported_names(tree, reexports: bool):
    """(name, line) of each name an import binds, without __future__ and,
    when reexports is set, without the package's own (relative) imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports and node.level):
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree) -> set:
    """The names the code reads, those in string annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                names |= used_names(ast.parse(n.value, mode="eval"))
    return names


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in imported_names(tree, path.name == "__init__.py")
        if name not in used
    ]
    assert not unused, "unused imports: " + ", ".join(unused)
