"""Static checks on the library's imports, read with the `ast` module: no
module imports a name it never uses, and the package exports every name
its `__init__` imports."""

import ast
from pathlib import Path

import pytest

import clpbn

SRC = Path(clpbn.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))


def _imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree) | set(_exports(tree))
    unused = {name: line for name, line in _imports(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses"


def test_package_exports_every_name_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert set(_imports(tree)) - set(_exports(tree)) == set()
