"""Static checks on the library's imports and names, read with the `ast`
module: no module imports a name it never uses, the package exports every
name its `__init__` imports, and every public name has a caller outside
the tests."""

import ast
import re
from pathlib import Path

import pytest

import clpbn

SRC = Path(clpbn.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


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


def _callers() -> tuple[set[str], set[str]]:
    """Names and attribute names that the library (but not its `__init__`)
    and the benchmark refer to, with each identifier in README backticks
    counted as both."""
    names, attrs = set(), set()
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        if path == SRC / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    readme = set()
    for span in re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text()):
        readme.update(re.findall(r"[A-Za-z_]\w*", span))
    return names | readme, attrs | readme


def test_every_public_name_has_a_caller():
    # a method is checked as an attribute: a local variable of the same
    # name must not count as a call
    names, attrs = _callers()
    uncalled = []
    for path in MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defines and not node.name.startswith("_") and node.name not in names | attrs:
                uncalled.append(f"{path.stem}.{node.name}")
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if not isinstance(member, ast.FunctionDef) or re.fullmatch("__.*__", member.name):
                    continue
                if member.name not in attrs:
                    uncalled.append(f"{path.stem}.{node.name}.{member.name}")
    assert uncalled == []
