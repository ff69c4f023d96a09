"""Every name a module of the package imports at module level is used in
that module. The package's `__init__.py` files re-export names, so they are
exempt; the top-level one must list each name it imports in `__all__`."""

import ast
from pathlib import Path

import pytest

import attestnet

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attestnet"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for each top-level `import` and `from ... import`."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in _used(tree))
    assert not unused, f"unused imports: {', '.join(unused)}"


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [name for name in attestnet.__all__ if not hasattr(attestnet, name)] == []
    assert sorted(set(_imported(tree)) - set(attestnet.__all__)) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(d)\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["b", "os"]
