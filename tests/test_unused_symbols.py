"""Every top-level function and class the package defines is referenced from
`src` or `perfbench`, not counting their `test_*.py` files, outside its own
definition: a symbol only tests reach is code that nothing runs. A reference
is a name or an attribute; an import alone is not one, and neither is a
recursive call. Names are matched as strings, so a method of the same name
also counts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = [ROOT / "src", ROOT / "perfbench"]

# Test-only symbols that stay, each with its reason.
ALLOWED = {
    # Item 9 of the roadmap replaces it with a protocol check the CLI runs.
    "check_leader_strategies",
    # The reference that tests replay checker counterexamples with.
    "replay_counterexample",
}


def _references(node: ast.AST) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """`path:name` of each top-level def that no other code references."""
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    out = []
    for where, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = _references(node).count(node.name)
                if counts.get(node.name, 0) == own:
                    out.append(f"{where}:{node.name}")
    return sorted(out)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_top_level_symbol_is_used_outside_tests():
    trees = {str(path.relative_to(ROOT)): _parse(path)
             for root in USERS for path in sorted(root.rglob("*.py"))
             if not path.name.startswith("test_")}
    found = [entry for entry in unreferenced(trees)
             if entry.startswith("src/attestnet/")
             and entry.rpartition(":")[2] not in ALLOWED]
    assert found == []


def test_the_check_sees_an_unused_symbol():
    trees = {"a.py": ast.parse("from b import g\n"
                               "def f(n):\n    return f(n - 1)\n"
                               "class K:\n    pass\n"
                               "def h():\n    return K()\n"),
             "b.py": ast.parse("def g():\n    pass\n")}
    assert unreferenced(trees) == ["a.py:f", "a.py:h", "b.py:g"]
