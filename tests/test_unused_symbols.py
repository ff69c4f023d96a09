"""Every top-level function and class the package defines, and every method of
a top-level class but the dunder ones, is referenced from `src` or
`perfbench`, not counting their `test_*.py` files, outside its own
definition: a symbol only tests reach is code that nothing runs. A reference
to a top-level symbol is a name or an attribute, and to a method an
attribute only, so a local variable that shares a method's name does not
use it; an import alone is not a reference, and neither is a recursive call.
Names are matched as strings, so a method is used when any attribute of its
name is read, and an override counts as used with the method it overrides."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = [ROOT / "src", ROOT / "perfbench"]

# Test-only symbols that stay, each with its reason.
ALLOWED = {
    # Item 9 of the roadmap replaces it with a protocol check the CLI runs.
    "check_leader_strategies",
    # The reference that tests replay checker counterexamples with.
    "replay_counterexample",
    # Reads a counterexample back for that replay.
    "Counterexample.from_dict",
    # The secrecy scan: tests search the recorded wire bytes for key material.
    "Transcript.contains",
    # A2M recovery: the client's replay of the manifest to a log's last
    # truncation, driven by the A2M tests.
    "A2mStore.manifest_bounds",
}


def _references(node: ast.AST, attributes_only: bool = False) -> list[str]:
    """The names and attribute names in node; the attribute names alone if
    attributes_only."""
    return [n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or (isinstance(n, ast.Name) and not attributes_only)]


def _definitions(tree: ast.Module):
    """(qualified name, node, whether it is a method) of each top-level def
    and of each method of a top-level class, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item, True


def unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """`path:name` of each definition that no other code references."""
    counts = {False: Counter(), True: Counter()}   # keyed by attributes_only
    for tree in trees.values():
        for attributes_only, counter in counts.items():
            counter.update(_references(tree, attributes_only))
    out = []
    for where, tree in trees.items():
        for qualified, node, method in _definitions(tree):
            own = _references(node, method).count(node.name)
            if counts[method][node.name] == own:
                out.append(f"{where}:{qualified}")
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
                               "class K:\n"
                               "    def __init__(self):\n        pass\n"
                               "    def m(self):\n        return self.m()\n"
                               "    def n(self):\n        return 1\n"
                               "    def tail(self):\n        return 0\n"
                               "def h():\n    tail = 1\n    return K().n() + tail\n"),
             "b.py": ast.parse("def g():\n    pass\n")}
    # K.m is reached only from its own body, K.tail only by a local variable
    # of its name; K.__init__ is left out.
    assert unreferenced(trees) == ["a.py:K.m", "a.py:K.tail", "a.py:f", "a.py:h",
                                   "b.py:g"]
