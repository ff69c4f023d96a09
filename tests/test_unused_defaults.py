"""Every defaulted parameter of a function or constructor the package
defines is passed, by position or by keyword, in at least one call in `src`
or in `perfbench` outside its `test_*.py` files: a default that only tests
override is an option that nothing runs sets. Calls are matched by callee name (a constructor by its class
name); a call that unpacks `*args` or `**kwargs` counts as passing every
parameter it could reach. Nested functions are closures, whose defaults bind
values rather than offer options, so only module-level functions and the
methods of module-level classes are checked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "attestnet"
CALLERS = [ROOT / "src", ROOT / "perfbench"]

# Defaults that only tests set and that stay, each with its reason.
ALLOWED = {
    # The console script calls main() to read sys.argv; tests pass argv.
    "main(argv=...)",
}


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call or None if keyword-only) per defaulted
    parameter; a bound method's first parameter is not in the call."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if bound else 0
    first_default = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional)
           if i >= first_default]
    out += [(arg.arg, None) for arg, default
            in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    return out


def _is_bound(fn: ast.FunctionDef) -> bool:
    return not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                   for d in fn.decorator_list)


def defined(tree: ast.Module, where: str) -> list[tuple[str, str, int | None, str]]:
    """(callee name, parameter, position, location) per defaulted parameter."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out += [(node.name, p, i, f"{where}:{node.lineno}")
                    for p, i in _defaulted(node, bound=False)]
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    callee = node.name if fn.name == "__init__" else fn.name
                    out += [(callee, p, i, f"{where}:{fn.lineno}")
                            for p, i in _defaulted(fn, _is_bound(fn))]
    return out


def passed(tree: ast.AST) -> set[tuple[str, str | int]]:
    """(callee name, keyword or position) per argument of every call; "*"
    and "**" stand for an unpacked positional or keyword argument."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        for i, arg in enumerate(node.args):
            out.add((name, "*" if isinstance(arg, ast.Starred) else i))
        for kw in node.keywords:
            out.add((name, "**" if kw.arg is None else kw.arg))
    return out


def unset(definitions, calls) -> list[str]:
    return sorted(f"{callee}({param}=...) at {where}"
                  for callee, param, position, where in definitions
                  if (callee, param) not in calls and (callee, "**") not in calls
                  and (position is None or ((callee, position) not in calls
                                            and (callee, "*") not in calls)))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_defaulted_parameter_is_passed_somewhere():
    definitions = [d for path in sorted(PACKAGE.rglob("*.py"))
                   for d in defined(_parse(path), str(path.relative_to(ROOT)))]
    calls = set()
    for root in CALLERS:
        for path in root.rglob("*.py"):
            if not path.name.startswith("test_"):
                calls |= passed(_parse(path))
    found = [entry for entry in unset(definitions, calls)
             if entry.partition(" at ")[0] not in ALLOWED]
    assert found == []


def test_the_check_sees_an_unset_default():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0, z=0): pass\n"
        "    def m(self, v=0): pass\n"
        "    @staticmethod\n"
        "    def s(w=0): pass\n"
        "def outer():\n"
        "    def inner(bound=1): pass\n"
        "f(0, 5, c=1)\n"
        "K(1, z=2)\n"
        "obj.m(**opts)\n"
        "K.s(1)\n")
    assert unset(defined(tree, "t"), passed(tree)) == [
        "K(y=...) at t:3", "f(d=...) at t:1"]
