"""Every defaulted parameter of a function or method in src/sosreg is set at
some call site in src/, perfbench/, tests/ or demos/: a parameter that no
caller passes is a constant, and is written as one.

Call sites are matched by the callee's name (`f(...)`, `obj.f(...)`), so a
call of any same-named function counts.  A class's `__init__` is called
through the class name, and a method takes its first positional argument
after `self`.  A call that splats `*args` sets every position from the
splat on, and one that splats `**kwargs` sets every keyword.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "sosreg"
CALLERS = [ROOT / d for d in ("src", "perfbench", "tests", "demos")]


def _trees(dirs) -> list:
    return [(path, ast.parse(path.read_text(), str(path))) for d in dirs for path in sorted(d.rglob("*.py"))]


def _defaulted(tree) -> list:
    """(callee names, parameter, positional index at a call or None, line)
    of every defaulted parameter of the functions and methods in a module."""
    out = []

    def visit(node, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
            bound = int(cls is not None and not static)
            names = {child.name} | ({cls} if cls and child.name == "__init__" else set())
            a = child.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            out.extend((names, arg.arg, i - bound, child.lineno) for i, arg in enumerate(positional) if i >= first)
            out.extend((names, arg.arg, None, child.lineno)
                       for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)
            visit(child, None)

    visit(tree, None)
    return out


def _calls(trees) -> dict:
    """Callee name -> (positional count, keywords) of each call; the count
    is infinite with a `*` splat and the keywords None with a `**` splat."""
    out: dict = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                count = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                keywords = {kw.arg for kw in node.keywords}
                out.setdefault(name, []).append((count, None if None in keywords else keywords))
    return out


def _set_at(sites, param: str, index) -> bool:
    """Whether one of the calls passes the parameter."""
    return any(keywords is None or param in keywords or (index is not None and count > index)
               for count, keywords in sites)


def test_every_defaulted_parameter_is_set_somewhere():
    calls = _calls(_trees(CALLERS))
    never = [f"{path.relative_to(ROOT)}:{line} {min(names)}({param})"
             for path, tree in _trees([LIBRARY]) for names, param, index, line in _defaulted(tree)
             if not _set_at([site for name in names for site in calls.get(name, [])], param, index)]
    assert not never, "defaulted parameters no call site sets:\n" + "\n".join(never)


def test_a_parameter_no_call_sets_is_found():
    tree = ast.parse("class C:\n    def __init__(self, a, b=1):\n        pass\n\ndef f(x, y=2, *, z=3):\n    pass\n")
    calls = _calls([(None, ast.parse("C(0, 5)\nf(1, z=4)\n"))])
    found = {param: _set_at([site for name in names for site in calls.get(name, [])], param, index)
             for names, param, index, _ in _defaulted(tree)}
    assert found == {"b": True, "y": False, "z": True}
