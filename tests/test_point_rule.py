"""`geometry.as_points` is the library's only rule for reading a batch of
points: no module in src/sosreg uses `np.atleast_2d`, and none defines or
reads a `_points` reader of its own.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "sosreg"
OTHER_RULES = {"atleast_2d", "_points"}


def _other_rules(tree) -> list:
    """(line, name) of every name, attribute, import or function in a module
    spelled as one of OTHER_RULES."""
    spelled = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.FunctionDef: "name"}
    return [(node.lineno, getattr(node, spelled[type(node)])) for node in ast.walk(tree)
            if type(node) in spelled and getattr(node, spelled[type(node)]) in OTHER_RULES]


def test_as_points_is_the_only_point_rule():
    sample = ast.parse(
        "import numpy as np\nfrom numpy import atleast_2d\n"
        "class H:\n    def _points(self, X):\n        return np.atleast_2d(X)\n"
        "def f(h, X):\n    return h._points(as_points(X, 2))\n"
    )
    assert sorted(_other_rules(sample)) == [(2, "atleast_2d"), (4, "_points"), (5, "atleast_2d"), (7, "_points")]
    found = [f"{path.name}:{line} {name}" for path in sorted(LIBRARY.glob("*.py"))
             for line, name in _other_rules(ast.parse(path.read_text(), str(path)))]
    assert not found, "point readers besides geometry.as_points:\n" + "\n".join(found)
