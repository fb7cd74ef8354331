"""No module in src/sosreg writes into another object's private state: an
attribute whose name starts with `_` is assigned only on `self` or `cls`.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "sosreg"
OWNERS = {"self", "cls"}


def _foreign_private_writes(tree) -> list:
    """(line, attribute) of every assignment, augmented or annotated
    assignment to a `_`-prefixed attribute of an object not named in OWNERS."""
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    written = [t for target in targets for t in ast.walk(target) if isinstance(t, ast.Attribute)
               and isinstance(t.ctx, ast.Store)]
    return [(t.lineno, t.attr) for t in written if t.attr.startswith("_")
            and not (isinstance(t.value, ast.Name) and t.value.id in OWNERS)]


def test_private_attributes_are_written_by_their_owner():
    sample = ast.parse(
        "class H:\n    def __init__(self, h):\n        self._a = 1\n        h._b = 2\n"
        "    @classmethod\n    def make(cls, h):\n        cls._c, h.d._e = 3, 4\n        h._f += 1\n"
        "def f(h):\n    h.g: int = 5\n    h._g: int = 5\n    h.x = h._y\n"
    )
    assert sorted(_foreign_private_writes(sample)) == [(4, "_b"), (7, "_e"), (8, "_f"), (11, "_g")]
    found = [f"{path.name}:{line} {attr}" for path in sorted(LIBRARY.glob("*.py"))
             for line, attr in _foreign_private_writes(ast.parse(path.read_text(), str(path)))]
    assert not found, "private attributes written on another object:\n" + "\n".join(found)
