"""Module boundaries inside the package.

A module of ``src/twinbuild`` keeps its private (underscore) names to
itself: no module imports one from a sibling, and no module reaches into a
private attribute of an object unless a class of that same module assigns
that attribute.  A fact two modules need is given a public name by its owner.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "twinbuild")


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def is_self(node):
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def owned_attributes(tree):
    """Private attributes a class of the module assigns: class-body names
    and ``self.x`` / ``cls.x`` stores in its methods."""
    owned = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for stmt in cls.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [
                getattr(stmt, "target", None)]
            owned.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and is_self(node.value)):
                owned.add(node.attr)
    return owned


def crossings(source):
    """(line, description) for each private name taken from outside."""
    tree = ast.parse(source)
    owned = owned_attributes(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("twinbuild")
        ):
            found += [(node.lineno, f"imports {a.name} from {node.module}")
                      for a in node.names if private(a.name)]
        elif (isinstance(node, ast.Attribute) and private(node.attr)
              and not is_self(node.value) and node.attr not in owned):
            found.append((node.lineno, f"reads {ast.unparse(node)}"))
    return sorted(found)


MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_takes_a_private_name_from_another(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert crossings(fh.read()) == []


def test_crossings_are_found():
    source = (
        "from .panelcalc import _fop_search, beta\n"
        "from twinbuild.chambersys import _helper\n"
        "class A:\n"
        "    _slot = None\n"
        "    def __init__(self):\n"
        "        self._own = 1\n"
        "    def m(self, other):\n"
        "        return other._own, other._slot, self._x, other.__class__\n"
        "def f(g):\n"
        "    return g._psop_cache, g._own\n"
    )
    assert crossings(source) == [
        (1, "imports _fop_search from panelcalc"),
        (2, "imports _helper from twinbuild.chambersys"),
        (10, "reads g._psop_cache"),
    ]
