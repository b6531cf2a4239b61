"""Module boundaries inside the package.

A module of ``src/twinbuild`` keeps its private (underscore) names to
itself: no module imports one from a sibling, and no module reaches into a
private attribute of an object unless a class of that same module assigns
that attribute.  A fact two modules need is given a public name by its owner.

A derived table is built with its owner: no module uses
``functools.cached_property``, and no method but ``__init__`` and
``__post_init__`` stores a ``self`` attribute its class does not declare in
its body or set in those two.  On CPython 3.11 a key added to an instance
``__dict__`` after construction slows every attribute read on the instance.

Every public function, class and method of the package is reached from
outside its own definition: from another module, from its own module, or
from the benchmark under ``perfbench/``; a same-spelled name of another
library (``itertools.product``) does not count.  A name only tests call is
a second API to keep in step with the pipeline, unless it is one of the
paper's lemmas, listed with the acceptance criterion that specifies it, or
awaits a caller.

Likewise every defaulted parameter of a public function, method or class
is set by some call in the package or the benchmark to something other
than its literal default: a value only tests choose is a module constant
they monkeypatch.

Every dataclass field is read, by the package, the acceptance tests or the
benchmark, and no dataclass stores a field named ``ok``: a report's verdict
is a property derived from the evidence it carries.

The construction does not join the hypotheses: only ``cli`` imports
``homotopy``, the checker of (lco) and (lsco), and importing the twin
construction (``twinner``, ``panelcalc``) does not load it.
"""

import ast
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "twinbuild")


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def is_self(node):
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def body_names(cls):
    """Names a class body assigns: class attributes and dataclass fields."""
    names = set()
    for stmt in cls.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            getattr(stmt, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def owned_attributes(tree):
    """Private attributes a class of the module assigns: class-body names
    and ``self.x`` / ``cls.x`` stores in its methods."""
    owned = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        owned |= body_names(cls)
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


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def package_sources(root):
    """{module: source} of the package under ``root``."""
    folder = os.path.join(root, "src", "twinbuild")
    return {m: read(os.path.join(folder, m))
            for m in sorted(os.listdir(folder)) if m.endswith(".py")}


def bench_sources(root):
    """The sources of the benchmark's Python files under ``root``."""
    return [read(os.path.join(folder, name))
            for folder, _, files in sorted(os.walk(os.path.join(root, "perfbench")))
            for name in sorted(files) if name.endswith(".py")]


def write_tree(root, files):
    """Write ``files`` ({relative path: text}) under ``root``."""
    for path, text in files.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)


# A package, a benchmark and an acceptance test that names everything: the
# guards below read the first two only.
TEST_ONLY = {
    "src/twinbuild/a.py": (
        "def traced():\n"
        "    pass\n"
        "def lemma():\n"
        "    pass\n"
        "def g(a=1, b=2):\n"
        "    pass\n"
    ),
    "perfbench/spans.py": "TARGETS = ['a.traced']\ng(b=3)\n",
    "tests/test_acceptance.py": "from twinbuild.a import g, lemma, traced\nlemma(), g(a=0)\n",
}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_takes_a_private_name_from_another(module):
    assert crossings(read(os.path.join(SRC, module))) == []


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


# -- attributes added after construction -------------------------------------


CONSTRUCTORS = ("__init__", "__post_init__")


def self_stores(node):
    return {n.attr: n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"}


def late_attributes(source):
    """(line, description) for each use of ``cached_property`` and each
    ``self.x`` store, in a method other than a constructor, of an x that the
    class body, dataclass fields and constructors do not set."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"imports {a.name}")
                      for a in node.names if a.name == "cached_property"]
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            found.append((node.lineno, f"uses {ast.unparse(node)}"))
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        declared = body_names(cls)
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name in CONSTRUCTORS:
                declared.update(self_stores(stmt))
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name not in CONSTRUCTORS:
                found += [(line, f"{cls.name}.{stmt.name} adds self.{attr}")
                          for attr, line in self_stores(stmt).items()
                          if attr not in declared]
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_no_attribute_is_added_after_construction(module):
    assert late_attributes(read(os.path.join(SRC, module))) == []


def test_late_attributes_are_found():
    source = (
        "from functools import cached_property, partial\n"
        "import functools\n"
        "class A:\n"
        "    slot = None\n"
        "    size: int\n"
        "    def __init__(self):\n"
        "        self.own = 1\n"
        "    def __post_init__(self):\n"
        "        self.rows = []\n"
        "    def m(self, other):\n"
        "        self.own = self.slot = self.size = other.late = 2\n"
        "        self.rows.append(1)\n"
        "        self.late = 3\n"
        "    @functools.cached_property\n"
        "    def n(self):\n"
        "        return 4\n"
    )
    assert late_attributes(source) == [
        (1, "imports cached_property"),
        (13, "A.m adds self.late"),
        (14, "uses functools.cached_property"),
    ]


# -- unreached public names ---------------------------------------------------


def foreign(node, alias):
    """Whether an import alias takes its name from outside ``twinbuild``."""
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and not (node.module or "").startswith("twinbuild")
    return not alias.name.startswith("twinbuild")


def foreign_names(tree):
    """The names a tree binds by importing from outside ``twinbuild``."""
    return {(a.asname or a.name).partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names if foreign(node, a)}


def root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def named(tree, strings=False, skip=None):
    """The names a tree mentions: Name ids, names imported from
    ``twinbuild``, and Attribute attrs, these also as ``.attr``; with
    ``strings``, every word of a string constant both ways.  A name imported
    from elsewhere mentions nothing of the package, and neither does an
    attribute chain that starts at one (``itertools.product``).  Nodes
    inside ``skip`` do not count."""
    hidden = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    outside = foreign_names(tree)
    found = set()
    for node in ast.walk(tree):
        if id(node) in hidden:
            continue
        if isinstance(node, ast.Name):
            if node.id not in outside:
                found.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = root(node)
            if not (isinstance(base, ast.Name) and base.id in outside):
                found.update((node.attr, "." + node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.rpartition(".")[2] for a in node.names
                         if not foreign(node, a))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in re.findall(r"\w+", node.value):
                found.update((word, "." + word))
    return found


def definitions(tree):
    """(qualified name, node) of each public top-level function and class
    and of each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    yield f"{node.name}.{m.name}", m


def unreached(sources, external):
    """(module, qualified name) of each public definition in ``sources``
    ({module: source}) that neither another module, nor its own module
    outside the definition, nor the set ``external`` names.  A method is
    named only as an attribute: a bare name of the same spelling is some
    other variable."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    mentions = {m: named(tree) for m, tree in trees.items()}
    found = []
    for m, tree in trees.items():
        others = set().union(*(v for k, v in mentions.items() if k != m))
        for qualname, node in definitions(tree):
            _, dot, name = qualname.rpartition(".")
            key = dot + name
            if name.startswith("_") or key in others or key in external:
                continue
            if key not in named(tree, skip=node):
                found.append((m, qualname))
    return found


def bench_names(root):
    """Every name the benchmark under ``root`` mentions: its tracer names
    its targets by string."""
    return set().union(*(named(ast.parse(src), strings=True) for src in bench_sources(root)))


# Public names whose caller is still to come; an entry goes when it lands.
# ``catalog.product``: only unit tests build product buildings until the
# command line's ``gen product`` (ROADMAP item 12) calls it.
AWAITING_CALLER = [("catalog.py", "product")]

# The paper's lemmas that no step of the pipeline calls, each with the
# acceptance criterion that specifies it.
LEMMAS = [
    ("codistance.py", "residue_profile", "AC3"),
    ("homotopy.py", "residual_filtration", "AC5"),
    ("panelcalc.py", "delta_panels", "AC6"),
    ("panelcalc.py", "is_compatible_path", "AC6"),
    ("panelcalc.py", "all_compatible_paths", "AC6"),
    ("panelcalc.py", "l_c", "AC6"),
    ("panelcalc.py", "PanelBijection.compose", "AC6"),
    ("panelcalc.py", "PanelBijection.is_identity", "AC6"),
    ("coxeter.py", "WeylTable.X_s", "AC6"),
    ("coxeter.py", "WeylTable.prec", "AC6"),
    ("coxeter.py", "WeylTable.max_coset_rep", "AC1"),
    ("coxeter.py", "CoxeterMatrix.submatrix", "AC1"),
]


def test_every_public_name_is_reached():
    found = unreached(package_sources(ROOT), bench_names(ROOT))
    assert sorted(found) == sorted(AWAITING_CALLER + [(m, name) for m, name, _ in LEMMAS])


def test_every_lemma_is_an_acceptance_criterion():
    # each lemma name is called in the section of tests/test_acceptance.py
    # that its criterion heads, "# -- ACn: ..."
    text = read(os.path.join(ROOT, "tests", "test_acceptance.py"))
    sections = dict(re.findall(r"^# -- (AC\d+):.*\n((?:(?!# -- AC).*\n)*)", text, re.M))
    for _, qualname, ac in LEMMAS:
        name = qualname.rpartition(".")[2]
        assert re.search(rf"\b{name}\(", sections[ac]), (qualname, ac)


def test_unreached_names_are_found(tmp_path):
    sources = {
        "a.py": (
            "def used():\n"
            "    return spare\n"
            "def spare():\n"
            "    return spare()\n"
            "def lonely():\n"
            "    return lonely()\n"
            "class K:\n"
            "    def m(self):\n"
            "        return self.k\n"
            "    def k(self):\n"
            "        pass\n"
            "    def n(self):\n"
            "        return n\n"
            "    def _p(self):\n"
            "        pass\n"
            "    def __len__(self):\n"
            "        return 0\n"
        ),
        "b.py": (
            "from .a import used\n"
            "from os import lonely\n"
            "import itertools as it\n"
            "used().m\n"
            "n = 1\n"
            "it.chain.lonely, lonely\n"
        ),
    }
    assert unreached(sources, {"K"}) == [("a.py", "lonely"), ("a.py", "K.n")]
    # a name the benchmark mentions, if only as a string, is reached; one
    # only the acceptance tests call is not
    write_tree(tmp_path, TEST_ONLY)
    assert unreached(package_sources(tmp_path), bench_names(tmp_path)) == [("a.py", "lemma")]


# -- defaults no caller sets --------------------------------------------------


def is_dataclass(cls):
    return any(ast.unparse(d).partition("(")[0] == "dataclass" for d in cls.decorator_list)


def init_fields(cls):
    """(name, default node or None) of each ``__init__`` parameter a
    dataclass body declares: annotated names, less ``ClassVar`` and
    ``field(init=False)``; a ``default_factory`` is its default node."""
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
            keys = {k.arg: k.value for k in value.keywords}
            if "init" in keys and ast.literal_eval(keys["init"]) is False:
                continue
            yield stmt.target.id, keys.get("default", keys.get("default_factory"))
        else:
            yield stmt.target.id, value


def parameters(fn, method):
    """(name, default node or None, positional index or None) of each
    parameter of a function; a method's index does not count ``self``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = 1 if method else 0
    for i, a in enumerate(positional[skip:], skip):
        yield a.arg, args.defaults[i - first] if i >= first else None, i - skip
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        yield a.arg, d, None


def defaulted(tree):
    """(callee name, qualified name, parameter, positional index or None,
    default node) of each defaulted parameter of a public function or
    method; a class's ``__init__``, written or a dataclass's, is called by
    the class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for name, default, index in parameters(node, False):
                if default is not None:
                    yield node.name, node.name, name, index, default
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if is_dataclass(node):
            for index, (name, default) in enumerate(init_fields(node)):
                if default is not None:
                    yield node.name, node.name, name, index, default
        for m in node.body:
            if not isinstance(m, ast.FunctionDef) or private(m.name):
                continue
            callee = node.name if m.name == "__init__" else m.name
            for name, default, index in parameters(m, True):
                if default is not None:
                    yield callee, f"{node.name}.{m.name}", name, index, default


def same_literal(node, default):
    """Whether both nodes are literals of the same type and value."""
    try:
        a, b = ast.literal_eval(node), ast.literal_eval(default)
    except ValueError:
        return False
    return type(a) is type(b) and a == b


def unset_defaults(sources, callers):
    """(module, qualified name, parameter) of each defaulted parameter in
    ``sources`` ({module: source}) that no call in ``callers`` (a list of
    sources) sets: by keyword, by a positional argument at its index, or by
    ``*`` at or before that index or ``**``.  Passing a literal equal to a
    literal default sets nothing.  A call is matched to a definition by its
    bare name, so a call of a same-named function counts as well."""
    calls: dict[str, list] = {}
    for tree in map(ast.parse, callers):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)

    def sets(call, name, index, default):
        if any(k.arg is None for k in call.keywords):
            return True
        if index is not None and any(isinstance(a, ast.Starred) for a in call.args[:index + 1]):
            return True
        passed = [k.value for k in call.keywords if k.arg == name]
        if index is not None and index < len(call.args):
            passed.append(call.args[index])
        return any(not same_literal(a, default) for a in passed)

    return [(m, qualname, name)
            for m, src in sources.items()
            for callee, qualname, name, index, default in defaulted(ast.parse(src))
            if not any(sets(call, name, index, default) for call in calls.get(callee, ()))]


def caller_sources(root):
    """The sources whose calls set a default: the package's and the benchmark's."""
    return [*package_sources(root).values(), *bench_sources(root)]


def test_every_default_is_set_by_a_caller():
    assert unset_defaults(package_sources(ROOT), caller_sources(ROOT)) == []


def test_unset_defaults_are_found(tmp_path):
    source = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    pass\n"
        "def g(a=1, b=2):\n"
        "    pass\n"
        "def h(a=1):\n"
        "    pass\n"
        "def t(a=True, b=None):\n"
        "    pass\n"
        "def _p(a=1):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, a=1, b=2):\n"
        "        pass\n"
        "    def m(self, a=1, b=2):\n"
        "        pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    w: int = field(init=False, default=0)\n"
        "    v: ClassVar[int] = 5\n"
    )
    calls = (
        "f(0, 1, d=2)\n"
        "g(*args)\n"
        "h(**kw)\n"
        "t(True, b=2)\n"
        "t(a=True)\n"
        "K(0)\n"
        "obj.m(b=1)\n"
        "D(1, 2)\n"
    )
    assert unset_defaults({"a.py": source}, [source, calls]) == [
        ("a.py", "f", "b"),
        ("a.py", "f", "c"),
        ("a.py", "f", "e"),
        ("a.py", "t", "a"),
        ("a.py", "K.__init__", "b"),
        ("a.py", "K.m", "a"),
        ("a.py", "D", "z"),
    ]
    # the benchmark's call sets b; the acceptance test's sets nothing
    write_tree(tmp_path, TEST_ONLY)
    found = unset_defaults(package_sources(tmp_path), caller_sources(tmp_path))
    assert found == [("a.py", "g", "a")]


# -- fields nothing reads -----------------------------------------------------


def dataclass_fields(tree):
    """(class name, field name) of each dataclass field a tree declares, in
    order, less ``ClassVar``s."""
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if not is_dataclass(cls):
            continue
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)):
                yield cls.name, stmt.target.id


def attribute_reads(tree):
    """The attribute names a tree loads; a store or a string is no read."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_fields(sources, readers):
    """(module, qualified name) of each dataclass field in ``sources``
    ({module: source}) that no attribute load in ``readers`` (a list of
    sources) names, and of each field named ``ok``: a report's verdict is a
    property derived from its evidence, never a second stored copy."""
    reads = set().union(*(attribute_reads(ast.parse(src)) for src in readers))
    return [(m, f"{cls}.{name}")
            for m, src in sources.items()
            for cls, name in dataclass_fields(ast.parse(src))
            if name == "ok" or name not in reads]


def test_every_field_is_read():
    readers = caller_sources(ROOT) + [read(os.path.join(ROOT, "tests", "test_acceptance.py"))]
    assert unread_fields(package_sources(ROOT), readers) == []


def test_unread_fields_are_found():
    source = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class R:\n"
        "    ok: bool\n"
        "    kept: int\n"
        "    spare: int\n"
        "    late: list = field(init=False)\n"
        "    origin: ClassVar[int] = 0\n"
        "class Plain:\n"
        "    loose: int\n"
        "def use(r):\n"
        "    r.late = []\n"
        "    return r.kept, r.ok, 'r.spare'\n"
    )
    assert unread_fields({"a.py": source}, [source, "x.spare_part\n"]) == [
        ("a.py", "R.ok"),
        ("a.py", "R.spare"),
        ("a.py", "R.late"),
    ]


# -- who imports the hypothesis checker ---------------------------------------


def package_imports(tree):
    """The package modules a tree imports, relatively or by their
    ``twinbuild.`` name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (("twinbuild." if node.level else "") + (node.module or "")).rstrip(".")
            dotted = ([f"{module}.{a.name}" for a in node.names] if module == "twinbuild"
                      else [module])
        else:
            continue
        yield from (d.split(".")[1] for d in dotted if d.startswith("twinbuild."))


def importers(sources, target):
    """The modules of ``sources`` ({module: source}) that import ``target``."""
    return {m for m, src in sources.items() if target in package_imports(ast.parse(src))}


def test_only_the_cli_imports_the_hypothesis_checker():
    assert importers(package_sources(ROOT), "homotopy") == {"cli.py"}


def test_importers_are_found():
    sources = {
        "a.py": "from .homotopy import check_lco\n",
        "b.py": "from . import codistance, homotopy\n",
        "c.py": "import twinbuild.homotopy as h\n",
        "d.py": "from twinbuild.homotopy import connected\n",
        "e.py": "from twinbuild import homotopy\n",
        "f.py": "from .chambersys import opposite_set\nimport homotopy\n",
        "g.py": "from twinbuild import chambersys\nhomotopy = 1\n",
    }
    assert importers(sources, "homotopy") == {"a.py", "b.py", "c.py", "d.py", "e.py"}


def test_the_construction_does_not_load_the_hypothesis_checker():
    code = (
        "import sys\n"
        "import twinbuild.twinner, twinbuild.panelcalc\n"
        "assert 'twinbuild.homotopy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
