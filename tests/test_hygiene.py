"""Source hygiene: no module of the package or of the tests imports a name
at top level that it never uses; every top-level function, class and
constant of the package is named somewhere outside its own definition,
and every row of the CLI's quantity table is read by some product; every
file the package writes goes through one commit step; and importing the
CLI loads nothing but the standard library, numpy and cavcool, and builds
no numpy array.

The source checks read the sources with the standard library's `ast`
module, so they need no linter.  A name counts as used when it appears
anywhere in the module as a bare name, which covers attribute access
(`np.zeros`), calls, decorators and annotations.
"""

import ast
import collections
import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cavcool import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "cavcool").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)
PACKAGE = sorted(p for p in (ROOT / "src" / "cavcool").glob("*.py") if p.name != "__init__.py")
# The package and the benchmark harness: a definition only the tests or the
# package's exports name is code no command or benchmark reaches.
# `bench/reference.py` is left out: it shares no code with cavcool by design,
# so its own local names (`chi2`, `chi3`) would hide unused package functions.
REFERRERS = PACKAGE + sorted(
    path for path in (ROOT / "bench").glob("*.py") if path.name != "reference.py"
)


def unused_imports(source):
    """Names bound by the top-level imports of `source` that no other code reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = "import os, sys\nimport a.b\nfrom x import y as z, w\nsys.exit(w)\n"
    assert unused_imports(source) == ["a", "os", "z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def mentions(node):
    """How often `node` names each name: as a bare name, an attribute, an
    imported name or a string constant (`bench/tracer.py` names the
    functions it wraps as strings)."""
    found = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def definitions(tree):
    """(name, node) of each top-level function, class and assigned name of `tree`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def unreferenced_definitions(defining, referring):
    """`module.name` of each top-level function, class and constant of the
    `defining` sources (module -> source) that no `referring` source names
    outside that definition."""
    named = collections.Counter()
    for source in referring.values():
        named += mentions(ast.parse(source))
    return [
        f"{module}.{name}"
        for module, source in defining.items()
        for name, node in definitions(ast.parse(source))
        if named[name] <= mentions(node)[name]
    ]


def test_checker_finds_unreferenced_definitions():
    module = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Wrapped:\n    pass\n\n"
        "x = used()\n"
    )
    harness = "WRAPPED = ('m', 'Wrapped')\n"
    sources = {"m": module, "bench": harness}
    assert unreferenced_definitions({"m": module}, sources) == ["m.recursive", "m.x"]
    assert unreferenced_definitions({"m": module}, {"m": module}) == [
        "m.recursive", "m.Wrapped", "m.x"
    ]


def test_checker_finds_unreferenced_constants():
    module = (
        "LIMIT = 2.0\n"
        "TABLE = {'a': LIMIT}\n"
        "ORPHAN: tuple = ('a', 'b')\n"
        "LO, HI = 0, 1\n"
        "def f():\n    return TABLE[HI]\n"
    )
    assert unreferenced_definitions({"m": module}, {"m": module, "bench": "m.f()\n"}) == [
        "m.ORPHAN", "m.LO"
    ]


def test_every_definition_is_referenced():
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    referring = {str(path): path.read_text(encoding="utf-8") for path in REFERRERS}
    assert unreferenced_definitions(package, referring) == []


def test_every_quantity_row_is_read():
    """The same rule for the evaluator's tables: every `QUANTITY_TABLE` row
    is read by a product (a sweep quantity, or a point subcommand's source
    for either series), every intermediate by a row, and every condition is
    raised by a row."""
    point = {
        source.replace("*", series)
        for _, sources in cli.POINT_SUBCOMMANDS.values()
        for source in sources
        for series in ("single", "coupled")
    }
    read = set(cli.QUANTITIES) | point
    assert [name for name in cli.QUANTITY_TABLE if name not in read] == []
    rows = cli.QUANTITY_TABLE.values()
    assert set(cli.INTERMEDIATES) == {key for keys, _, _ in rows for key in keys}
    assert set(cli.CONDITIONS) == {condition for _, _, raised in rows for condition in raised}


def writers(module, source):
    """`module.function` and call of each write-mode `open` (or `.open`), each
    `os.replace` or `os.rename`, and each `write_text` or `write_bytes` in
    `source`, by the top-level function or class it sits in (`module` outside one).
    An `open` whose mode is not a string constant counts as a write."""
    found = []
    for node in ast.parse(source).body:
        named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        where = f"{module}.{node.name}" if named else module
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                mode = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
                if not mode or (
                    isinstance(mode[0], ast.Constant) and not set(str(mode[0].value)) & set("wax+")
                ):
                    continue
            elif name in ("replace", "rename"):
                owner = getattr(func, "value", None)
                if not (isinstance(owner, ast.Name) and owner.id == "os"):
                    continue
                name = f"os.{name}"
            elif name not in ("write_text", "write_bytes"):
                continue
            found.append((where, name))
    return sorted(found)


def test_checker_finds_writers():
    source = (
        "import os\n"
        "def reads(p):\n"
        "    open(p); open(p, 'rb'); p.open(mode='r'); p.replace('a', 'b')\n"
        "def writes(p, m):\n"
        "    open(p, 'w'); p.open(mode='ab'); open(p, m); os.replace(p, p)\n"
        "class C:\n"
        "    def save(self, p):\n"
        "        p.write_text('x'); os.rename(p, p)\n"
        "open('log', 'r+')\n"
    )
    assert writers("m", source) == [
        ("m", "open"), ("m.C", "os.rename"), ("m.C", "write_text"),
        ("m.writes", "open"), ("m.writes", "open"), ("m.writes", "open"), ("m.writes", "os.replace"),
    ]


def test_one_writer():
    """Every file cavcool writes goes through `cli._committed`, which holds
    the package's one write-mode `open` and one `os.replace`, so each output
    appears whole or not at all."""
    found = [w for path in PACKAGE for w in writers(path.stem, path.read_text(encoding="utf-8"))]
    assert found == [("cli._committed", "open"), ("cli._committed", "os.replace")]


def test_cli_import_loads_only_stdlib_and_numpy():
    """Every CLI process imports `cavcool.cli` first, so start-up pays for
    each module it loads; the new top-level modules are the standard
    library's, numpy's and cavcool's only."""
    probe = (
        "import sys; before = set(sys.modules); import cavcool.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "cavcool" in loaded
    assert sorted(set(loaded) - set(sys.stdlib_module_names) - {"numpy", "cavcool"}) == []


def arrays_in(value, where):
    """Where `value`, or a dict, list, tuple or dataclass value inside it, is an ndarray."""
    if isinstance(value, np.ndarray):
        return [where]
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = vars(value).items()
    else:
        return []
    return [found for key, item in items for found in arrays_in(item, f"{where}[{key!r}]")]


def test_checker_finds_nested_arrays():
    axis = cli.Axis("kappa", 1.0, 2.0, 3, "lin")
    value = {"a": (1.0, np.zeros(2)), "b": [axis, dataclasses.replace(axis, lo=np.ones(1))]}
    assert arrays_in(value, "v") == ["v['a'][1]", "v['b'][1]['lo']"]


def test_cli_import_builds_no_array():
    """Every CLI process and benchmark worker imports `cavcool.cli`, so its
    values, the figure registry's entries among them, hold no numpy array:
    a figure's grids are made only when that figure runs."""
    values = {name: value for name, value in vars(cli).items() if not name.startswith("__")}
    assert arrays_in(values, "cli") == []
