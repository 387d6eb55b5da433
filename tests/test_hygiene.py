"""Source hygiene: no module of the package or of the tests imports a name
at top level that it never uses; every top-level function, class and
constant of the package is named somewhere outside its own definition;
and importing the CLI loads nothing but the standard library, numpy and
cavcool, and builds no numpy array.

The first two checks read the sources with the standard library's `ast`
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
