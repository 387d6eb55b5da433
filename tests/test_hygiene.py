"""Source hygiene: no module of the package or of the tests imports a name
at top level that it never uses.

The check reads the sources with the standard library's `ast` module, so it
needs no linter.  A name counts as used when it appears anywhere in the
module as a bare name, which covers attribute access (`np.zeros`), calls,
decorators and annotations.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "cavcool").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
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
