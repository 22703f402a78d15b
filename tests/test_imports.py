"""Every name a module of `src/qbipoly` imports is used in that module.

No linter is part of the toolchain, so this stdlib `ast` pass stands in for
one: an import that outlives its last use (a class moved into the tests, a
route folded into another) fails here instead of lingering.
"""

import ast
import pathlib

import pytest

import qbipoly

SRC = pathlib.Path(qbipoly.__file__).parent

#: (module, name) imports kept with no use in the module: the benchmark's
#: tests read suites.rodrigues_poly as an attribute of the suites module
ALLOWED = {("suites.py", "rodrigues_poly")}

#: the package's __init__ imports only to export
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements anywhere in the source and never
    read as a name (an attribute's base is one)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    unused = unused_imports((SRC / module).read_text(encoding="utf-8"))
    assert [n for n in unused if (module, n) not in ALLOWED] == []


def test_guard_sees_an_unused_import():
    assert unused_imports("from .bipoly import BiPoly, RationalFn\nBiPoly()\n") == ["RationalFn"]
    assert unused_imports("import os.path\nimport json as j\nj.dumps(1)\n") == ["os"]
    # a future statement binds its feature name, so one in src fails the guard
    assert unused_imports("from __future__ import annotations\n") == ["annotations"]


def test_allowed_imports_are_still_unused():
    # an allowance outlives its reason once the module uses the name
    for module, name in ALLOWED:
        assert name in unused_imports((SRC / module).read_text(encoding="utf-8"))
