"""Export lists stay in step with the modules: every name a module lists in
`__all__` exists there, and every name the package imports from a
submodule is in that submodule's `__all__`."""

import ast
import importlib
from pathlib import Path

import pytest

import dyadicproj

PACKAGE = Path(dyadicproj.__file__)
# the Python modules: the compiled kernel library is no module, and
# importing __main__ runs the command line
MODULES = sorted(p.stem for p in PACKAGE.parent.glob("*.py") if p.stem not in ("__init__", "__main__"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"dyadicproj.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse(PACKAGE.read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"dyadicproj.{node.module}")
        unlisted = [a.name for a in node.names if a.name not in module.__all__]
        assert unlisted == [], node.module
