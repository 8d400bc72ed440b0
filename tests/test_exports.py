"""Every exported name resolves: a deletion that leaves a stale entry in an
`__all__` list or in the package's imports fails here, by name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fvlayer

MODULES = sorted(info.name for info in pkgutil.iter_modules(fvlayer.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"fvlayer.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(fvlayer.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if not hasattr(importlib.import_module(f"fvlayer.{node.module}"), alias.name)
    ]
    assert missing == []
