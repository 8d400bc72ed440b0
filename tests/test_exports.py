"""Every exported name resolves: a deletion that leaves a stale entry in an
`__all__` list or in the package's imports fails here, by name. And every
module reads what it imports."""

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


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(Path(fvlayer.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = set(getattr(importlib.import_module(f"fvlayer.{path.stem}"),
                               "__all__", []))
        unused += [f"{path.name}: {name}" for name in bound
                   if name not in read and name not in exported]
    assert unused == []
