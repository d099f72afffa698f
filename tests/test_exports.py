"""The public names of the package resolve: each module's ``__all__`` lists
only names the module defines, and every name the package root imports from
a submodule is that submodule's object, listed in its ``__all__`` if it has
one."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import meterwork

MODULES = sorted(info.name for info in pkgutil.iter_modules(meterwork.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"meterwork.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(meterwork.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module(f"meterwork.{node.module}")
        for alias in node.names:
            public = alias.asname or alias.name
            assert getattr(meterwork, public) is getattr(module, alias.name)
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"
