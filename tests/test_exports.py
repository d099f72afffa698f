"""The public names of the package resolve: each module's ``__all__`` lists
only names the module defines, and every name the package root imports from
a submodule is that submodule's object, listed in its ``__all__`` if it has
one. Every private module-level name is read somewhere in the package."""

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


def _private_definitions(tree: ast.Module):
    """The private names (one leading underscore) that a module's top-level
    statements define: functions, classes and assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        else:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
        for target in filter(None, targets):
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id[:1] == "_" and name.id[:2] != "__":
                    yield name.id


def test_every_private_name_is_read_in_the_package():
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(meterwork.__file__).parent.glob("*.py"))
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    }
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]
    assert unread == []
