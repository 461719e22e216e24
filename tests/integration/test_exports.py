"""Every name a package exports must exist (no stale ``__all__`` entry),
and every error the vocabulary defines must have a user."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro import errors

SRC = Path(repro.__file__).parent


def _modules_with_all() -> list[str]:
    """Dotted names of every ``repro`` module that declares ``__all__``."""
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")  # importing it runs the CLI
    ]
    return [
        name for name in names
        if hasattr(importlib.import_module(name), "__all__")
    ]


@pytest.mark.parametrize("package", _modules_with_all())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _class_names(node: ast.expr | None) -> set[str]:
    """The class names of a ``raise`` operand or an ``except`` clause."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*(_class_names(item) for item in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def test_every_leaf_error_is_raised_or_caught():
    classes = [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
    ]
    leaves = {
        cls.__name__
        for cls in classes
        if not any(other is not cls and issubclass(other, cls) for other in classes)
    }
    used: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path == Path(errors.__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                used |= _class_names(node.exc)
            elif isinstance(node, ast.ExceptHandler):
                used |= _class_names(node.type)
    assert sorted(leaves - used) == []
