"""Every public name the package exports has a caller outside the tests.

A name exported by `biofuse` or `biofuse.tnn` must be referenced by some
module of the package other than the `__init__` files, or by the benchmark
harness; so must each public method or property that an exported class
defines.  References are read off the syntax tree (names, attribute names
and `from ... import` names), so a docstring that mentions a name does not
count as a caller.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biofuse"
INITS = (PACKAGE / "__init__.py", PACKAGE / "tnn" / "__init__.py")


def _exports(init: Path) -> list[str]:
    """The public names an `__init__` file imports from its submodules."""
    tree = ast.parse(init.read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def _references() -> set[str]:
    sources = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "bench").rglob("*.py")
    names: set[str] = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("init", INITS, ids=lambda p: p.parent.name)
def test_every_export_has_a_caller_outside_the_tests(init):
    referenced = _references()
    unused = [name for name in _exports(init) if name not in referenced]
    assert not unused, f"{init.relative_to(ROOT)} exports names only tests call: {unused}"


def _public_members(init: Path) -> list[str]:
    """`Class.member` for each public method or property defined (not
    inherited) by a class that an `__init__` file exports."""
    module = importlib.import_module(".".join(init.parent.relative_to(ROOT / "src").parts))
    members = []
    for name in _exports(init):
        cls = getattr(module, name)
        if not inspect.isclass(cls):
            continue
        members += [
            f"{name}.{attr}"
            for attr, value in vars(cls).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value)
                 or isinstance(value, (property, classmethod, staticmethod)))
        ]
    return members


@pytest.mark.parametrize("init", INITS, ids=lambda p: p.parent.name)
def test_every_public_method_of_an_exported_class_has_a_caller(init):
    referenced = _references()
    members = _public_members(init)
    assert members, "no public methods found; the scan is broken"
    unused = [m for m in members if m.split(".")[1] not in referenced]
    assert not unused, f"{init.relative_to(ROOT)}: methods only tests call: {unused}"
