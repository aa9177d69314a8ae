"""Every public name the package exports has a caller outside the tests.

A name exported by `biofuse` or `biofuse.tnn` must be referenced by some
module of the package other than the `__init__` files, or by the benchmark
harness.  References are read off the syntax tree (names, attribute names
and `from ... import` names), so a docstring that mentions a name does not
count as a caller.
"""

import ast
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
