"""Every module of the package and of the tests uses each name it imports,
and the package defines nothing that only the tests name."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "wogma").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names `source` imports but never reads; a name listed in a
    module-level `__all__` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain `a.b.c` starts with the Name `a`
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"imported and never used: {', '.join(unused)}"


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c (line 1)"]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
], ids=["unused", "dotted", "alias", "all", "future", "annotation"])
def test_unused_imports_finds_what_it_should(source, unused):
    assert unused_imports(source) == unused


def names_read(source: str) -> set[str]:
    """Every name `source` reads: a variable, an attribute, or a string,
    which covers getattr, tracing by name and `__all__`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unnamed_definitions(source: str, used: set[str]) -> list[str]:
    """The top-level functions and classes of `source` and the methods of
    its classes whose name is not in `used`; Python itself calls dunder
    methods."""
    unnamed = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used:
            unnamed.append(node.name)
        if isinstance(node, ast.ClassDef):
            unnamed += [f"{node.name}.{sub.name}" for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and sub.name not in used
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    return unnamed


def overrides(module_name: str, qualname: str) -> bool:
    """Whether `qualname` is a method that overrides one of a base class,
    which calls it by its name."""
    class_name, _, method = qualname.partition(".")
    if not method:
        return False
    cls = getattr(importlib.import_module(module_name), class_name)
    return any(method in vars(base) for base in cls.__mro__[1:])


def test_package_defines_nothing_only_tests_name():
    used = set().union(*(names_read(path.read_text()) for path in [*PACKAGE, *BENCHMARKS]))
    unnamed = [f"{path.name}: {qualname}" for path in PACKAGE
               for qualname in unnamed_definitions(path.read_text(), used)
               if not overrides(f"wogma.{path.stem}", qualname)]
    assert not unnamed, f"named only by tests, or by nothing: {', '.join(unnamed)}"


@pytest.mark.parametrize("source, unnamed", [
    ("def f(): pass\n", ["f"]),
    ("def f(): pass\nf()\n", []),
    ("class A:\n    def m(self): pass\n    def __init__(self): pass\nA()\n", ["A.m"]),
    ("class A:\n    def m(self): pass\ngetattr(A(), 'm')\n", []),
    ("def f(): pass\n__all__ = ['f']\n", []),
], ids=["unnamed", "called", "method", "by-string", "all"])
def test_unnamed_definitions_finds_what_it_should(source, unnamed):
    assert unnamed_definitions(source, names_read(source)) == unnamed
