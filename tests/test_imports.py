"""Every module of the package and of the tests uses each name it imports,
and the package defines, binds or sets nothing that only the tests name or
read."""

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


def names_read(source: str, variables: bool = True) -> set[str]:
    """Every name `source` reads: a variable (unless `variables` is false),
    an attribute, or a string, which covers getattr, tracing by name and
    `__all__`. Binding a name is no read of it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if variables and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def unread_module_names(source: str, used: set[str]) -> list[str]:
    """The names that module-level assignments of `source` bind and that are
    not in `used`; Python itself reads dunder names such as `__all__`."""
    unread = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                        and name.id not in used
                        and not (name.id.startswith("__") and name.id.endswith("__"))):
                    unread.append(name.id)
    return unread


def names_the_program_reads(variables: bool = True) -> set[str]:
    return set().union(*(names_read(path.read_text(), variables)
                         for path in [*PACKAGE, *BENCHMARKS]))


def test_package_defines_nothing_only_tests_name():
    used = names_the_program_reads()
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


def test_package_module_level_names_are_read():
    used = names_the_program_reads()
    unread = [f"{path.stem}.{name}" for path in PACKAGE
              for name in unread_module_names(path.read_text(), used)]
    assert not unread, f"read only by tests, or by nothing: {', '.join(unread)}"


@pytest.mark.parametrize("source, unread", [
    ("X = 1\n", ["X"]),
    ("X = 1\nprint(X)\n", []),
    ("import m\nm.X = 1\nX = 2\n", ["X"]),
    ("a, (b, c) = 1, (2, 3)\nb\n", ["a", "c"]),
    ("X: int = 1\n", ["X"]),
    ("X = {}\nX['k'] = 1\n", []),
    ("X = 1\ndef f():\n    Y = X\n", []),
    ("def f():\n    Y = 1\n", []),
    ("X = 1\ngetattr(m, 'X')\n", []),
    ("__all__ = []\n__version__ = '1'\n", []),
    ("X = [0 for _ in 'ab']\nX\n", []),
], ids=["unread", "read", "attribute-store", "tuple", "annotated", "subscript-store",
        "read-in-function", "function-local", "by-string", "dunder", "comprehension"])
def test_unread_module_names_finds_what_it_should(source, unread):
    assert unread_module_names(source, names_read(source)) == unread


def unread_attributes(source: str, used: set[str]) -> list[str]:
    """The names that `self.<name> = ...` assignments of `source` set and
    that are not in `used`, in source order; Python itself reads dunder
    names. A variable of the same name is no read of the attribute, so
    `used` holds the attributes and strings a program reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            for attr in ast.walk(target):
                if (isinstance(attr, ast.Attribute) and isinstance(attr.ctx, ast.Store)
                        and isinstance(attr.value, ast.Name) and attr.value.id == "self"
                        and attr.attr not in used
                        and not (attr.attr.startswith("__") and attr.attr.endswith("__"))):
                    unread.append(attr.attr)
    return unread


def test_package_attributes_are_read():
    used = names_the_program_reads(variables=False)
    unread = [f"{path.stem}: self.{name}" for path in PACKAGE
              for name in unread_attributes(path.read_text(), used)]
    assert not unread, f"set but read only by tests, or by nothing: {', '.join(unread)}"


METHOD = "class A:\n    def __init__(self, o):\n        "


@pytest.mark.parametrize("source, unread", [
    (METHOD + "self.x = 1\n", ["x"]),
    (METHOD + "self.x = 1\n    def f(self):\n        return self.x\n", []),
    (METHOD + "self.x = 1\ngetattr(A(0), 'x')\n", []),
    (METHOD + "self.a, (self.b, self.c) = 1, (2, 3)\n        self.b\n", ["a", "c"]),
    (METHOD + "self.x: int = 1\n", ["x"]),
    (METHOD + "o.x = 1\n", []),
    (METHOD + "self.d = {}\n        self.d['k'] = 1\n", []),
    (METHOD + "self.o = o\n", ["o"]),
    (METHOD + "self.__doc__ = ''\n", []),
], ids=["unread", "read", "by-string", "tuple", "annotated", "other-object",
        "subscript-store", "variable", "dunder"])
def test_unread_attributes_finds_what_it_should(source, unread):
    assert unread_attributes(source, names_read(source, variables=False)) == unread
