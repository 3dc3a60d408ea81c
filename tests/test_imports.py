"""Every name a platlab module imports is read through that import, and no
module reads another object's private state.

A read counts only where it resolves to the import's binding, so a local of
the same name shadows it.  A name listed in the module's ``__all__`` counts
as read (it is re-exported), and so does one imported on a line marked
``# noqa: F401``.  Only the standard library is used (``symtable`` resolves
each read to its scope), so the guard runs wherever the tests do.

A private attribute (a leading underscore, not a dunder) is read only
through ``self``, ``cls`` or a name an import binds, such as a module's
``sp._check_p3``; storing one on another object is not a read.
"""

import ast
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "platlab"


def _reads(table, enclosing=()):
    """(id of the binding scope, name) for each name read in ``table`` or
    in a scope nested in it."""
    for sym in table.get_symbols():
        if not sym.is_referenced():
            continue
        name = sym.get_name()
        if name == "__class__":
            continue  # the implicit cell of super(), bound by no statement
        if sym.is_free():
            # a closure reads the nearest enclosing function binding it
            owner = next(t for t in reversed(enclosing)
                         if t.get_type() == "function"
                         and name in t.get_identifiers()
                         and t.lookup(name).is_local())
        elif sym.is_global():
            owner = enclosing[0] if enclosing else table
        else:
            owner = table
        yield owner.get_id(), name
    for child in table.get_children():
        yield from _reads(child, enclosing + (table,))


def _tables(table):
    yield table
    for child in table.get_children():
        yield from _tables(child)


def _imports(node, scope=None):
    """(scope, import node) for each import; the scope is the (name, line)
    of the innermost def or class holding it, None for the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = (child.name, child.lineno)
        yield from _imports(child, inner)


def unused_imports(source: str):
    """(line, name) for each imported name that ``source`` never reads
    through the binding the import made."""
    tree = ast.parse(source)
    lines = source.splitlines()
    module = symtable.symtable(source, "<module>", "exec")
    top = module.get_id()
    used = set(_reads(module))
    # under `from __future__ import annotations` symtable skips annotations;
    # their names resolve among the module's globals
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if ann is not None:
                used.update((top, n.id) for n in ast.walk(ann)
                            if isinstance(n, ast.Name))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update((top, name) for name in ast.literal_eval(node.value))
    scopes = {(t.get_name(), t.get_lineno()): t.get_id()
              for t in _tables(module) if t is not module}
    unused = []
    for scope, node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        owner = top if scope is None else scopes[scope]
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if (owner, name) not in used:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as _sys\n"
              "from .a import b, c  # noqa: F401\n"
              "from .d import (e,\n"
              "                f)\n"
              "import g.h\n"
              "__all__ = ['e']\n"
              "print(_sys.argv, g)\n")
    assert unused_imports(source) == [(2, "os"), (4, "f")]


def test_the_guard_sees_a_shadowing_local():
    # _orthogonal binds a local ``bits``, which reads nothing of the module
    source = (SRC / "orthospace.py").read_text()
    marker = "from . import _kernel\n"
    assert "bits = " in source and marker in source
    source = source.replace(marker, marker + "from . import bits\n")
    line = source.splitlines().index("from . import bits") + 1
    assert unused_imports(source) == [(line, "bits")]


def test_the_guard_resolves_nested_scopes():
    source = ("import a, b, c, d\n"
              "def f():\n"
              "    import e\n"
              "    c = 1\n"
              "    def g(x: d):\n"
              "        return a, c, e\n"
              "    return g\n"
              "class K:\n"
              "    b = 2\n"
              "    y = b\n"
              "    def m(self):\n"
              "        return [b for _ in ()]\n")
    # a is read in g, b by the method's comprehension (class names are not
    # visible there), d in an annotation, e through g's closure; c is
    # shadowed by f's local
    assert unused_imports(source) == [(1, "c")]


def private_reads(source: str):
    """(line, expression) for each read of a private attribute through a
    name other than ``self``, ``cls`` or one an import binds."""
    tree = ast.parse(source)
    owners = {"self", "cls"}
    owners.update(alias.asname or alias.name.split(".")[0]
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for alias in node.names)
    return sorted(
        (node.lineno, ast.unparse(node)) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in owners))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_module_reads_no_private_state_of_another_object(path):
    assert private_reads(path.read_text()) == []


def test_the_guard_finds_a_private_read():
    source = ("import os as _os\n"
              "from . import gf\n"
              "class K:\n"
              "    @classmethod\n"
              "    def m(cls, F, sys):\n"
              "        sys._of_relation = cls._cache\n"
              "        return (F._add, F.__class__, gf._encode, _os.sep,\n"
              "                F.mul._items, f(F)._neg)\n"
              "    def n(self, other):\n"
              "        return self._inv, other._inv, other.__inv\n")
    # a store, a dunder, a module's private name and cls/self reads pass
    assert private_reads(source) == [
        (7, "F._add"), (8, "F.mul._items"), (8, "f(F)._neg"),
        (10, "other.__inv"), (10, "other._inv")]
