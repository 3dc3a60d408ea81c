"""Every name a platlab module imports is used in it.

A name listed in the module's ``__all__`` counts as used (it is
re-exported), and so does one imported on a line marked ``# noqa: F401``.
Only the standard library is used, so the guard runs wherever the tests do.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "platlab"


def unused_imports(source: str):
    """(line, name) for each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
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
