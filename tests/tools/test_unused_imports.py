"""Lint: no module in ``src/repro`` imports a name it never uses.

Standard library only (``ast``). A module-level import counts as used
when its bound name is read anywhere in the module (code or annotation,
string annotations included) or listed in ``__all__``. ``from
__future__`` imports and lines marked ``# noqa: F401`` (imports kept
for their side effect) are exempt. Package ``__init__.py`` files are
skipped: their imports are the package's re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _module_imports(tree: ast.Module):
    """(bound name, line) of every import at module level, including
    those under a top-level ``if``/``try``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        if annotation is not None:
            yield annotation


def _used_names(tree: ast.Module) -> set:
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    trees.append(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    used = set()
    for root in trees:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used.update(elt.value for elt in getattr(node.value, "elts", ())
                            if isinstance(elt, ast.Constant))
    return used


def unused_imports(source: str):
    """(line, name) of each module-level import ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    return [(line, name) for name, line in _module_imports(tree)
            if name not in used and "noqa: F401" not in lines[line - 1]]


def test_checker_honours_all_noqa_and_future():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "import json as j\n"
        "from typing import Dict, List, Optional\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    return j.loads(a)\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "Dict")]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(SRC.parent)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
