"""No module in ``src/``, ``tests/`` or ``benchmarks/`` imports a name it
never uses.

The check is a stdlib :mod:`ast` pass, so it needs no linter installed.  A
name counts as used when it appears as a bare name or as the root of an
attribute chain anywhere in the module, inside a string annotation, or in
the module's ``__all__``.  ``__init__.py`` files are exempt: their imports
are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "benchmarks")


def _modules() -> list[Path]:
    return sorted(path for folder in CHECKED
                  for path in (ROOT / folder).rglob("*.py")
                  if path.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Every name an import binds, with the line of its (first) import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations and ``__all__`` included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {name.id for name in ast.walk(parsed)
                         if isinstance(name, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant)}
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items()
                  if name not in used)


def test_every_import_is_used():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _modules()
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb = 1\n", [(1, "c")]),
    ("from __future__ import annotations\n", []),
    ("from a import B\ndef f(x: 'list[B]') -> None: ...\n", []),
    ("from a import B\n__all__ = ['B']\n", []),
    ("import json\ndef f():\n    import json\n    return json\n", []),
])
def test_checker_on_small_sources(source, unused):
    assert unused_imports(source) == unused
