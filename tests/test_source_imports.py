"""Every module under ``src/`` reads every name it imports.

An ``ast`` scan: a name bound by ``import`` or ``from ... import`` must be
read somewhere in its module, in code or in a quoted annotation.  Names
listed in ``__all__`` and the imports of ``__init__.py`` files (package
re-exports) are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """Names read by an annotation, quoted parts included."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                continue
    return names


def unused_imports(source: str) -> List[str]:
    """Imported names that ``source`` never reads, in import order."""
    tree = ast.parse(source)
    imported: Dict[str, int] = {}
    read: Set[str] = set()
    exported: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (
                arguments.posonlyargs
                + arguments.args
                + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            ):
                if arg is not None and arg.annotation is not None:
                    read |= _annotation_names(arg.annotation)
            if node.returns is not None:
                read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
    return [
        name
        for name in sorted(imported, key=imported.get)
        if name not in read and name not in exported
    ]


MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from typing import List, Optional\n"
        "from a.b import c, d as e\n"
        "__all__ = ['c']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["os", "np", "List", "e"]
