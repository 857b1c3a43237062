"""Every name a library module imports is used in that module."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hamconc"
#: ``__init__`` imports only to re-export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside quoted annotations such as "TParams"
    annotations = [getattr(node, field) for node in ast.walk(tree)
                   for field in ("annotation", "returns")
                   if getattr(node, field, None) is not None]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\n"
              "from typing import Callable, Mapping\n"
              "def f(x: 'Mapping') -> float:\n    return np.sqrt(x)\n")
    assert _unused_imports(source) == ["Callable (line 4)", "math (line 2)"]
