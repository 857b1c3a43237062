"""Every name a library module imports is used in that module, every
private module-level function of the library is referenced from the library
itself, the library never calls the builtin ``sum``, and no layer rebuilds a
measure's arrays from its views."""
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


def _orphaned_private_functions(defining: list[str],
                                referencing: list[str]) -> list[str]:
    """Private module-level functions of the ``defining`` sources that no
    name or attribute in the ``referencing`` sources mentions."""
    private = {node.name for source in defining
               for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    used = set()
    for source in referencing:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(private - used)


def test_no_orphaned_private_functions():
    # a private function only tests call is test code: it belongs in tests/
    library = [p.read_text() for p in PACKAGE.glob("*.py")]
    assert _orphaned_private_functions(library, library) == []


def test_checker_sees_orphaned_and_referenced_functions():
    source = ("import helpers\n"
              "def _called():\n    return 1\n"
              "def _orphan():\n    return _orphan\n"
              "def _via_attribute():\n    pass\n"
              "def public():\n    return _called() + helpers._via_attribute\n"
              "class K:\n    def _method(self):\n        pass\n")
    # a self-reference counts as a use; methods are not checked
    assert _orphaned_private_functions([source], [source]) == []
    assert _orphaned_private_functions(
        [source, "def _elsewhere():\n    pass\n"],
        [source.replace("_called() + ", "")]) == ["_called", "_elsewhere"]


def _builtin_sum_calls(source: str) -> list[int]:
    """Lines that call or pass the name ``sum``: the builtin, whose float
    order changed in Python 3.12 (``measures._sum`` adds left to right)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "sum")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_builtin_sum(path):
    assert _builtin_sum_calls(path.read_text()) == []


def test_checker_sees_builtin_sum_calls():
    source = ("import numpy as np\n"
              "def f(xs, a):\n"
              "    total = sum(xs)\n"
              "    rows = list(map(sum, [xs]))\n"
              "    return _sum(xs) + a.sum() + np.sum(a) + sum(\n"
              "        x for x in xs)\n")
    assert _builtin_sum_calls(source) == [3, 4, 5]


def _array_rebuilds(source: str) -> list[int]:
    """Lines that pass an expression reading ``.atoms`` or ``.support`` to
    ``np.array``, ``np.asarray`` or ``np.fromiter``: a measure is its
    ``digits`` and ``masses`` arrays, and its word views are for I/O and the
    public API, so an array rebuilt from them is a second representation."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("array", "asarray", "fromiter")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            args = node.args + [keyword.value for keyword in node.keywords]
            if any(isinstance(sub, ast.Attribute) and sub.attr in ("atoms", "support")
                   for arg in args for sub in ast.walk(arg)):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "measures.py"],
                         ids=lambda p: p.name)
def test_no_array_rebuilt_from_measure_views(path):
    # ``measures.py`` owns the representation and builds the views
    assert _array_rebuilds(path.read_text()) == []


def test_checker_sees_array_rebuilds():
    source = ("import numpy as np\n"
              "def f(mu, words):\n"
              "    a = np.array(tuple(mu.atoms.values()))\n"
              "    b = np.asarray(mu.support, dtype=np.int64)\n"
              "    c = np.fromiter(mu.atoms.values(), float, len(mu))\n"
              "    d = np.array([mu.atoms[w]\n"
              "                  for w in words])\n"
              "    e = np.array(object=mu.support)\n"
              "    return np.asarray(mu.digits), np.array(mu.masses), np.array(words), mu.support\n")
    assert _array_rebuilds(source) == [3, 4, 5, 6, 8]
