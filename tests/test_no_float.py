"""The library computes on integers and fractions only: no floating point.

Every module under src/ngonstab is parsed and searched for float
literals, calls to float() and true division, each of which would bring
a float into an exact computation.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ngonstab

SOURCES = sorted(Path(ngonstab.__file__).parent.glob("*.py"))

# (file, source of the expression): the one float the library keeps is the
# fair coin that picks a summand kind in the random object generator.
ALLOWED = {("sheaves.py", "rng.random() < 0.5")}


def _float_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, "float literal"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node, "float()"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"


def _allowed(path: Path, tree: ast.AST, node: ast.AST) -> bool:
    for parent in ast.walk(tree):
        if isinstance(parent, ast.Compare) and node in ast.walk(parent):
            return (path.name, ast.unparse(parent)) in ALLOWED
    return False


def test_no_floating_point_in_the_library():
    assert {p.name for p in SOURCES} >= {"charges.py", "compat.py", "sheaves.py"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, what in _float_uses(tree):
            if not _allowed(path, tree, node):
                found.append(f"{path.name}:{node.lineno}: {what}: {ast.unparse(node)}")
    assert found == []


def test_the_allowed_coin_is_still_there():
    # an exception that no longer matches anything would hide nothing,
    # so a stale entry fails here and gets removed
    sheaves = next(p for p in SOURCES if p.name == "sheaves.py")
    tree = ast.parse(sheaves.read_text(encoding="utf-8"))
    compares = {ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Compare)}
    assert {src for _, src in ALLOWED} <= compares
