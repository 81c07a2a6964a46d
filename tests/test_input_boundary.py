"""Outside input is decoded in one module: `schemas`.

The library modules raise ValueError and know nothing of exit codes, so
only the command line may import `schemas`, and no library class decodes
JSON or text itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ngonstab

SOURCES = {p.name: p for p in Path(ngonstab.__file__).parent.glob("*.py")}
IMPORTERS = {"cli.py"}
LIBRARY = ["charges.py", "gamma0.py", "compat.py", "sheaves.py"]


def _imports_schemas(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "schemas":
                return True
            if any(alias.name == "schemas" for alias in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "schemas" for alias in node.names):
                return True
    return False


def test_only_the_command_line_imports_schemas():
    assert {"schemas.py", "cli.py", "__init__.py"} <= set(SOURCES)
    found = {
        name
        for name, path in SOURCES.items()
        if _imports_schemas(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == IMPORTERS


def test_no_library_class_decodes_input():
    found = []
    for name in LIBRARY:
        tree = ast.parse(SOURCES[name].read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name in ("from_json", "parse"):
                    found.append(f"{name}: {cls.name}.{item.name}")
    assert found == []
