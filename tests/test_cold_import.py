"""What `import ngonstab.cli` loads in a fresh interpreter.

A command-line request pays for every module the import pulls in, so the
package builds its value classes itself (`charges.value_class`) rather
than through `dataclasses`, which alone brings in `inspect`, `ast`, `dis`
and `tokenize`, and the CLI imports `argparse` (and with it `gettext`)
only when its table-driven reader declines an argv.  The import still
loads every library module: the benchmark reads them all from
`sys.modules` right after it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import ngonstab

SRC = Path(ngonstab.__file__).parent
LOADED = {
    f"ngonstab.{name}"
    for name in ("charges", "gamma0", "compat", "sheaves", "hn", "moduli", "cli")
}
NOT_LOADED = {"argparse", "dataclasses", "gettext", "inspect", "typing"}

CHILD = """
import sys
before = set(sys.modules)
import ngonstab.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_the_library_and_nothing_heavy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert LOADED <= loaded
    assert NOT_LOADED & loaded == set()


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "dataclasses"]
    assert found == []
