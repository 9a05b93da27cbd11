"""Static hygiene: no module under src/fedlab imports a name it never uses."""
import ast
from pathlib import Path

import fedlab

PACKAGE = Path(fedlab.__file__).parent


def _unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that no expression references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_scan_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "def f(x: np.ndarray) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == ["dataclass (line 4)", "field (line 4)"]


def test_no_module_imports_an_unused_name():
    # __init__.py modules re-export what they import, so every import counts
    found = {
        str(path.relative_to(PACKAGE)): unused
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        and (unused := _unused_imports(path.read_text()))
    }
    assert found == {}
