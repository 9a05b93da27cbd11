"""Import hygiene: no unused names, and a run loads only what it uses.

Static scans check every module under src/fedlab: it imports no name it
never uses, only the logistic module imports scipy at module level, and
nothing imports the standard library's network or XML stack.  A fresh
interpreter then checks which of those modules a tiny run actually loads.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedlab
import fedlab.problems

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


def _imports(source: str, module_level: bool) -> list[tuple[str, int]]:
    """Absolute module names imported in ``source``, with their lines.

    With ``module_level`` set, imports inside function bodies are skipped:
    those run only when the function is called.
    """
    found = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module, node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda item: item[1])


def _scan(roots: tuple[str, ...], module_level: bool) -> dict[str, list[str]]:
    """Per module, the imports of ``roots`` (or their submodules) it makes."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        hits = [
            f"{name} (line {line})"
            for name, line in _imports(path.read_text(), module_level)
            if name.split(".")[0] in roots
        ]
        if hits:
            found[str(path.relative_to(PACKAGE))] = hits
    return found


def test_only_the_logistic_module_imports_scipy_at_module_level():
    found = _scan(("scipy",), module_level=True)
    # the logistic oracle's per-call kernels need scipy bound at import
    assert "problems/logistic.py" in found
    del found["problems/logistic.py"]
    assert found == {}


def test_no_module_imports_the_network_or_xml_stack():
    assert _scan(("xml", "urllib", "http", "email", "ssl"), module_level=False) == {}


_WATCHED = (
    "scipy.sparse",
    "scipy.special",
    "ssl",
    "http.client",
    "email",
    "urllib.request",
    # load_config checks configs itself; jsonschema is the tests' reference
    "jsonschema",
)

_RUN_AND_REPORT = """
import json, sys
from fedlab.cli import main
commands, watched = json.loads(sys.argv[1])
for argv in commands:
    if main(argv) != 0:
        sys.exit(f"fedlab {argv[0]} failed")
print(json.dumps(sorted(m for m in watched if m in sys.modules)))
"""


def _loaded_by(commands: list[list[str]]) -> list[str]:
    """The watched modules a fresh interpreter holds after ``commands``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT, json.dumps([commands, _WATCHED])],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tiny_run(directory, problem: dict) -> list[list[str]]:
    """``fedlab run`` arguments for a few gd rounds on ``problem``."""
    cfg = {
        "problem": problem,
        "methods": [{"name": "gd", "auto": "sc"}],
        "budget": {"max_rounds": 5, "target_gap": 1e-08, "max_iterations": 100},
        "seed": 0,
    }
    directory.mkdir()
    path = directory / "exp.json"
    path.write_text(json.dumps(cfg))
    return [["run", "--config", str(path), "--out", str(directory / "out")]]


def test_importing_the_cli_loads_no_watched_module():
    assert _loaded_by([]) == []


def test_only_a_logistic_run_loads_the_sparse_stack(tmp_path):
    quadratic = {
        "kind": "quadratic",
        "n_clients": 2,
        "m_components": 2,
        "dim": 4,
        "max_norm": 8.0,
        "min_eig": 1.0,
    }
    commands = _tiny_run(tmp_path / "quadratic", quadratic)
    commands.append(["delta", "--config", commands[0][2]])
    assert _loaded_by(commands) == []

    # positive control: the watch sees the modules a logistic run really loads
    data = tmp_path / "tiny.libsvm"
    data.write_text(
        "+1 1:0.5 3:1.0\n-1 1:-0.25 2:0.75\n+1 2:1.5\n-1 1:0.1 2:-0.3 3:0.2\n"
    )
    logistic = {"kind": "logistic", "path": str(data), "n_clients": 2, "alpha": 1.0}
    loaded = _loaded_by(_tiny_run(tmp_path / "logistic", logistic))
    assert {"scipy.sparse", "scipy.special"} <= set(loaded)


def test_an_unknown_problems_attribute_is_an_attribute_error():
    with pytest.raises(
        AttributeError,
        match=r"^module 'fedlab\.problems' has no attribute 'no_such_name'$",
    ):
        fedlab.problems.no_such_name
