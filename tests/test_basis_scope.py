"""Static hygiene: only ``problems/quadratic.py`` knows about eigenbases.

Every method and every metric column is unchanged by an orthogonal change of
coordinates, so no run needs a frame of its own: generated ``beta = 0``
quadratics are drawn in their eigen frame, and a family that carries a basis
keeps it behind its oracles.  No other module of the package may use a name,
attribute, parameter, keyword or definition called ``basis`` or
``eigen_frame``.
"""
import ast
from pathlib import Path

import fedlab

PACKAGE = Path(fedlab.__file__).parent
OWNER = Path("problems", "quadratic.py")
BASIS_NAMES = {"basis", "eigen_frame"}


def _basis_uses(source: str) -> list[str]:
    """``name (line n)`` for every use of a basis name in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in BASIS_NAMES:
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_basis_scan_flags_names_attributes_parameters_and_definitions():
    source = (
        "def eigen_frame(oracle, basis=None):\n"
        "    q = oracle.basis\n"
        "    build(spec, basis=q)\n"
        "    return basis, oracle.frame\n"
        "# basis in a comment, 'basis' in a string\n"
        "x = 'basis'\n"
    )
    assert _basis_uses(source) == [
        "basis (line 1)", "eigen_frame (line 1)", "basis (line 2)",
        "basis (line 3)", "basis (line 4)",
    ]


def test_only_the_quadratic_module_names_a_basis():
    found = {
        str(rel): uses
        for path in sorted(PACKAGE.rglob("*.py"))
        if (rel := path.relative_to(PACKAGE)) != OWNER
        and (uses := _basis_uses(path.read_text()))
    }
    assert found == {}
    # the owner is scanned by the same rule and does use the name
    assert _basis_uses((PACKAGE / OWNER).read_text())
