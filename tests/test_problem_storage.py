"""Static hygiene: only fedlab/problems/ reads how problem data is stored.

Quadratic families keep their spectra, dense matrices, centers, client
specs and eigenbasis, and LIBSVM datasets their matrix layout, behind the
problems package; the rest of the package goes through methods such as
``QuadraticFamily.minimizer`` instead.
"""
import ast
from pathlib import Path

import fedlab

PACKAGE = Path(fedlab.__file__).parent
STORAGE = {"spectra", "matrices", "centers", "specs", "basis", "rows", "to_csr"}


def _storage_reads(source: str) -> list[str]:
    """``attr (line n)`` for every storage attribute read in ``source``."""
    return [
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in STORAGE
    ]


def test_storage_scan_flags_attribute_reads_only():
    source = (
        "def f(problem, spectra):\n"
        "    family = problem.quadratic\n"
        "    q = family.basis\n"
        "    return spectra, [s.centers for s in family.specs]\n"
    )
    assert _storage_reads(source) == [
        "basis (line 3)", "centers (line 4)", "specs (line 4)"
    ]


def test_only_the_problems_package_reads_problem_storage():
    found = {
        str(path.relative_to(PACKAGE)): reads
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).parts[0] != "problems"
        and (reads := _storage_reads(path.read_text()))
    }
    assert found == {}
