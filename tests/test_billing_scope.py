"""Static hygiene: one accounting path, from the billed primitives to the step.

Gradient work is billed where it is asked for, in one ``core.bill`` call
per block: ``core.gradients_of`` and ``core.hessian_matvecs_of`` bill their
k rows (the one-row ``ClientOracle.gradient`` is a one-row
``gradients_of``).  The stacks
that compute the rows bill nothing, so measurement can call them too.
``step_method`` and ``init_method_state`` alone call ``core.take_billed`` to
open and read their window, and ``step_method`` alone writes a step's
``grad_evals``.  So no other code may touch the running total, and none may
assign, pass or accumulate a ``grad_evals`` by hand, except where the
harness sums the step records into a trace row's running column.
Dataclass field declarations are not assignments.
"""
import ast
from pathlib import Path

import fedlab

PACKAGE = Path(fedlab.__file__).parent

# where each use of the bill is expected: "module:qualified.function"
BILL_USES = {
    "core.py:": ["_billed"],
    "core.py:bill": ["_billed"],
    "core.py:take_billed": ["_billed", "_billed"],
    "core.py:gradients_of": ["bill"],
    "core.py:hessian_matvecs_of": ["bill"],
    "methods.py:init_method_state": ["take_billed", "take_billed"],
    "methods.py:step_method": ["take_billed", "take_billed"],
}
GRAD_EVALS_WRITES = {
    "methods.py:step_method": ["record.grad_evals = take_billed()"],
    "harness.py:run_experiment": ["cum_evals += rec.grad_evals"],
    "harness.py:run_experiment.snapshot": ["grad_evals=cum_evals"],
    "harness.py:read_trace_csv": ["grad_evals=float(row[2])"],
}


def _scan(source: str, module: str) -> tuple[dict, dict]:
    """``(bill uses, grad_evals writes)`` in ``source``, keyed by
    ``module:qualified.function`` (``module:`` at module level)."""
    uses: dict[str, list[str]] = {}
    writes: dict[str, list[str]] = {}

    def visit(node, scope: list[str], in_class: bool):
        key = f"{module}:{'.'.join(scope)}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for child in node.body:
                visit(child, scope + [node.name], isinstance(node, ast.ClassDef))
            return
        if isinstance(node, ast.Name) and node.id in ("_billed", "bill", "take_billed"):
            uses.setdefault(key, []).append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in ("bill", "take_billed"):
            uses.setdefault(key, []).append(node.attr)
        if isinstance(node, (ast.Assign, ast.AugAssign)) or (
            isinstance(node, ast.AnnAssign) and not in_class
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            named = [
                t for target in targets for t in ast.walk(target)
                if getattr(t, "id", getattr(t, "attr", None)) == "grad_evals"
            ]
            accumulated = isinstance(node, ast.AugAssign) and any(
                getattr(v, "attr", None) == "grad_evals" for v in ast.walk(node.value)
            )
            if named or accumulated:
                writes.setdefault(key, []).append(ast.unparse(node))
        elif isinstance(node, ast.keyword) and node.arg == "grad_evals":
            writes.setdefault(key, []).append(ast.unparse(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, False)

    visit(ast.parse(source), [], False)
    return uses, writes


def test_scan_flags_bill_uses_and_grad_evals_writes():
    source = (
        "class Record:\n"
        "    grad_evals: float = 0.0\n"
        "def step(record, core):\n"
        "    global _billed\n"
        "    _billed += 1.0\n"
        "    bill(0.5)\n"
        "    core.take_billed()\n"
        "    record.grad_evals = 2.0\n"
        "    evals: float = 0.0\n"
        "    evals += record.grad_evals\n"
        "    return Record(grad_evals=evals), 'grad_evals'\n"
    )
    uses, writes = _scan(source, "m.py")
    assert uses == {"m.py:step": ["_billed", "bill", "take_billed"]}
    assert writes == {
        "m.py:step": [
            "record.grad_evals = 2.0",
            "evals += record.grad_evals",
            "grad_evals=evals",
        ]
    }


def test_only_the_billed_primitives_and_the_step_window_touch_the_bill():
    uses, writes = {}, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        found = _scan(path.read_text(), path.relative_to(PACKAGE).as_posix())
        uses.update(found[0])
        writes.update(found[1])
    assert uses == BILL_USES
    assert writes == GRAD_EVALS_WRITES
