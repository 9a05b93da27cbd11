"""Static hygiene: per-call products skip numpy's and scipy's dispatch.

The functions below run on every oracle call, local-solver iteration, method
step or metric snapshot.  Their products call ``ndarray.dot`` or
``problems.logistic._csr_matvec`` (bitwise equal to ``@``, at a fraction of
the per-call cost) and their norms are ``math.sqrt(v.dot(v))``, so none may
contain ``@`` or ``np.linalg.norm``.  ``require_finite`` keeps ``np.vdot``,
the one dot that does not warn on overflow.
"""
import ast
import inspect
import textwrap

from fedlab import core, harness, local_solvers, methods
from fedlab.problems import dissimilarity, logistic, quadratic

PER_CALL = [
    quadratic.QuadraticOracle._frame,
    quadratic.QuadraticOracle._to_original,
    quadratic.QuadraticOracle._curvature,
    quadratic.QuadraticOracle._value,
    quadratic.QuadraticOracle._gradient,
    quadratic.QuadraticOracle.stochastic_gradient,
    logistic._spectral_norm_sq,
    logistic.LogisticOracle._margins,
    logistic.LogisticOracle._value,
    logistic.LogisticOracle._gradient,
    logistic.LogisticOracle._row_gradients,
    local_solvers.SurrogateOracle._value,
    local_solvers.SurrogateOracle._gradient,
    local_solvers._descend,
    local_solvers.solve_exact_quadratic,
    methods.anchored_step,
    methods.fedred_gd_step,
    harness.run_experiment,
    dissimilarity.delta_sampled,
]


def _tree(fn) -> ast.AST:
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def _is_call_to(node: ast.AST, dotted: str) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) == dotted


def _dispatched_products(tree: ast.AST) -> list[str]:
    """``@ (line n)`` and ``np.linalg.norm (line n)`` for each use in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found.append((node.lineno, "@"))
        elif _is_call_to(node, "np.linalg.norm"):
            found.append((node.lineno, "np.linalg.norm"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_product_scan_flags_matmul_and_norm_only():
    source = (
        "def f(a, v):\n"
        "    w = a @ v\n"
        "    w @= a\n"
        "    return np.linalg.norm(w) + a.dot(v) + np.vdot(v, v)\n"
    )
    assert _dispatched_products(ast.parse(source)) == [
        "@ (line 2)", "@ (line 3)", "np.linalg.norm (line 4)"
    ]


def test_per_call_functions_use_dot_and_the_csr_kernel():
    found = {
        fn.__qualname__: uses
        for fn in PER_CALL
        if (uses := _dispatched_products(_tree(fn)))
    }
    assert found == {}


def test_require_finite_keeps_the_warning_free_vdot():
    tree = _tree(core.require_finite)
    assert any(_is_call_to(node, "np.vdot") for node in ast.walk(tree))
