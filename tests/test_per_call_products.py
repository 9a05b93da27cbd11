"""Static hygiene: per-call products skip numpy's and scipy's dispatch.

The functions below run on every oracle call, stack block, local-solver
iteration, method step or metric snapshot.  Their products call
``ndarray.dot``, ``np.vecdot`` (a block's row dots) or
``problems.logistic._csr_matvec`` (bitwise equal to ``@``, at a fraction of
the per-call cost) and their norms are ``math.sqrt(v.dot(v))``, so none may
contain ``@`` or ``np.linalg.norm``.  ``require_finite`` keeps ``np.vdot``,
the one dot that does not warn on overflow.  The per-step row blocks are
built with ``np.array(list)``, bitwise the block ``np.stack`` builds at
a fraction of its cost, so the functions that build them contain no
``np.stack``.  The per-call functions update in place only arrays they
allocated themselves, so none augmented-assigns (``+=``, ``-=``, ``*=``,
``/=``) to one of its parameters or to an attribute of ``self``: those may
be a caller's array or a cached term.  The quadratic stack's block forms
read one curvature operator per row in original coordinates, so none of
them names the basis or the helpers that rotate into and out of it.
"""
import ast
import inspect
import textwrap

from fedlab import core, harness, local_solvers, methods
from fedlab.problems import dissimilarity, logistic, quadratic

PER_CALL = [
    core.as_vector,
    core.ClientOracle._check_input,
    core.ClientOracle.value,
    core.ClientOracle.gradient,
    core._by_stack,
    core.values_of,
    core.gradients_of,
    core.hessian_matvecs_of,
    core.DistributedProblem.f,
    core.DistributedProblem.grad_f,
    core.DistributedProblem._at,
    core.DistributedProblem.values_at,
    core.DistributedProblem.gradients_at,
    quadratic.QuadraticOracle._to_original,
    quadratic.QuadraticOracle.hessian_matvec,
    quadratic._QuadraticStack._index,
    quadratic._QuadraticStack.values,
    quadratic._QuadraticStack.gradients,
    quadratic._QuadraticStack.hessian_matvecs,
    quadratic._sigmoid_values,
    quadratic._sigmoid_gradient,
    logistic._spectral_norms_sq,
    logistic._LogisticStack._span_margins,
    logistic._LogisticStack.values,
    logistic._LogisticStack.gradients,
    local_solvers.SurrogateOracle.value,
    local_solvers.SurrogateOracle.gradient,
    local_solvers.SurrogateOracle._values,
    local_solvers.SurrogateOracle._gradients,
    local_solvers._descend,
    local_solvers.solve_exact_quadratic,
    methods.anchored_step,
    methods.fedred_gd_step,
    harness.run_experiment,
    dissimilarity.delta_sampled,
]

ROW_BLOCKS = [
    core._by_stack,
    core.gradients_of,
    core.DistributedProblem.client_gradients,
    logistic._LogisticStack.values,
    logistic._LogisticStack.gradients,
    local_solvers.SurrogateOracle._values,
    local_solvers.solve_exact_quadratic,
    methods._communicate,
    methods.fedred_gd_step,
    methods.baseline_scaffold_round,
    methods.baseline_scaffnew_step,
]


QUADRATIC_FORMS = [
    quadratic.QuadraticOracle.hessian_matvec,
    quadratic._QuadraticStack.values,
    quadratic._QuadraticStack.gradients,
    quadratic._QuadraticStack.hessian_matvecs,
    quadratic._sigmoid_values,
]
ROTATIONS = {"basis", "_frame", "_to_original"}


def _tree(fn) -> ast.AST:
    """``fn``'s syntax tree, numbered by the lines of its source file."""
    lines, first = inspect.getsourcelines(fn)
    return ast.increment_lineno(ast.parse(textwrap.dedent("".join(lines))), first - 1)


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


def _borrowed_updates(tree: ast.AST) -> list[str]:
    """``name (line n)`` for each augmented assignment in ``tree`` whose
    target is, or is reached through, a parameter of the function."""
    fn = tree.body[0]
    args = fn.args
    params = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        + (args.vararg, args.kwarg)
        if a is not None
    }
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.AugAssign) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            root = node.target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id in params:
                found.append(f"{ast.unparse(node.target)} (line {node.lineno})")
    return found


def test_update_scan_flags_parameters_and_self_attributes_only():
    source = (
        "def f(self, x, *rest, out=None):\n"
        "    g = x - 1.0\n"
        "    g += x\n"
        "    x += g\n"
        "    self.total -= 1.0\n"
        "    out[0] *= 2.0\n"
        "    rest[0] /= 2.0\n"
        "    self.count //= 2\n"
    )
    assert _borrowed_updates(ast.parse(source)) == [
        "x (line 4)", "self.total (line 5)", "out[0] (line 6)", "rest[0] (line 7)"
    ]


def test_per_call_functions_update_only_their_own_arrays():
    found = {
        fn.__qualname__: updates
        for fn in PER_CALL
        if (updates := _borrowed_updates(_tree(fn)))
    }
    assert found == {}


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


def test_row_blocks_are_built_without_np_stack():
    found = [
        fn.__qualname__
        for fn in ROW_BLOCKS
        if any(_is_call_to(node, "np.stack") for node in ast.walk(_tree(fn)))
    ]
    assert found == []


def _rotations(tree: ast.AST) -> list[str]:
    """``name (line n)`` for each name or attribute in ``tree`` that
    reaches the basis or a rotation helper."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in ROTATIONS:
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_rotation_scan_flags_names_and_attributes():
    source = (
        "def f(self, x, basis):\n"
        "    y = self._frame(x) + basis.dot(x)\n"
        "    return self._to_original(y), 'basis'\n"
    )
    assert _rotations(ast.parse(source)) == [
        "_frame (line 2)", "basis (line 2)", "_to_original (line 3)"
    ]


def test_quadratic_forms_do_not_rotate():
    found = {
        fn.__qualname__: uses
        for fn in QUADRATIC_FORMS
        if (uses := _rotations(_tree(fn)))
    }
    assert found == {}
