"""The quadratic stack: k clients' values, gradients and Hessian products
in one product each.

``build_quadratic_problem`` stacks every client's curvature operator, mean
center, linear term and constant once; ``core.gradients_of``,
``core.values_of`` and ``core.hessian_matvecs_of`` answer a list of
quadratic clients at their own points with one call of the stack.  Each
row must be bitwise the client's per-row formula (``conftest.per_row_*``)
at any BLAS thread count, the billed blocks must bill one unit per row,
and a failing gradient block must name the row, with the message, that the
documented rule gives when it is applied row by row to the per-row
formulas.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    NonFiniteError,
    QuadraticFamily,
    RandomStream,
    build_quadratic_problem,
    gen_quadratic_problem,
)
from fedlab import core
from fedlab.core import gradients_of, hessian_matvecs_of, values_of

from conftest import (
    per_row_gradient,
    per_row_hessian_matvec,
    per_row_value,
    random_family,
    rotated_family,
)

TESTS = Path(__file__).resolve().parent
FRAMES = ("axes", "basis", "dense")


def _family(frame: str, n: int, d: int, beta: float, seed: int) -> QuadraticFamily:
    """n clients without a basis (mean spectra), with one (mean Hessians
    ``Q diag(s) Q'``) or as dense explicit matrices."""
    family = random_family(seed, n=n, m=2, d=d, dense=frame == "dense")
    family = QuadraticFamily(specs=family.specs, beta=beta)
    return rotated_family(family, seed + 1) if frame == "basis" else family


def _per_row_loop(oracles, points, labels):
    """The documented rule, row by row from the per-row formulas: the rows,
    or the message that names the first row that fails, by its point when
    that is not finite, else by its gradient."""
    grads = []
    for oracle, point, label in zip(oracles, points, labels):
        if not np.isfinite(point).all():
            return f"non-finite entries in oracle query point in row {label}"
        grads.append(per_row_gradient(oracle, point))
        if not np.isfinite(grads[-1]).all():
            return f"non-finite entries in gradient in row {label}"
    return np.array(grads)


@st.composite
def _cases(draw):
    frame = draw(st.sampled_from(FRAMES))
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    beta = draw(st.sampled_from([0.0, 0.5, 400.0]))
    seed = draw(st.integers(0, 2**16))
    problem = build_quadratic_problem(_family(frame, n, d, beta, seed))
    # any selection of the clients: a subset, in any order, with repeats
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    rng = RandomStream(seed).fork(1).generator()
    points = rng.standard_normal((len(rows), d)) * draw(st.sampled_from([1.0, 1e3]))
    return problem, rows, points


def _bits(arr) -> bytes:
    return np.asarray(arr, dtype=np.float64).tobytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_cases())
def test_the_block_is_each_row_alone_and_bills_its_rows(case):
    problem, rows, points = case
    oracles = [problem.clients[i] for i in rows]
    core.take_billed()
    block = gradients_of(oracles, points)
    assert core.take_billed() == float(len(rows))
    alone = [per_row_gradient(o, p) for o, p in zip(oracles, points)]
    assert _bits(block) == _bits(alone)
    # one shared point, as a grad-diff refresh asks for it
    assert _bits(gradients_of(oracles, points[0])) == _bits(
        [per_row_gradient(o, points[0]) for o in oracles]
    )
    # values bill nothing; Hessian products bill one unit per row
    core.take_billed()
    values = values_of(oracles, points)
    assert core.take_billed() == 0.0
    assert _bits(values) == _bits([per_row_value(o, p) for o, p in zip(oracles, points)])
    curved = hessian_matvecs_of(oracles, points)
    assert core.take_billed() == float(len(rows))
    assert _bits(curved) == _bits(
        [per_row_hessian_matvec(o, p) for o, p in zip(oracles, points)]
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, derandomize=True, deadline=None)
@given(_cases(), st.data())
def test_a_failing_block_names_the_row_the_loop_names(case, data):
    # several rows fail: at a non-finite query coordinate, or at finite
    # coordinates whose gradient overflows
    problem, rows, points = case
    k, d = points.shape
    failing = data.draw(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True)
    )
    for j in failing:
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e308]))
        points[j, data.draw(st.integers(0, d - 1))] = bad
    oracles = [problem.clients[i] for i in rows]
    labels = data.draw(st.sampled_from([None, [10 + j for j in range(k)]]))
    expected = _per_row_loop(oracles, points, labels or range(k))
    if not isinstance(expected, str):
        # a huge coordinate can leave its gradient finite
        assert gradients_of(oracles, points, labels).tobytes() == expected.tobytes()
        return
    with pytest.raises(NonFiniteError) as raised:
        gradients_of(oracles, points, labels)
    assert str(raised.value) == expected


def test_oracles_of_two_stacks_make_one_call_per_run(monkeypatch):
    first, second = (
        build_quadratic_problem(_family("basis", 2, 4, 0.5, seed)) for seed in (1, 2)
    )
    # runs of rows sharing a stack: [first 1, first 0], [second 0], [first 1]
    oracles = [first.clients[1], first.clients[0], second.clients[0], first.clients[1]]
    points = RandomStream(3).generator().standard_normal((4, 4))
    calls = []
    for name in ("gradients", "values", "hessian_matvecs"):
        method = getattr(type(first.clients[0].stack), name)

        def counted(stack, rows, block, method=method, name=name):
            calls.append((name, stack, list(rows)))
            return method(stack, rows, block)

        monkeypatch.setattr(type(first.clients[0].stack), name, counted)
    stack_1, stack_2 = first.clients[0].stack, second.clients[0].stack
    runs = [(stack_1, [1, 0]), (stack_2, [0]), (stack_1, [1])]
    core.take_billed()
    block = gradients_of(oracles, points)
    assert calls == [("gradients", s, r) for s, r in runs]
    assert core.take_billed() == 4.0
    assert _bits(block) == _bits([per_row_gradient(o, p) for o, p in zip(oracles, points)])
    calls.clear()
    values = values_of(oracles, points)
    curved = hessian_matvecs_of(oracles, points)
    assert calls == [(n, s, r) for n in ("values", "hessian_matvecs") for s, r in runs]
    assert core.take_billed() == 4.0
    assert _bits(values) == _bits([per_row_value(o, p) for o, p in zip(oracles, points)])
    assert _bits(curved) == _bits(
        [per_row_hessian_matvec(o, p) for o, p in zip(oracles, points)]
    )
    points[2, 2] = np.nan
    with pytest.raises(NonFiniteError, match=r"query point in row 2$"):
        gradients_of(oracles, points)


def test_oracles_are_rows_of_one_stack():
    problem = gen_quadratic_problem(
        0, 4, 2, 10, max_norm=10.0, min_eig=-2.0, target_delta=2.0, beta=4.0
    )
    stack, basis = problem.clients[0].stack, problem.quadratic.basis
    assert stack.hessians.shape == (4, 10, 10)
    for i, oracle in enumerate(problem.clients):
        assert oracle.stack is stack and oracle.row == i
        spec = oracle.spec
        eigs = spec.spectra.mean(axis=0)
        assert np.array_equal(stack.hessians[i], (basis * eigs).dot(basis.T))
        assert np.array_equal(stack.centers[i], basis.dot(spec.centers.mean(axis=0)))


# blocks of distinct points against the per-row formulas, all as sha256
_THREADS_SCRIPT = """
import hashlib, json
import numpy as np
from fedlab import (
    QuadraticClientSpec, QuadraticFamily, RandomStream, build_quadratic_problem,
    gen_quadratic_problem,
)
from fedlab.core import gradients_of, hessian_matvecs_of, values_of
from conftest import per_row_gradient, per_row_hessian_matvec, per_row_value

rng = RandomStream(5).generator()
d = 200
q = np.linalg.qr(rng.standard_normal((d, d)))[0]
specs = [
    QuadraticClientSpec(
        centers=rng.standard_normal((2, d)),
        matrices=(q * rng.uniform(-1.0, 4.0, (2, 1, d))) @ q.T,
    )
    for _ in range(3)
]
problems = {
    "dense_beta": gen_quadratic_problem(
        3, 4, 2, d, max_norm=10.0, min_eig=-2.0, target_delta=2.0, beta=400.0
    ),
    "dense_spec": build_quadratic_problem(QuadraticFamily(specs=specs, beta=0.5)),
}
forms = {
    "gradients": (gradients_of, per_row_gradient),
    "values": (values_of, per_row_value),
    "hessian_matvecs": (hessian_matvecs_of, per_row_hessian_matvec),
}
out = {}
for name, problem in problems.items():
    points = RandomStream(9).generator().standard_normal((problem.n, problem.dim))
    for form, (block_of, per_row) in forms.items():
        block = block_of(problem.clients, points)
        rows = np.array([per_row(c, p) for c, p in zip(problem.clients, points)])
        out[name + " " + form] = [
            hashlib.sha256(a.tobytes()).hexdigest() for a in (block, rows)
        ]
print(json.dumps(out))
"""


def _digests(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_SCRIPT],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_the_block_product_does_not_depend_on_the_thread_count():
    one, two = _digests(1), _digests(2)
    assert one == two
    for block, rows in one.values():
        assert block == rows
