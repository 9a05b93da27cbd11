"""The quadratic stack's billed block: k clients' gradients in one product.

``build_quadratic_problem`` stacks every client's curvature operator, mean
center and linear term once; ``core.gradients_of`` answers a list of
quadratic clients at their own points with one call of the stack's
``gradients``.  Each row must be bitwise the client's own ``_gradient`` at
any BLAS thread count, the block must bill one unit per row, and a failing
block must name the row, with the message, that a loop of public
``gradient`` calls would.
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
from fedlab.core import gradients_of

from conftest import random_family, rotated_family

TESTS = Path(__file__).resolve().parent
FRAMES = ("axes", "basis", "dense")


def _family(frame: str, n: int, d: int, beta: float, seed: int) -> QuadraticFamily:
    """n clients without a basis (mean spectra), with one (mean Hessians
    ``Q diag(s) Q'``) or as dense explicit matrices."""
    family = random_family(seed, n=n, m=2, d=d, dense=frame == "dense")
    family = QuadraticFamily(specs=family.specs, beta=beta)
    return rotated_family(family, seed + 1) if frame == "basis" else family


def _per_row_loop(oracles, points, labels):
    """What a loop of public ``gradient`` calls gives: the rows, or the
    message of the first row that raises, naming it."""
    grads = []
    for oracle, point, label in zip(oracles, points, labels):
        try:
            grads.append(oracle.gradient(point))
        except NonFiniteError as exc:
            return f"{exc} in row {label}"
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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_cases())
def test_the_block_is_each_row_alone_and_bills_its_rows(case):
    problem, rows, points = case
    oracles = [problem.clients[i] for i in rows]
    core.take_billed()
    block = gradients_of(oracles, points)
    assert core.take_billed() == float(len(rows))
    alone = np.array([o._gradient(p) for o, p in zip(oracles, points)])
    assert block.tobytes() == alone.tobytes()
    # one shared point, as a grad-diff refresh asks for it
    assert gradients_of(oracles, points[0]).tobytes() == np.array(
        [o._gradient(points[0]) for o in oracles]
    ).tobytes()


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


def test_oracles_of_two_stacks_make_one_public_call_per_row(monkeypatch):
    first, second = (
        build_quadratic_problem(_family("basis", 2, 4, 0.5, seed)) for seed in (1, 2)
    )
    oracles = [first.clients[1], second.clients[0], first.clients[0]]
    points = RandomStream(3).generator().standard_normal((3, 4))
    calls = []
    public = core.ClientOracle.gradient
    monkeypatch.setattr(
        core.ClientOracle, "gradient", lambda o, x: calls.append(o) or public(o, x)
    )
    core.take_billed()
    block = gradients_of(oracles, points)
    assert calls == oracles and core.take_billed() == 3.0
    alone = np.array([o._gradient(p) for o, p in zip(oracles, points)])
    assert block.tobytes() == alone.tobytes()
    points[1, 2] = np.nan
    with pytest.raises(NonFiniteError, match=r"query point in row 1$"):
        gradients_of(oracles, points)


def test_oracles_hold_row_views_of_one_stack():
    problem = gen_quadratic_problem(
        0, 4, 2, 10, max_norm=10.0, min_eig=-2.0, target_delta=2.0, beta=4.0
    )
    stack = problem.clients[0].stack
    assert stack.hessians.shape == (4, 10, 10)
    for i, oracle in enumerate(problem.clients):
        assert oracle.stack is stack and oracle.row == i
        for view, rows in (
            (oracle._hessian, stack.hessians),
            (oracle._center, stack.centers),
            (oracle._u, stack.u),
        ):
            assert view.base is rows and np.shares_memory(view, rows[i])


# a block of distinct points against the per-row `.dot`, both as sha256
_THREADS_SCRIPT = """
import hashlib, json
import numpy as np
from fedlab import (
    QuadraticClientSpec, QuadraticFamily, RandomStream, build_quadratic_problem,
    gen_quadratic_problem,
)
from fedlab.core import gradients_of

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
out = {}
for name, problem in problems.items():
    points = RandomStream(9).generator().standard_normal((problem.n, problem.dim))
    block = gradients_of(problem.clients, points)
    rows = np.array([c._gradient(p) for c, p in zip(problem.clients, points)])
    out[name] = [hashlib.sha256(a.tobytes()).hexdigest() for a in (block, rows)]
print(json.dumps(out))
"""


def _digests(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")])
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
