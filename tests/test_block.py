"""One evaluation path: every client is a row of its problem's stack.

Billed work and measurement read the same stacks.  Billed work asks for
its rows through ``core.gradients_of`` or a public ``ClientOracle.gradient``
(a one-row block), which bill one unit per client row; measurement (metric
snapshots, the reference optimum, sampled dissimilarity) calls the stacks
directly and bills nothing.  The logistic stack answers any rows at their
own points bitwise the per-row formula of ``conftest.per_row_*``.
"""
import functools
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    Budget,
    ClientOracle,
    DistributedProblem,
    MethodConfig,
    NonFiniteError,
    QuadraticClientSpec,
    QuadraticFamily,
    RandomStream,
    SparseDataset,
    build_quadratic_problem,
    cli,
    control_variate_grad_diff,
    core,
    delta_sampled,
    init_method_state,
    local_solvers,
    logistic_problem,
    methods,
    reference_optimum,
    run_experiment,
    step_method,
)
from fedlab.core import gradients_of, values_of
from fedlab.problems.logistic import LogisticOracle, _LogisticStack
from fedlab.problems.quadratic import _QuadraticStack

from conftest import count_raw_work, per_row_gradient, per_row_value

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@functools.cache
def _bundled(name: str):
    cfg = cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    return cli.build_problem(cfg["problem"], CONFIG_DIR)


# ------------------------------------------------- billed work stays per-client


@pytest.fixture
def gradient_calls(monkeypatch):
    """One oracle type name per billed gradient row: a public ``gradient``
    call, or a row of a ``core.gradients_of`` block (patched in every
    module that calls it).  Rows of an oracle whose gradient is measurement
    (``gradient_cost`` 0, the harness's view of ``f``) are left out."""
    calls = []
    public = ClientOracle.gradient
    block = core.gradients_of

    def counted(self, x):
        calls.append(type(self).__name__)
        return public(self, x)

    def counted_rows(oracles, points, labels=None):
        calls.extend(type(o).__name__ for o in oracles if o.gradient_cost)
        return block(oracles, points, labels)

    monkeypatch.setattr(ClientOracle, "gradient", counted)
    for module in (core, methods, local_solvers):
        monkeypatch.setattr(module, "gradients_of", counted_rows)
    return calls


BUNDLED = ["logistic_small", "quadratic_sc"]


def _measure(problem) -> float:
    """What measurement bills: snapshots, the reference, sampled constants."""
    x = RandomStream(5).generator().standard_normal(problem.dim)
    core.take_billed()
    problem.f(x)
    problem.grad_f(x)
    reference_optimum(problem)
    delta_sampled(problem, 3, RandomStream(2))
    return core.take_billed()


def test_measurement_makes_no_public_gradient_calls(gradient_calls):
    # the reference is a long accelerated run on f, whose gradients are
    # measurement too
    assert _measure(_bundled("logistic_small")) == 0.0
    assert gradient_calls == []


def test_quadratic_measurement_makes_no_billed_calls(gradient_calls):
    # the quadratic stack answers measurement unbilled, as the logistic does
    assert _measure(_bundled("quadratic_sc")) == 0.0
    assert gradient_calls == []


@pytest.mark.parametrize("name", BUNDLED)
def test_grad_diff_refresh_makes_one_call_per_client(name, gradient_calls):
    problem = _bundled(name)
    control_variate_grad_diff(problem, np.zeros(problem.dim))
    assert len(gradient_calls) == problem.n


def test_gd_rounds_make_one_call_per_client(gradient_calls):
    # a snapshot every round and the reference optimum add no calls
    problem = _bundled("logistic_small")
    cfg = MethodConfig(method="gd", eta=1.0 / problem.l_smooth_global)
    result = run_experiment(problem, cfg, Budget(max_rounds=4), seed=0, record_every=1)
    assert len(result.traces) == 5 and result.reference is not None
    assert len(gradient_calls) == 4 * problem.n == result.total_grad_evals


# ------------------------------------ one stack call per solver iteration


def _auto(name: str, method: str):
    """The bundled problem ``name`` and ``method``'s ``auto: sc`` config."""
    problem = _bundled(name)
    pcfg = cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json"))["problem"]
    delta = cli.dissimilarity(problem, pcfg, 32)[0]
    return problem, cli.build_method({"name": method, "auto": "sc"}, problem, delta)[1]


def _one_step(monkeypatch, problem, cfg, solver: str, stack_cls, answer: str):
    """One step after a variate refresh: the step's record, its local solve's
    report, the rows of each ``answer`` call of ``stack_cls``, the public
    gradient calls and the work ``conftest.count_raw_work`` counted."""
    server, clients, _ = init_method_state(problem, cfg, np.zeros(problem.dim))
    methods._ensure_fresh_variates(problem, server, clients)
    reports, stack_calls, public_calls = [], [], []
    solve = getattr(methods, solver)

    def solved(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    count = count_raw_work(monkeypatch)
    method = getattr(stack_cls, answer)

    def called(stack, rows, points):
        stack_calls.append(points.shape[0])
        return method(stack, rows, points)

    public = ClientOracle.gradient
    monkeypatch.setattr(methods, solver, solved)
    monkeypatch.setattr(stack_cls, answer, called)
    monkeypatch.setattr(
        ClientOracle, "gradient", lambda o, x: public_calls.append(o) or public(o, x)
    )
    count[0] = 0.0
    _, _, record = step_method(problem, server, clients, cfg, RandomStream(0))
    (report,) = reports
    return record, report, stack_calls, public_calls, count[0]


def test_a_logistic_descent_makes_one_stack_call_per_iteration(monkeypatch):
    # every iteration of the lockstep gd solve takes its working rows'
    # gradients in one call of the logistic stack, none through a public
    # one-row gradient
    problem, cfg = _auto("logistic_small", "dane_plus")
    assert cfg.local.solver == "gd"
    record, report, calls, public, counted = _one_step(
        monkeypatch, problem, cfg, "solve_gd", _LogisticStack, "gradients"
    )
    steps = report.row_steps.tolist()
    assert len(calls) == max(steps) + 1 and public == []
    # row i is evaluated at iterations 0..steps[i]
    assert calls == [sum(s >= t for s in steps) for t in range(max(steps) + 1)]
    assert record.grad_evals == counted == sum(calls) == report.steps_taken + problem.n


def test_an_exact_solve_makes_one_hessian_call_per_iteration(monkeypatch):
    problem, cfg = _auto("quadratic_sc", "fedred")
    assert cfg.local.solver == "exact"
    record, report, calls, public, counted = _one_step(
        monkeypatch, problem, cfg, "solve_exact_quadratic", _QuadraticStack,
        "hessian_matvecs",
    )
    steps = report.row_steps.tolist()
    assert len(calls) == max(steps) > 0 and public == []
    assert calls == [sum(s > t for s in steps) for t in range(max(steps))]
    assert record.grad_evals == counted == sum(calls) == report.steps_taken


# ------------------------------------------- the block equals the per-client path


def _random_partition(rng, n: int) -> list[SparseDataset]:
    """``n`` random sparse clients on one width: client 0 holds one row and
    a column that no row touches; entries span five orders of magnitude."""
    cols = int(rng.integers(2, 8))
    untouched = int(rng.integers(cols))
    parts = []
    for i in range(n):
        rows = 1 if i == 0 else int(rng.integers(1, 7))
        dense = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-2, 3, (rows, cols))
        dense[rng.random((rows, cols)) >= rng.choice([0.3, 0.7, 1.0])] = 0.0
        dense[:, untouched] = 0.0
        labels = rng.choice([-1.0, 1.0], size=rows)
        parts.append(SparseDataset(labels=labels, matrix=sp.csr_matrix(dense)))
    return parts


BUILDERS = {
    "bundled_logistic": lambda rng, n: _bundled("logistic_small"),
    "libsvm_partition": lambda rng, n: logistic_problem(_random_partition(rng, n)),
    "libsvm_one_client": lambda rng, n: logistic_problem(_random_partition(rng, 1)),
}


def _bits(arr) -> bytes:
    return np.asarray(arr, dtype=np.float64).tobytes()


@pytest.mark.parametrize("kind", BUILDERS)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_block_is_bitwise_the_per_client_path(kind, data):
    rng = RandomStream(data.draw(st.integers(0, 2**16))).generator()
    problem = BUILDERS[kind](rng, data.draw(st.integers(1, 4)))
    x = rng.standard_normal(problem.dim) * 10.0 ** data.draw(st.floats(-3.0, 2.0))
    values = [per_row_value(c, x) for c in problem.clients]
    grads = [per_row_gradient(c, x) for c in problem.clients]
    assert _bits(problem.values_at(x)) == _bits(values)
    assert _bits(problem.gradients_at(x)) == _bits(grads)
    # the public one-row forms
    assert _bits([c.value(x) for c in problem.clients]) == _bits(values)
    assert _bits([c.gradient(x) for c in problem.clients]) == _bits(grads)
    assert problem.f(x) == sum(values) / problem.n
    assert _bits(problem.grad_f(x)) == _bits(np.mean(np.array(grads), axis=0))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_the_logistic_stack_answers_any_rows_at_their_own_points(data):
    # a subset of the clients, consecutive or not, in any order, with repeats
    rng = RandomStream(data.draw(st.integers(0, 2**16))).generator()
    n = data.draw(st.integers(1, 5))
    problem = logistic_problem(_random_partition(rng, n))
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    scale = 10.0 ** data.draw(st.floats(-3.0, 2.0))
    points = rng.standard_normal((len(rows), problem.dim)) * scale
    oracles = [problem.clients[i] for i in rows]
    values = [per_row_value(o, p) for o, p in zip(oracles, points)]
    grads = [per_row_gradient(o, p) for o, p in zip(oracles, points)]
    core.take_billed()
    assert _bits(gradients_of(oracles, points)) == _bits(grads)
    assert core.take_billed() == float(len(rows))
    assert _bits(values_of(oracles, points)) == _bits(values)
    stack = problem.clients[0].stack
    assert _bits(stack.gradients(rows, points)) == _bits(grads)
    assert _bits(stack.values(rows, points)) == _bits(values)
    assert core.take_billed() == 0.0


def test_an_oracle_built_alone_is_a_stack_of_its_own():
    (part,) = _random_partition(RandomStream(3).generator(), 1)
    oracle = LogisticOracle(part, 1, part.n_rows)
    # built on first use, once
    stack = oracle.stack
    assert oracle.row == 0 and oracle.stack is stack
    x = RandomStream(4).generator().standard_normal(oracle.dim)
    assert oracle.value(x) == per_row_value(oracle, x)
    assert _bits(oracle.gradient(x)) == _bits(per_row_gradient(oracle, x))


def _per_row_delta_sampled(problem, n_pairs: int, stream):
    """The sampled constants from per-client gradients and a norm per row."""
    delta_a_sq = delta_b = 0.0
    for t in range(n_pairs):
        rng = stream.fork(t).generator()
        x, y = rng.standard_normal(problem.dim), rng.standard_normal(problem.dim)
        gap = math.sqrt((x - y).dot(x - y))
        gx, gy = problem.client_gradients(x), problem.client_gradients(y)
        devs = (gx - np.mean(gx, axis=0)) - (gy - np.mean(gy, axis=0))
        sq_sum = 0.0
        for dev in devs:
            norm = math.sqrt(dev.dot(dev))
            sq_sum += norm * norm
            delta_b = max(delta_b, norm / gap)
        delta_a_sq = max(delta_a_sq, sq_sum / problem.n / (gap * gap))
    return math.sqrt(delta_a_sq), delta_b


def _sigmoid_family(rng, n: int, d: int):
    """A basis-free spectral family with β > 0, one component per client."""
    specs = [
        QuadraticClientSpec(
            centers=rng.standard_normal((1, d)) * 3.0,
            spectra=rng.uniform(-1.0, 6.0, (1, d)),
        )
        for _ in range(n)
    ]
    return build_quadratic_problem(QuadraticFamily(specs=specs, beta=2.5))


@pytest.mark.parametrize(
    "build",
    [
        lambda: _bundled("logistic_small"),
        # no block; every coordinate of a deviation is nonzero, so each row
        # norm is a full-length dot, and twelve rows make the order of the
        # squared-norm sum show
        lambda: _sigmoid_family(RandomStream(4).generator(), 12, 299),
    ],
    ids=["logistic_small", "spectral_sigmoid"],
)
def test_sampled_dissimilarity_is_bitwise_the_per_row_loop(build):
    problem = build()
    report = delta_sampled(problem, 32, RandomStream(9))
    assert (report.delta_a, report.delta_b) == _per_row_delta_sampled(
        problem, 32, RandomStream(9)
    )


# --------------------------------------------- non-finite input and output


def _logistic(entry: float, labels):
    """One client whose rows are the single feature ``entry``.

    Built by hand: the smoothness bound of entries near 1e308 overflows, so
    :func:`logistic_problem` rejects them, and these tests read no bound.
    """
    labels = np.asarray(labels, dtype=np.float64)
    matrix = sp.csr_matrix(np.full((labels.size, 1), entry))
    oracle = LogisticOracle(
        SparseDataset(labels=labels, matrix=matrix), 1, labels.size, spectral_sq=1.0
    )
    return DistributedProblem(clients=[oracle], dim=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_names_the_query_point(bad):
    problem = _bundled("logistic_small")
    x = np.zeros(problem.dim)
    x[-1] = bad
    for evaluate in (problem.values_at, problem.gradients_at, problem.f, problem.grad_f):
        with pytest.raises(NonFiniteError, match="oracle query point"):
            evaluate(x)


def test_overflowing_gradient_block_names_the_gradient():
    # at x = -1 each of the four rows adds -1e308 to the one product entry
    problem = _logistic(1e308, [1.0] * 4)
    with np.errstate(over="ignore"):
        for evaluate in (problem.gradients_at, problem.grad_f):
            with pytest.raises(NonFiniteError, match="non-finite entries in gradient"):
                evaluate(np.array([-1.0]))


def test_non_finite_value_is_named():
    # at x = 1e200 the gradient is finite and the ridge term 1e400 / 4 is not
    problem = _logistic(1.0, [1.0, -1.0])
    x = np.array([1e200])
    assert np.isfinite(problem.gradients_at(x)).all()
    with np.errstate(over="ignore"):
        for evaluate in (problem.values_at, problem.f):
            with pytest.raises(NonFiniteError, match="non-finite objective value"):
                evaluate(x)


def _run_fails(problem, cfg, **kwargs):
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
        run_experiment(
            problem, cfg, Budget(max_rounds=5), seed=0, reference=None, **kwargs
        )
    return str(info.value)


def _gd_fails(problem, eta, **kwargs):
    return _run_fails(problem, MethodConfig(method="gd", eta=eta), **kwargs)


def _quadratic(curvature: float, center: float):
    """f(x) = curvature * (x - center)^2 / 2 on one coordinate."""
    spec = QuadraticClientSpec(centers=[[center]], spectra=[[curvature]])
    return build_quadratic_problem(QuadraticFamily(specs=[spec]))


def test_run_experiment_names_method_and_iteration_for_block_failures():
    # at 1 the steep problem's gradient is 1/4 (the margins 1e308 leave only
    # the ridge term), so a step of 8 moves the reference to -1, where each
    # of the four rows adds 1e308 to the loss and -1e308 to the gradient
    steep, start = _logistic(1e308, [1.0] * 4), np.array([1.0])
    message = _gd_fails(steep, 8.0, x0=start)
    assert message == "gd failed at iteration 1: non-finite objective value"
    # rand averaging takes the new reference's gradient before its value:
    # fedred_gd's step of 1/lam = 8 from the one client at 1 moves it to -1
    rand = MethodConfig(method="fedred_gd", lam=0.125, averaging="rand")
    message = _run_fails(steep, rand, x0=start)
    assert message == "fedred_gd failed at iteration 1: non-finite entries in gradient"
    # a step of 1e10 from the gradient -1e300 leaves the reference at inf
    message = _gd_fails(_quadratic(1e300, 1.0), 1e10)
    assert message == "gd failed at iteration 1: non-finite entries in oracle query point"
    # the start point's snapshot is named too: its ridge term overflows
    mild = _logistic(1.0, [1.0, -1.0])
    message = _gd_fails(mild, 0.5, x0=np.array([1e200]))
    assert message == "gd failed at iteration 0: non-finite objective value"
