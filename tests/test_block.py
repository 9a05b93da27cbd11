"""Block evaluation: every client at once, bitwise the per-client path.

Measurement work (metric snapshots, the reference optimum, sampled
dissimilarity) reads a problem's block; billed work keeps one billed row
per client: a public ``ClientOracle.gradient`` each, or one row of a
quadratic stack's billed block.
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
    delta_sampled,
    logistic_problem,
    reference_optimum,
    run_experiment,
)
from fedlab.problems.logistic import LogisticOracle, _LogisticBlock
from fedlab.problems.quadratic import _QuadraticStack

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@functools.cache
def _bundled(name: str):
    cfg = cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    return cli.build_problem(cfg["problem"], CONFIG_DIR)


# ------------------------------------------------- billed work stays per-client


@pytest.fixture
def gradient_calls(monkeypatch):
    """One name per billed gradient row: the oracle type for each public
    ``gradient`` call, ``_QuadraticStack`` for each row of a stack's
    billed block (counted from the shape of its points)."""
    calls = []
    public = ClientOracle.gradient
    block = _QuadraticStack.gradients

    def counted(self, x):
        calls.append(type(self).__name__)
        return public(self, x)

    def counted_rows(self, rows, points):
        calls.extend(["_QuadraticStack"] * points.shape[0])
        return block(self, rows, points)

    monkeypatch.setattr(ClientOracle, "gradient", counted)
    monkeypatch.setattr(_QuadraticStack, "gradients", counted_rows)
    return calls


BUNDLED = ["logistic_small", "quadratic_sc"]


def test_measurement_makes_no_public_gradient_calls(gradient_calls):
    problem = _bundled("logistic_small")
    assert problem.block is not None
    x = RandomStream(5).generator().standard_normal(problem.dim)
    problem.f(x)
    problem.grad_f(x)
    reference_optimum(problem)
    delta_sampled(problem, 3, RandomStream(2))
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


def test_problems_without_a_block_make_public_calls(gradient_calls):
    # a quadratic problem's grad_f takes the stack's billed rows
    problem = _bundled("quadratic_sc")
    assert problem.block is None
    problem.grad_f(np.ones(problem.dim))
    assert gradient_calls == ["_QuadraticStack"] * problem.n


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
    assert problem.block is not None
    x = rng.standard_normal(problem.dim) * 10.0 ** data.draw(st.floats(-3.0, 2.0))
    assert _bits(problem.values_at(x)) == _bits([c.value(x) for c in problem.clients])
    assert _bits(problem.gradients_at(x)) == _bits(
        [c.gradient(x) for c in problem.clients]
    )
    assert problem.f(x) == sum(c.value(x) for c in problem.clients) / problem.n
    assert _bits(problem.grad_f(x)) == _bits(
        np.mean(np.array([c.gradient(x) for c in problem.clients]), axis=0)
    )


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
    """One client whose rows are the single feature ``entry``, with its block.

    Built by hand: the smoothness bound of entries near 1e308 overflows, so
    :func:`logistic_problem` rejects them, and these tests read no bound.
    """
    labels = np.asarray(labels, dtype=np.float64)
    matrix = sp.csr_matrix(np.full((labels.size, 1), entry))
    oracle = LogisticOracle(
        SparseDataset(labels=labels, matrix=matrix), 1, labels.size, spectral_sq=1.0
    )
    return DistributedProblem(
        clients=[oracle], dim=1, block=_LogisticBlock([oracle], oracle.matrix)
    )


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


def _gd_fails(problem, eta, **kwargs):
    cfg = MethodConfig(method="gd", eta=eta)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
        run_experiment(
            problem, cfg, Budget(max_rounds=5), seed=0, reference=None, **kwargs
        )
    return str(info.value)


def _quadratic(curvature: float, center: float):
    """f(x) = curvature * (x - center)^2 / 2 on one coordinate."""
    spec = QuadraticClientSpec(centers=[[center]], spectra=[[curvature]])
    return build_quadratic_problem(QuadraticFamily(specs=[spec]))


def test_run_experiment_names_method_and_iteration_for_block_failures():
    # gd on (x + 3)^2 / 2 from 1 moves its reference to -1 after one round;
    # the metric problem's value and gradient are finite at 1, not at -1
    benign, steep = _quadratic(1.0, -3.0), _logistic(1e308, [1.0] * 4)
    assert steep.block is not None
    start = {"x0": np.array([1.0]), "metric_problem": steep}
    message = _gd_fails(benign, 0.5, **start)
    assert message == "gd failed at iteration 1: non-finite objective value"
    message = _gd_fails(benign, 0.5, output_mode="best_grad", **start)
    assert message == "gd failed at iteration 1: non-finite entries in gradient"
    # a step of 1e10 from the gradient -1e300 leaves the reference at inf
    mild = _logistic(1.0, [1.0, -1.0])
    message = _gd_fails(_quadratic(1e300, 1.0), 1e10, metric_problem=mild)
    assert message == "gd failed at iteration 1: non-finite entries in oracle query point"
    # the start point's snapshot is named too
    message = _gd_fails(benign, 0.5, x0=np.array([1e200]), metric_problem=mild)
    assert message == "gd failed at iteration 0: non-finite objective value"
