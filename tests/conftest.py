"""Shared fixture builders for the test suite.

Everything here is a plain function (not a pytest fixture) so tests can
parameterize freely; all randomness flows through RandomStream.
"""
import functools
import os

import numpy as np
import pytest

from fedlab import (
    ClientOracle,
    DistributedProblem,
    QuadraticClientSpec,
    QuadraticFamily,
    QuadraticOracle,
    RandomStream,
    as_vector,
    build_quadratic_problem,
    cli,
    harness,
)
from fedlab.problems.logistic import LogisticOracle, _csr_matvec, _LogisticStack
from fedlab.problems.quadratic import _QuadraticStack
from scipy.special import expit


def finite_difference_gradient(fn, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient with step ``rel_step*(1+||x||)``."""
    x = as_vector(x)
    h = rel_step * (1.0 + float(np.linalg.norm(x)))
    g = np.empty_like(x)
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


@functools.cache
def logistic_small() -> DistributedProblem:
    """The problem of the bundled ``configs/logistic_small.json`` (built once)."""
    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    cfg = cli.load_config(os.path.join(configs, "logistic_small.json"))
    return cli.build_problem(cfg["problem"], configs)


def quad_1d(center: float = 3.0, curvature: float = 1.0) -> DistributedProblem:
    """Single client f(x) = curvature/2 * (x - center)^2."""
    spec = QuadraticClientSpec(
        centers=np.array([[center]]), spectra=np.array([[curvature]])
    )
    return build_quadratic_problem(QuadraticFamily(specs=[spec]))


def two_client_line() -> DistributedProblem:
    """f_1 = x^2/2, f_2 = (x-2)^2/2; global optimum x* = 1, f* = 0.5."""
    specs = [
        QuadraticClientSpec(centers=np.array([[0.0]]), spectra=np.array([[1.0]])),
        QuadraticClientSpec(centers=np.array([[2.0]]), spectra=np.array([[1.0]])),
    ]
    return build_quadratic_problem(QuadraticFamily(specs=specs))


def hetero_pair(d: int = 4, seed: int = 11) -> DistributedProblem:
    """Two clients with different curvatures and centers (nonzero drift)."""
    rng = RandomStream(seed).generator()
    specs = []
    for _ in range(2):
        spectra = rng.uniform(1.0, 6.0, size=(1, d))
        centers = rng.standard_normal((1, d))
        specs.append(QuadraticClientSpec(centers=centers, spectra=spectra))
    return build_quadratic_problem(QuadraticFamily(specs=specs))


def random_family(
    seed: int, n: int = 3, m: int = 2, d: int = 5, dense: bool = False
) -> QuadraticFamily:
    """Random well-conditioned family, spectral or dense representation."""
    rng = RandomStream(seed).generator()
    specs = []
    for _ in range(n):
        spectra = rng.uniform(0.5, 4.0, size=(m, d))
        centers = rng.standard_normal((m, d))
        if dense:
            mats = np.stack([np.diag(s) for s in spectra])
            gauss = rng.standard_normal((d, d))
            q, r = np.linalg.qr(gauss)
            mats = np.einsum("kl,jlm,nm->jkn", q, mats, q)
            specs.append(
                QuadraticClientSpec(centers=centers @ q.T, matrices=mats)
            )
        else:
            specs.append(QuadraticClientSpec(centers=centers, spectra=spectra))
    return QuadraticFamily(specs=specs)


def rotated_family(family: QuadraticFamily, seed: int) -> QuadraticFamily:
    """A basis-free spectral ``family`` under a random orthogonal basis Q.

    The specs stay as they are, since a spectral spec states its spectra and
    centers ``c`` in the eigen frame: each component ``0.5 (x - Q c)' Q
    diag(s) Q' (x - Q c)`` is the original one at ``Q'x``.
    """
    d = family.dim
    q = np.linalg.qr(RandomStream(seed).generator().standard_normal((d, d)))[0]
    return QuadraticFamily(specs=family.specs, basis=q, beta=family.beta)


class CubicOracle(ClientOracle):
    """Nonconvex 1-d test oracle f(x) = x^4/4 - x^2/2 (minima at +-1), a
    one-row stack of its own."""

    def __init__(self):
        self.dim = 1
        self.smoothness_hint = 20.0
        self.convexity_hint = None

    def values(self, rows, points):
        x = points[:, 0]
        return 0.25 * x**4 - 0.5 * x**2

    def gradients(self, rows, points):
        return points**3 - points


class FixedGradientOracle(ClientOracle):
    """Affine test oracle with a constant gradient field."""

    def __init__(self, g: np.ndarray):
        self.g = np.asarray(g, dtype=np.float64)
        self.dim = self.g.shape[0]
        self.smoothness_hint = 1.0
        self.convexity_hint = 0.0

    def values(self, rows, points):
        return points.dot(self.g)

    def gradients(self, rows, points):
        return np.repeat(self.g[None], len(rows), axis=0)


# ---------------------------------------------------- per-row references
#
# The stacks answer k clients at k points in one pass; these are the one
# client at one point formulas they must match bitwise.


def _curvature(oracle: QuadraticOracle, y):
    hessian = oracle.stack.hessians[oracle.row]
    return hessian * y if hessian.ndim == 1 else hessian.dot(y)


def _neg_margins(oracle: LogisticOracle, x):
    return oracle.neg_labels * _csr_matvec(oracle.matrix, x)


def per_row_value(oracle, x) -> float:
    """A quadratic or logistic client's value at ``x``, formed alone."""
    if isinstance(oracle, LogisticOracle):
        losses = np.logaddexp(0.0, _neg_margins(oracle, x))
        return oracle.loss_scale * float(losses.sum()) + 0.5 * oracle.reg * float(
            x.dot(x)
        )
    stack, row = oracle.stack, oracle.row
    w = x - stack.centers[row]
    quad = 0.5 * float(w.dot(_curvature(oracle, w))) - float(stack.u[row].dot(w))
    sq = x * x
    sigmoid = 0.0 if oracle.beta == 0.0 else oracle.beta * float(np.sum(sq / (1.0 + sq)))
    return quad + float(stack.kappa[row]) + sigmoid


def per_row_gradient(oracle, x) -> np.ndarray:
    """A quadratic or logistic client's gradient at ``x``, formed alone."""
    if isinstance(oracle, LogisticOracle):
        weights = oracle.neg_labels * expit(_neg_margins(oracle, x))
        return oracle.loss_scale * _csr_matvec(oracle.transpose, weights) + oracle.reg * x
    stack, row = oracle.stack, oracle.row
    g = _curvature(oracle, x - stack.centers[row])
    g -= stack.u[row]
    if oracle.beta != 0.0:
        denom = x * x
        denom += np.ones(x.shape[0])
        denom *= denom
        g += np.divide(np.full(x.shape[0], oracle.beta * 2.0) * x, denom, denom)
    return g


def per_row_hessian_matvec(oracle: QuadraticOracle, v) -> np.ndarray:
    """A quadratic client's mean Hessian applied to ``v``, formed alone."""
    return _curvature(oracle, v)


def count_raw_work(monkeypatch) -> list[float]:
    """A one-entry list that counts the work the leaf primitives do.

    Patches every stack's block ``gradients`` and the quadratic stack's
    ``hessian_matvecs`` (one unit per row of the points they are given,
    read from their shape), and both samplers (the sample's share:
    ``batch_size / m`` components, ``batch_size / rows`` rows), without
    reading the bill they are billed by.  Set the entry to 0.0 to start a
    new count.
    """
    count = [0.0]

    def counted(fn, share):
        def wrapper(self, *args):
            count[0] += share(self, *args)
            return fn(self, *args)

        return wrapper

    def rows(self, rows, points):
        return points.shape[0]

    for cls in (_QuadraticStack, _LogisticStack, CubicOracle, FixedGradientOracle):
        monkeypatch.setattr(cls, "gradients", counted(cls.gradients, rows))
    monkeypatch.setattr(
        _QuadraticStack,
        "hessian_matvecs",
        counted(_QuadraticStack.hessian_matvecs, rows),
    )
    monkeypatch.setattr(
        QuadraticOracle,
        "stochastic_gradient",
        counted(QuadraticOracle.stochastic_gradient, lambda o, x, s, b: b / o.spec.m),
    )
    monkeypatch.setattr(
        LogisticOracle,
        "stochastic_gradient",
        counted(
            LogisticOracle.stochastic_gradient,
            lambda o, x, s, b: b / o.matrix.shape[0],
        ),
    )
    return count


def billed_run(problem, cfg, iterations: int, seed: int = 5, **kwargs):
    """Run ``cfg`` on ``problem`` for ``iterations`` steps (``kwargs`` go to
    ``run_experiment``).  The setup and every step must bill what
    :func:`count_raw_work` counts over the same ``init_method_state`` or
    ``step_method`` call, and the run's total must be their sum.  Metric
    snapshots and the reference optimum run between those calls."""
    windows = []

    def window(fn, billed):
        def wrapper(*args):
            count[0] = 0.0
            out = fn(*args)
            windows.append((billed(out), count[0]))
            return out

        return wrapper

    with pytest.MonkeyPatch.context() as monkeypatch:
        count = count_raw_work(monkeypatch)
        for name, billed in (
            ("init_method_state", lambda out: out[2]),
            ("step_method", lambda out: out[2].grad_evals),
        ):
            monkeypatch.setattr(harness, name, window(getattr(harness, name), billed))
        result = harness.run_experiment(
            problem, cfg, harness.Budget(max_iterations=iterations), seed, **kwargs
        )
    assert len(windows) == 1 + len(result.records) == 1 + iterations
    billed, counted = zip(*windows)
    assert billed == counted, cfg.method
    assert list(billed[1:]) == [r.grad_evals for r in result.records]
    total = 0.0
    for units in billed:
        total += units
    assert result.total_grad_evals == total
    return result
