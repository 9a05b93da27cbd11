"""Shared fixture builders for the test suite.

Everything here is a plain function (not a pytest fixture) so tests can
parameterize freely; all randomness flows through RandomStream.
"""
import numpy as np

from fedlab import (
    ClientOracle,
    DistributedProblem,
    QuadraticClientSpec,
    QuadraticFamily,
    RandomStream,
    as_vector,
    build_quadratic_problem,
)


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


class CubicOracle(ClientOracle):
    """Nonconvex 1-d test oracle f(x) = x^4/4 - x^2/2 (minima at +-1)."""

    def __init__(self):
        self.dim = 1
        self.smoothness_hint = 20.0
        self.convexity_hint = None

    def _value(self, x):
        return float(0.25 * x[0] ** 4 - 0.5 * x[0] ** 2)

    def _gradient(self, x):
        return np.array([x[0] ** 3 - x[0]])


class FixedGradientOracle(ClientOracle):
    """Affine test oracle with a constant gradient field."""

    def __init__(self, g: np.ndarray):
        self.g = np.asarray(g, dtype=np.float64)
        self.dim = self.g.shape[0]
        self.smoothness_hint = 1.0
        self.convexity_hint = 0.0

    def _value(self, x):
        return float(self.g @ x)

    def _gradient(self, x):
        return self.g.copy()
