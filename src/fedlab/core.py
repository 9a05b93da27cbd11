"""Vector arithmetic, replayable random streams, and oracle interfaces.

Everything downstream (problem construction, local solvers, federated
methods, the experiment harness) is written against the primitives in this
module: dense float64 vectors, counter-based random streams addressed by
``(master_seed, path)``, and client oracles exposing value/gradient pairs
for one client's local objective.

Products on the per-call path (every oracle value and gradient, the local
solvers' loops, method steps and the harness's metric snapshots) call the
routine they end in directly: dense ones ``ndarray.dot``, whose BLAS call
the ``@`` gufunc makes too after a costlier dispatch, with vector norms as
``math.sqrt(v.dot(v))``, which is what ``np.linalg.norm`` computes for a
1-D float vector; sparse ones ``problems.logistic._csr_matvec``, scipy's
CSR kernel without the ``@`` dispatch.  Both are bitwise equal to the forms
they replace.  :func:`require_finite` alone keeps ``np.vdot``: ``.dot`` and
``@`` set the overflow flag, and so warn, on finite entries above about
1e154, and ``np.vdot`` does not.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

Vector = np.ndarray


class DimensionError(ValueError):
    """Operands with incompatible shapes were combined."""


class NonFiniteError(ValueError):
    """A NaN or Inf crossed an oracle boundary."""


class ConfigurationError(ValueError):
    """A configuration value is outside its documented domain."""


class UnsupportedStructureError(TypeError):
    """The requested solver needs structure the oracle does not expose."""


def as_vector(x) -> Vector:
    """Coerce ``x`` to a 1-D float64 array (copying only when needed)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    return v


_FLOAT64 = np.dtype(np.float64)


def require_finite(arr, what: str = "value"):
    """Raise :class:`NonFiniteError` unless every entry of ``arr`` is finite.

    A 1-D float64 array is first tested with one BLAS dot, ``arr . arr``: a
    sum of squares is finite only when every entry is.  It can also overflow
    on finite entries (above about 1e154), so a non-finite dot, like any
    other input, falls back to the exact ``np.isfinite`` test.  ``np.vdot``
    does not read the floating-point status flags, so no input makes the
    dot warn.
    """
    if (
        type(arr) is np.ndarray
        and arr.ndim == 1
        and arr.dtype is _FLOAT64
        and math.isfinite(np.vdot(arr, arr))
    ):
        return arr
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite entries in {what}")
    return arr


@dataclass(frozen=True)
class RandomStream:
    """Deterministic random stream addressed by a seed and an integer path.

    A stream never holds generator state: :meth:`generator` rebuilds the
    underlying PRNG from ``(master_seed, path)`` on every call, so replaying
    a path reproduces bit-identical draws no matter how many other streams
    were consumed in between.  Child streams obtained through :meth:`fork`
    are statistically independent of the parent and of each other.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be non-negative")
        if any(label < 0 for label in self.path):
            raise ConfigurationError("stream path labels must be non-negative")

    def fork(self, label: int) -> "RandomStream":
        """Child stream for integer ``label`` (deterministic, collision-free)."""
        if label < 0:
            raise ConfigurationError("stream path labels must be non-negative")
        return RandomStream(self.master_seed, self.path + (label,))

    def generator(self) -> np.random.Generator:
        """Fresh generator seeded from this stream's address."""
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=self.path
        )
        return np.random.default_rng(seq)


class ClientOracle(ABC):
    """First-order oracle for one client's local objective.

    Subclasses implement ``_value`` and ``_gradient``; the public methods
    validate shapes and reject non-finite inputs and outputs, so a NaN is
    caught at the oracle boundary instead of propagating silently.  Every
    billed primitive passes this boundary once, at the base oracle: wrappers
    such as :class:`~fedlab.local_solvers.SurrogateOracle` call the base's
    public methods from their own ``_gradient``, and the local solvers call
    the wrapper's ``_gradient`` and test the gradient norm they compute
    anyway (see :mod:`fedlab.local_solvers`).  Outside callers of
    :meth:`gradient` and :meth:`value` keep every check.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    smoothness_hint : float or None
        Upper bound on the gradient Lipschitz constant, if known.
    convexity_hint : float or None
        Strong-convexity modulus (0 for merely convex), or None when the
        objective is not known to be convex.
    """

    dim: int
    smoothness_hint: float | None = None
    convexity_hint: float | None = None

    @abstractmethod
    def _value(self, x: Vector) -> float: ...

    @abstractmethod
    def _gradient(self, x: Vector) -> Vector: ...

    def _check_input(self, x) -> Vector:
        v = as_vector(x)
        if v.shape[0] != self.dim:
            raise DimensionError(
                f"oracle dimension {self.dim}, query dimension {v.shape[0]}"
            )
        require_finite(v, "oracle query point")
        return v

    def value(self, x) -> float:
        v = float(self._value(self._check_input(x)))
        if not np.isfinite(v):
            raise NonFiniteError("non-finite objective value")
        return v

    def gradient(self, x) -> Vector:
        g = as_vector(self._gradient(self._check_input(x)))
        require_finite(g, "gradient")
        return g

    def stochastic_gradient(self, x, stream: RandomStream) -> Vector:
        """Unbiased gradient estimate.

        The base implementation is the deterministic gradient (zero
        variance); subclasses with sampling schemes override it.
        """
        return self.gradient(x)

    @property
    def stochastic_cost(self) -> float:
        """Cost of one stochastic gradient in full-gradient units."""
        return 1.0


@dataclass
class DistributedProblem:
    """A finite-sum objective ``f = (1/n) sum_i f_i`` over client oracles.

    Parameters below the client list are optional annotations: smoothness
    of the worst client (`l_smooth`), smoothness of the global average
    (`l_smooth_global`, never larger), a strong-convexity modulus, and
    exact quadratic structure when available.  Per-client data is an
    (n, d) block with row ``i`` for client ``i``.
    """

    clients: list[ClientOracle]
    dim: int
    l_smooth: float | None = None
    l_smooth_global: float | None = None
    mu: float | None = None
    quadratic: object | None = None

    def __post_init__(self):
        if not self.clients:
            raise ConfigurationError("a problem needs at least one client")
        for c in self.clients:
            if c.dim != self.dim:
                raise DimensionError("client dimension mismatch")

    @property
    def n(self) -> int:
        return len(self.clients)

    def f(self, x) -> float:
        return sum(c.value(x) for c in self.clients) / self.n

    def grad_f(self, x) -> Vector:
        return self.mean_gradient(self.client_gradients(x))

    def client_gradients(self, x) -> np.ndarray:
        """Every client's gradient at ``x``, as an (n, d) block."""
        return np.stack([c.gradient(x) for c in self.clients])

    @staticmethod
    def mean_gradient(grads: np.ndarray) -> Vector:
        # single canonical reduction so every caller gets bitwise-equal means
        return np.mean(grads, axis=0)
